"""CSV text of a block of table rows, built with numpy and equal to str() of each cell.

A float64 cell is written from its shortest round-trip digits, the digits
float.__repr__ gives.  They are found exactly in uint64 arithmetic (the scaled
value y = x 10^t as a 128-bit product, then the nearest 17-, 16-, 15- and
14-digit candidates tested against half an ulp), in the manner of Steele &
White (1990) and Adams (2018, "Ryu").  A cell falls back to str() when its
shortest form has 14 digits or fewer, when its mantissa is a power of two, and
outside 1e-11 <= |x| < 10 (zeros, subnormals, large and non-finite values).
Integers 0 <= v < 10^14 are written from their digits, other cells with str().

Each cell becomes a few little-endian uint64 words of text: the separator that
precedes it, then its characters at fixed byte slots, padded with zero bytes.
The words of a block lie row-major in one matrix, so its bytes are the rows in
order once the zero bytes are dropped.  Every temporary is sized by the block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_U64, _I64 = np.uint64, np.int64
_WORDS = np.dtype("<u8")     # text words, first character in the lowest byte
_POW5 = np.array([5 ** t for t in range(28)], dtype=np.uint64)   # 5^27 < 2^63
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_LOW32, _32 = _U64(0xFFFFFFFF), _U64(32)
_ONE, _ZERO = _U64(1), _U64(0)
# _BELOW[c] keeps a word's bytes 0..c-1, and ~_BELOW[c] its bytes c..7
_BELOW = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype=np.uint64)


def _chars(text: bytes) -> int:
    return int.from_bytes(text, "little")


# a float cell is a prefix word, 16 digit characters and, when a cell of the block
# has one, an exponent word, all indexed by -k for the decimal exponent k of
# 1e-11 <= |x| < 10: the prefix holds the separator, the sign, "0." and up to three
# zeros for 0.000ddd (-k = 1..4), the point after the first digit otherwise, which
# goes to byte _FIRST_AT[-k]
_PREFIX = np.array([_chars(b"\0\0" + b"0." + b"0" * (j - 1) if 1 <= j <= 4 else b"\0\0\0.")
                    for j in range(12)], dtype=np.uint64)
_FIRST_AT = np.array([56 if 1 <= j <= 4 else 16 for j in range(12)], dtype=np.uint64)
_EXPONENT = np.array([_chars(b"e-%02d" % j) if j > 4 else 0 for j in range(12)],
                     dtype=np.uint64)
_CHAR0, _MINUS_BYTE1 = _U64(ord("0")), _U64(ord("-") << 8)
_DIGITS8 = _U64(_chars(b"0" * 8))


def _shortest(mant: np.ndarray, t: np.ndarray, sh: np.ndarray):
    """Shortest round-trip digits of x = mant 2^E, given t and sh = -(E + t) >= 1
    with y = x 10^t = mant 5^t / 2^sh in [1e16, 1e17).

    Returns (digits, length, ok): digits holds the `length` (15, 16 or 17) digits
    followed by zeros, as a 17-digit integer.  ok is false where t was one off (y
    outside [1e16, 1e17)) or the shortest form has 14 digits or fewer.  Every
    operand is uint64 or int64, so numpy never promotes to float64."""
    p5 = _POW5[t]
    # y's 128-bit numerator mant 5^t from four 32-bit partial products
    m0, m1 = mant & _LOW32, mant >> _32
    p0, p1 = p5 & _LOW32, p5 >> _32
    low = m0 * p0
    mid = m0 * p1 + m1 * p0            # < 2^63 + 2^53
    lo = low + (mid << _32)
    hi = m1 * p1 + (mid >> _32) + (lo < low)
    q = (hi << (_U64(64) - sh)) | (lo >> sh)                 # floor(y)
    below = (_ONE << sh) - _ONE
    r = lo & below                                           # y - q, in units of 2^-sh
    digits = q + ((r + (below >> _ONE) + (q & _ONE)) >> sh)  # y rounded half-even
    # a candidate q + delta lies within half an ulp, 5^t / 2^(sh+1), of y iff
    # -down <= delta <= up; 5^t is odd, so it never lies exactly half an ulp away
    a_half, ri, shi = (p5 >> _ONE).view(_I64), r.view(_I64), sh.view(_I64)
    up, down = (a_half + ri) >> shi, (a_half - ri) >> shi
    sticky = r != _ZERO
    fits = []
    for j in (1, 2, 3):
        p = _POW10[j]
        c = q // p
        rem = (q - c * p).view(_I64)
        # the nearest multiple of 10^j, half-even; r breaks a tie upwards
        rounds_up = rem + (sticky | (c & _ONE)).view(_I64) > _I64(10 ** j // 2)
        fits.append(np.where(rounds_up, _I64(10 ** j) - rem <= up, rem <= down))
        if j < 3:
            np.copyto(digits, (c + rounds_up) * p, where=fits[-1])
    # a (17-j)-digit form fits only if every longer one does
    length = 17 - fits[0].astype(_I64) - fits[1]
    ok = ~fits[2] & (q >= _POW10[16]) & (q < _POW10[17])
    return digits, length, ok


def _ascii8(v: np.ndarray) -> np.ndarray:
    """Words of the 8 decimal digits of v < 10^8, most significant in the lowest
    byte: two 4-digit, then four 2-digit, then eight 1-digit lanes."""
    top = v // _POW10[4]
    v = top | ((v - top * _POW10[4]) << _32)
    top = ((v * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)        # lane // 100
    v = top | ((v - top * _U64(100)) << _U64(16))
    top = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)          # lane // 10
    return (top | ((v - top * _U64(10)) << _U64(8))) + _DIGITS8


def _str_words(values: Sequence, sep: int, words: int = 1) -> np.ndarray:
    """(n, words) text of the cells sep + str(value), widened to the longest."""
    text = [bytes((sep,)) + str(value).encode("utf-8") for value in values]
    width = 8 * max([words, *((len(s) + 7) // 8 for s in text)])
    flat = b"".join(s.ljust(width, b"\0") for s in text)
    return np.frombuffer(flat, _WORDS).reshape(len(text), width // 8)


def _float_words(x: np.ndarray, sep: int) -> np.ndarray:
    """(n, 3 or more) text of float64 cells; str(value) for the uncovered ones."""
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 10.0)
    a[~fast] = 1.0
    m, e = np.frexp(a)
    mant = (m * 2.0 ** 53).astype(_U64)
    t = np.clip(16 - np.floor(np.log10(a)).astype(_I64), 16, 27)
    digits, length, ok = _shortest(mant, t, (53 - e - t).astype(_U64))   # sh is 33..62
    slow = np.flatnonzero(~(fast & ok & (mant != _U64(1 << 52))))
    text = _str_words(x[slow].tolist(), sep, 4 if t.max() > 20 else 3)
    words = np.zeros((len(x), text.shape[1]), _U64)
    j = t - 16                                          # -k, 0..11
    first = digits // _POW10[16]
    words[:, 0] = (_PREFIX[j] | ((first + _CHAR0) << _FIRST_AT[j]) | _U64(sep)
                   | ((x < 0) * _MINUS_BYTE1))
    rest = digits - first * _POW10[16]
    top = rest // _POW10[8]
    words[:, 1] = _ascii8(top)
    words[:, 2] = _ascii8(rest - top * _POW10[8]) & _BELOW[length - 9]
    if words.shape[1] > 3:
        words[:, 3] = _EXPONENT[j]
    words[slow] = text
    return words


def _int_words(v: np.ndarray, sep: int) -> np.ndarray:
    """(n, 1 or 2) text of integer cells: separator, then right-aligned digits;
    str(value) for a column with a negative value or one from 10^14 up."""
    if v.min() < 0 or v.max() >= 10 ** 14:
        return _str_words(v.tolist(), sep)
    v = v.astype(_U64)
    n_words = 1 if v.max() < 10 ** 7 else 2
    n_digits = np.searchsorted(_POW10[1:], v, side="right") + 1
    words = np.empty((len(v), n_words), _U64)
    for i in range(n_words):
        group = v // _POW10[8 * (n_words - 1 - i)] % _POW10[8]
        words[:, i] = _ascii8(group) & ~_BELOW[np.clip(8 * (n_words - i) - n_digits, 0, 8)]
    words[:, 0] |= _U64(sep)
    return words


def block_text(parts: Sequence) -> bytes:
    """The CSV rows of one block: `parts` holds each column's cells (float or int
    ndarrays, ranges, or sequences of any values), all of one length."""
    words = []
    for i, part in enumerate(parts):
        sep = ord(",") if i else 0
        if isinstance(part, range):
            part = np.arange(part.start, part.stop, part.step)
        kind = part.dtype.kind if isinstance(part, np.ndarray) else ""
        if kind == "f":
            words.append(_float_words(part.astype(np.float64), sep))
        elif kind in ("i", "u"):
            words.append(_int_words(part, sep))
        else:
            words.append(_str_words(part.tolist() if kind else part, sep))
    words.append(np.full((len(words[0]), 1), ord("\n"), _U64))
    return np.concatenate(words, axis=1, dtype=_WORDS).tobytes().translate(None, b"\0")
