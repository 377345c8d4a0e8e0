"""CSV text of a block of table rows, built with numpy and equal to str() of each cell.

A float64 cell is written from its shortest round-trip digits, the digits
float.__repr__ gives, found exactly in integer arithmetic as by Steele & White
(1990) and Adams (2018, "Ryu"): y = x 10^t as a 128-bit product, t from the binary
exponent, one exists test per length (a multiple of 10^j within half an ulp of y,
j = 1..4), then y rounded once at the shortest length, 14 to 17 digits.  A cell
falls back to str() when its shortest form has 13 digits or fewer (about 0.1 % of
Lorenz cells), when its mantissa is a power of two, and outside 1e-11 <= |x| < 10
(zeros, subnormals, large and non-finite values).  Integers 0 <= v < 10^14 are
written from their digits, other cells with str().

Each cell becomes a few little-endian uint64 words of text: the separator that
precedes it, then its characters at fixed byte slots, padded with zero bytes.
The words of a block lie row-major in one matrix, so its bytes are the rows in
order once the zero bytes are dropped.  Every temporary is sized by the block.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_U64, _I64, _U16, _U8 = np.uint64, np.int64, np.uint16, np.uint8
_WORDS = np.dtype("<u8")     # text words, first character in the lowest byte
_POW5 = np.array([5 ** t for t in range(28)], dtype=np.uint64)   # 5^27 < 2^63
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_TWICE_POW10 = np.array([2, 20, 200, 2000, 2000], dtype=np.uint16)   # 2 10^min(fits, 3)
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
_DECADE_END = np.array([float("1e%d" % k) for k in range(-11, 2)])   # 10^(k+1) at k + 12


def _shortest(mant: np.ndarray, t: np.ndarray, sh: np.ndarray):
    """Shortest round-trip digits of x = mant 2^E, given t and sh = -(E + t) >= 1
    with y = x 10^t = mant 5^t / 2^sh in [1e16, 1e17).

    Returns (digits, length, ok): digits holds the `length` (14 to 17) digits
    followed by zeros, as a 17-digit integer.  ok is false where t was one off (y
    outside [1e16, 1e17)) or the shortest form has 13 digits or fewer.  Every
    operand is an integer, so numpy never promotes to float64."""
    p5 = _POW5.take(t)
    # y's 128-bit numerator mant 5^t from four 32-bit partial products
    m0, m1 = mant & _LOW32, mant >> _32
    p0, p1 = p5 & _LOW32, p5 >> _32
    low = m0 * p0
    mid = m0 * p1 + m1 * p0            # < 2^63 + 2^53
    lo = low + (mid << _32)
    hi = m1 * p1 + (mid >> _32) + (lo < low)
    s64 = _U64(64) - sh
    q = (hi << s64) | (lo >> sh)                             # floor(y)
    frac = lo << s64                                         # y - q, in units of 2^-64
    r = (frac >> s64).view(_I64)                             # y - q, in units of 2^-sh
    # a candidate q + delta lies within half an ulp, 5^t / 2^(sh+1), of y iff
    # -down <= delta <= up; 5^t is odd, so it never lies exactly half an ulp away
    a_half, shi = (p5 >> _ONE).view(_I64), sh.view(_I64)
    up, down = (a_half + r) >> shi, (a_half - r) >> shi
    # a multiple of 10^j lies in [q - down, q + up] iff (q + up) mod 10^j <= up + down
    # (0..22, the ulp being 1.1..22.2): q's four low digits suffice, in uint16
    high = q // _POW10[4]
    low4 = (q - high * _POW10[4]).astype(_U16)
    top, span = low4 + up.astype(_U16), (up + down).astype(_U16)
    fits = sum((top - top // p * p <= span).view(_U8) for p in _POW10[1:5].astype(_U16))
    # y rounded half-even to 10^min(fits, 3), from 2 (y mod 10^4) floored and a sticky bit
    step = _TWICE_POW10.take(fits)
    twice = low4 * _U16(2) + (frac >> _U64(63)).astype(_U16)
    c = twice // step
    rounds_up = twice - c * step + ((c & _U16(1)) | (frac << _ONE != _ZERO)) > step >> _U16(1)
    digits = high * _POW10[4] + ((c + rounds_up) * (step >> _U16(1))).astype(_U64)
    return digits, _U8(17) - fits, (fits < 4) & (high - _POW10[12] < _U64(9 * 10 ** 12))


@functools.cache
def _ascii4() -> np.ndarray:
    """Words of the 4 digits of each v < 10^4, 80 KB built on first use: not at import."""
    two = np.array([_chars(b"%02d" % v) for v in range(100)], dtype=np.uint64)
    return (two[:, None] | (two << _U64(16))).ravel()


def _ascii8(v: np.ndarray) -> np.ndarray:
    """Words of the 8 decimal digits of v < 10^8, most significant in the lowest byte."""
    high = v // _POW10[4]
    low = _ascii4().take((v - high * _POW10[4]).view(_I64))
    return _ascii4().take(high.view(_I64)) | (low << _32)


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
    bits = a.view(_U64)
    mant = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    b = (bits >> _U64(52)).view(_I64)
    k = (b - 1023) * 78913 >> 18          # floor(log10 2^(b-1023)), as in Ryu
    k += a >= _DECADE_END.take(k + 12)    # x's decimal exponent, -11..0
    digits, length, ok = _shortest(mant, 16 - k, (1059 + k - b).view(_U64))   # sh is 33..62
    slow = np.flatnonzero(~(fast & ok & (mant != _U64(1 << 52))))
    text = _str_words(x[slow].tolist(), sep, 4 if k.min() < -4 else 3)
    words = np.zeros((len(x), text.shape[1]), _U64)
    j = -k
    first = digits // _POW10[16]
    words[:, 0] = (((first + _CHAR0) << _FIRST_AT.take(j)) | (_PREFIX.take(j) | _U64(sep))
                   | ((x < 0) * _MINUS_BYTE1))
    rest = digits - first * _POW10[16]
    top = rest // _POW10[8]
    words[:, 1] = _ascii8(top)
    words[:, 2] = _ascii8(rest - top * _POW10[8]) & _BELOW.take(length - _U8(9))
    if words.shape[1] > 3:
        words[:, 3] = _EXPONENT.take(j)
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
