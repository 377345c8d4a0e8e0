import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmaj import csvtext
from polmaj.cli import _CSV_BLOCK, FIGURES, _write

from oracles import csv_text

# the covered range's edges, and the block edges a table is cut at
EDGES = (1e-11, 1e-4, 1.0, 10.0)
ROW_COUNTS = (1, 7, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1)


def ulp_steps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


signs = st.sampled_from((1.0, -1.0))
any_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
covered = st.floats(1e-11, 10.0, exclude_max=True)
powers_of_two = st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))
near_powers_of_ten = st.builds(lambda k, steps: ulp_steps(10.0 ** k, steps),
                               st.integers(-13, 17), st.integers(-3, 3))
near_edges = st.builds(ulp_steps, st.sampled_from(EDGES), st.integers(-3, 3))
# odd / 2^j has a finite decimal expansion ending in 5: 17-digit and shorter
# rounding ties, such as 0.99999237060546875 = (2^17 - 1) / 2^17
halves = st.builds(lambda m, j: (2 * m + 1) / 2 ** j, st.integers(0, 2 ** 24), st.integers(17, 48))
special = st.sampled_from((0.0, 1.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e+308))
values = st.builds(lambda sign, x: sign * x, signs, st.one_of(
    any_bits, covered, powers_of_two, near_powers_of_ten, near_edges, halves, special,
    st.floats(width=64)))
ints = st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-10 ** 7, 10 ** 7)
digits = st.integers(0, 10 ** 14 - 1) | st.sampled_from([0, 9, 10, 10 ** 7 - 1, 10 ** 7])


def write_and_read(columns, header) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write(path, "csv", ["x=1"], header, lambda: columns, None)
        return path.read_bytes().decode("utf-8")


def rows_of(columns):
    return zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))


@settings(deadline=None)
@given(floats=st.lists(values, min_size=1, max_size=60),
       more=st.lists(values, min_size=1, max_size=60),
       whole=st.lists(ints, min_size=1, max_size=20),
       counts=st.lists(digits, min_size=1, max_size=20),
       n_rows=st.sampled_from(ROW_COUNTS))
def test_write_matches_row_oracle(floats, more, whole, counts, n_rows):
    # every cell is str(value), byte for byte, whatever the value and block edge
    columns = (range(1, n_rows + 1), np.resize(np.array(floats), n_rows),
               np.resize(np.array(whole, dtype=np.int64), n_rows),
               np.resize(np.array(more), n_rows), np.resize(np.array(counts), n_rows))
    header = ["k", "x", "i", "y", "n"]
    assert write_and_read(columns, header) == csv_text(["x=1"], header, rows_of(columns))


def shifted(xs, steps):
    return [ulp_steps(x, s) for x in xs for s in steps]


def ties(extra_bit: int) -> list:
    """odd / 2^(t + extra_bit) across the decade [10^(16-t), 10^(17-t)): y = x 10^t
    is an odd multiple of 5 (a tie between two shorter candidates when r = 0) for
    extra_bit 0, and lies half-way between two integers (a 17-digit tie) for 1."""
    cells = []
    for t in range(16, 24):
        lo, hi = 10 ** (16 - t) * 2 ** (t + extra_bit), 10 ** (17 - t) * 2 ** (t + extra_bit)
        lo = math.ceil(lo) | 1
        cells += [odd / 2 ** (t + extra_bit) for odd in range(lo, int(hi), 2 * max(1, int(hi - lo) // 400))]
    return cells


def short_forms(mantissas) -> list:
    """Every decade of the covered range, 1e-11 to 10, at each of the given digit
    strings, with its neighbours one ulp down and up (16 and 17 digits)."""
    cells = [float(f"{m}e{k}") for k in range(-11, 1) for m in mantissas]
    return cells + shifted(cells, (-1, 1))


FOURTEEN = ("1.0000000000001", "3.1415926535898", "5.0000000000005", "9.9999999999999")
THIRTEEN = ("1.000000000001", "2.718281828459", "4.999999999995", "9.999999999999")


def n_digits(x: float) -> int:
    return len(repr(abs(x)).split("e")[0].replace(".", "").lstrip("0"))


def test_short_forms_have_their_lengths():
    # the cells below reach the 14-digit vector path and the 13-digit str() fallback
    assert {n_digits(float(f"{m}e{k}")) for m in FOURTEEN for k in range(-11, 1)} == {14}
    assert {n_digits(float(f"{m}e{k}")) for m in THIRTEEN for k in range(-11, 1)} == {13}


@pytest.mark.parametrize("cells", [
    short_forms(FOURTEEN),
    short_forms(THIRTEEN),
    ties(0),
    ties(1),
    [x * 10.0 ** k for k in range(-12, 2)
     for x in np.random.default_rng(k + 20).uniform(1.0, 10.0, 2000).tolist()],
    [x * 1e-5 for x in np.random.default_rng(19).uniform(1.0, 10.0, 200).tolist()],
    shifted([10.0 ** k for k in range(-13, 18)], range(-3, 4)),
    shifted(EDGES, range(-3, 4)),
    [math.ldexp(1.0, e) for e in range(-1074, 1024)],
    [math.ldexp(1.0 + 2.0 ** -52, e) for e in range(-1022, 1024)],
], ids=["14-digits", "13-digits", "ties-between-candidates", "ties-at-17-digits", "each-decade",
        "only-the-first-exponent-decade", "powers-of-ten", "edges", "powers-of-two", "after-powers-of-two"])
def test_special_cells(cells):
    column = np.array(cells + [-x for x in cells])
    assert write_and_read((column,), ["x"]) == csv_text(["x=1"], ["x"], rows_of((column,)))


def test_seeded_cells_match_str_line_by_line():
    # 100,000 cells of five kinds, shuffled into two columns and written block by block
    rng = np.random.default_rng(22)
    n = 20_000
    kinds = [
        rng.uniform(0.0, 1.0, n),
        10.0 ** rng.uniform(-12.0, math.log10(20.0), n),
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
        (2 * rng.integers(0, 2 ** 24, n) + 1) / 2.0 ** rng.integers(17, 49, n),
        np.array([round(x, d) for x, d in zip((10.0 ** rng.uniform(-6.0, 1.0, n)).tolist(),
                                               rng.integers(12, 16, n).tolist())]),
    ]
    # either sign, set bitwise: arithmetic on a signalling NaN from raw bits would warn
    signs = rng.integers(0, 2, 5 * n, dtype=np.uint64) << np.uint64(63)
    cells = rng.permutation((np.concatenate(kinds).view(np.uint64) ^ signs).view(np.float64))
    left, right = cells[::2], cells[1::2]
    text = b"".join(csvtext.block_text([left[i:i + _CSV_BLOCK], right[i:i + _CSV_BLOCK]])
                    for i in range(0, len(left), _CSV_BLOCK))
    want = [f"{a},{b}" for a, b in zip(left.tolist(), right.tolist())]
    got = text.decode("ascii").split("\n")
    assert got.pop() == ""
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"row {i}"
    assert len(got) == len(want)


def test_most_lorenz_cells_take_the_fast_path():
    # the str() fallback is for the ~0.1 % of cells with 13 digits or fewer, not the rule
    s = np.cumsum(np.sort(np.random.default_rng(5).dirichlet(np.ones(_CSV_BLOCK)))[::-1])
    a = np.abs(s)
    m, e = np.frexp(a)
    t = 16 - np.floor(np.log10(a)).astype(np.int64)
    _, _, ok = csvtext._shortest((m * 2.0 ** 53).astype(np.uint64), t,
                                 (53 - e - t).astype(np.uint64))
    assert ok.mean() > 0.998


class Checked(np.ndarray):
    """An array whose ufuncs never turn integers into floats: every result is an integer
    or bool array unless no operand is an integer array or numpy integer."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def base(x):
            return x.view(np.ndarray) if isinstance(x, Checked) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(base, kwargs["out"]))
        result = getattr(ufunc, method)(*map(base, inputs), **kwargs)
        from_ints = any(isinstance(x, (np.ndarray, np.generic)) and x.dtype.kind in "biu"
                        for x in inputs)
        for r in result if isinstance(result, tuple) else (result,):
            kind = np.asarray(r).dtype.kind
            assert kind in "biu" or not from_ints, f"{ufunc.__name__} gave {np.asarray(r).dtype}"
        if isinstance(result, tuple):
            return tuple(r.view(Checked) if isinstance(r, np.ndarray) else r for r in result)
        return result.view(Checked) if isinstance(result, np.ndarray) else result


def test_no_kernel_intermediate_is_float64():
    # numpy < 2 promotes uint64 with int64 to float64, which would lose digits;
    # no ufunc the kernel applies may turn integers into a float array
    rng = np.random.default_rng(1)
    cells = np.concatenate([rng.uniform(1e-11, 10.0, 500), rng.uniform(0.0, 1.0, 500) ** 9,
                            short_forms(FOURTEEN)])
    a = np.abs(cells)
    m, e = np.frexp(a)
    t = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 16, 27)
    mant, sh = (m * 2.0 ** 53).astype(np.uint64), (53 - e - t).astype(np.uint64)
    digits, length, ok = csvtext._shortest(mant.view(Checked), t.view(Checked), sh.view(Checked))
    assert set(np.asarray(length)[np.asarray(ok)].tolist()) == {14, 15, 16, 17}
    # the whole column path: t and sh from the float's bits, then the words
    x = np.concatenate([cells, [0.0, -1.5, 1e-300, 2.0 ** 70, math.inf]])
    words = csvtext._float_words(x.view(Checked), ord(","))
    assert np.array_equal(words, csvtext._float_words(x, ord(",")))
    csvtext._ascii8(digits.view(Checked) // np.uint64(10 ** 9))
    csvtext._int_words(rng.integers(0, 2 ** 40, 100).view(Checked), ord(","))


@pytest.mark.parametrize("block, bound_kb", [(0, 2_200), (20, 1_700)], ids=["first", "later"])
def test_block_text_peak_memory(cache, block, bound_kb):
    # one block of fig5's k column and five curves at 400^2 peaks at 2,113 KB (the
    # first, with exponent words) and 1,634 KB (Python 3.11, numpy 2.4), when the
    # block's words, their matrix and its bytes are alive; a kernel whose temporaries
    # outgrow that meets the bound, about 4 % higher, before fig8's doubled-grid one
    curves = [cache.curve(spec) for spec in FIGURES["fig5"]]
    start = block * _CSV_BLOCK
    parts = [range(1, curves[0].n + 1)[start:start + _CSV_BLOCK],
             *(curve[start:start + _CSV_BLOCK] for curve in curves)]
    csvtext.block_text(parts)
    tracemalloc.start()
    try:
        csvtext.block_text(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_kb * 1024
