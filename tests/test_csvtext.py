import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmaj import csvtext
from polmaj.cli import _CSV_BLOCK, _write

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


@settings(max_examples=100, deadline=None)
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


@pytest.mark.parametrize("cells", [
    ties(0),
    ties(1),
    [x * 10.0 ** k for k in range(-12, 2)
     for x in np.random.default_rng(k + 20).uniform(1.0, 10.0, 2000).tolist()],
    shifted([10.0 ** k for k in range(-13, 18)], range(-3, 4)),
    shifted(EDGES, range(-3, 4)),
    [math.ldexp(1.0, e) for e in range(-1074, 1024)],
    [math.ldexp(1.0 + 2.0 ** -52, e) for e in range(-1022, 1024)],
], ids=["ties-between-candidates", "ties-at-17-digits", "each-decade", "powers-of-ten", "edges", "powers-of-two", "after-powers-of-two"])
def test_special_cells(cells):
    column = np.array(cells + [-x for x in cells])
    assert write_and_read((column,), ["x"]) == csv_text(["x=1"], ["x"], rows_of((column,)))


def test_most_lorenz_cells_take_the_fast_path():
    # the str() fallback is for the ~1 % of cells with short forms, not the rule
    s = np.cumsum(np.sort(np.random.default_rng(5).dirichlet(np.ones(_CSV_BLOCK)))[::-1])
    a = np.abs(s)
    m, e = np.frexp(a)
    t = 16 - np.floor(np.log10(a)).astype(np.int64)
    _, _, ok = csvtext._shortest((m * 2.0 ** 53).astype(np.uint64), t,
                                 (53 - e - t).astype(np.uint64))
    assert ok.mean() > 0.97


class Checked(np.ndarray):
    """An array whose every ufunc result must be an integer or bool array."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def base(x):
            return x.view(np.ndarray) if isinstance(x, Checked) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(base, kwargs["out"]))
        result = getattr(ufunc, method)(*map(base, inputs), **kwargs)
        for r in result if isinstance(result, tuple) else (result,):
            assert np.asarray(r).dtype.kind in "biu", f"{ufunc.__name__} gave {np.asarray(r).dtype}"
        if isinstance(result, tuple):
            return tuple(r.view(Checked) if isinstance(r, np.ndarray) else r for r in result)
        return result.view(Checked) if isinstance(result, np.ndarray) else result


def test_no_kernel_intermediate_is_float64():
    # numpy < 2 promotes uint64 with int64 to float64, which would lose digits;
    # every ufunc the integer kernel applies must give an integer or bool array
    rng = np.random.default_rng(1)
    a = np.concatenate([rng.uniform(1e-11, 10.0, 500), rng.uniform(0.0, 1.0, 500) ** 9])
    m, e = np.frexp(a)
    t = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 16, 27)
    mant, sh = (m * 2.0 ** 53).astype(np.uint64), (53 - e - t).astype(np.uint64)
    digits, length, ok = csvtext._shortest(mant.view(Checked), t.view(Checked), sh.view(Checked))
    assert ok.sum() > 900
    csvtext._ascii8(digits.view(Checked) // np.uint64(10 ** 9))
    csvtext._int_words(rng.integers(0, 2 ** 40, 100).view(Checked), ord(","))
