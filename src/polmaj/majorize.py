"""Lorenz curves and the majorization partial order on pixel distributions.

p majorizes q when every ordered partial sum (Lorenz curve value) of p dominates
that of q.  Verdicts carry a tolerance: curve differences within +-tol count as
ties, so that distributions equal up to discretization scatter compare as Equal
and genuine crossings are reported as Incomparable with witness indices.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .sphere_grid import DiscreteDistribution, owned_read_only, run_partial_sums, sorted_runs

# Default absolute tolerance on cumulative sums.  Calibrated so it sits well above
# the discretization scatter of the default 400x400 grid (rotation-equivalent
# states agree to ~1e-5; far-tail curve crossings between near-comparable states
# reach ~3e-5) and well below the smallest genuine curve separation among the
# built-in state comparisons (~1.6e-2).
DEFAULT_TOL = 1e-3

# LorenzCurve checks S_k, and compare differences two curves, in windows of this
# many values, so their temporaries stay in cache whatever N is.
_BLOCK = 1 << 15


class Relation(Enum):
    EQUAL = "equal"
    MAJORIZES = "majorizes"
    MAJORIZED_BY = "majorized_by"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing curve a against curve b.

    For Incomparable verdicts, `witnesses` holds 1-based indices (k_a, k_b) where
    a's curve exceeds b's beyond tolerance and vice versa (strongest violations).
    """

    relation: Relation
    witnesses: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.relation is Relation.INCOMPARABLE and self.witnesses is None:
            raise ValueError("Incomparable verdicts must carry witness indices")

    def flipped(self) -> "Verdict":
        """The same comparison seen from b's side."""
        if self.relation is Relation.MAJORIZES:
            return Verdict(Relation.MAJORIZED_BY)
        if self.relation is Relation.MAJORIZED_BY:
            return Verdict(Relation.MAJORIZES)
        if self.witnesses is not None:
            return Verdict(self.relation, (self.witnesses[1], self.witnesses[0]))
        return self


def _check_run_ends(ends: np.ndarray) -> None:
    """Raise ValueError unless S at the run ends is nondecreasing from S_0 = 0, concave
    and ends on 1.  Increments and their differences are taken in one pass over
    cache-sized windows that overlap by two values, so each difference is taken once;
    every test is written so that NaN fails it, and the messages keep their
    whole-curve order."""
    concave = True
    with np.errstate(invalid="ignore", over="ignore"):
        if not ends[0] >= 0.0:                   # the first increment, S_run - S_0
            raise ValueError("S_k must be nondecreasing")
        if ends.size > 1:
            concave = (ends[1] - ends[0]) - ends[0] <= 1e-12
        for start in range(0, ends.size - 1, _BLOCK):
            inc = np.diff(ends[start:start + _BLOCK + 2])
            if not inc.min() >= 0.0:
                raise ValueError("S_k must be nondecreasing")
            if concave and inc.size > 1:
                concave = np.diff(inc).max() <= 1e-12
    if not concave:
        raise ValueError("S_k increments must be nonincreasing (source sorted descending)")
    if not abs(ends[-1] - 1.0) <= 1e-12:
        raise ValueError(f"S_N must equal 1, got {ends[-1]!r}")


# eq=False: it holds arrays, so it compares and hashes by identity.  init=False: the
# two forms are built by __init__ (dense) and _from_runs (runs)
@dataclass(frozen=True, eq=False, init=False)
class LorenzCurve:
    """Ordered partial sums S_k, k = 1..N: cumulative sums of p sorted descending.

    A dense curve, `LorenzCurve(s, run)`, holds every S_k.  `run` says that S is
    linear over each run of `run` consecutive k; only the run ends S_run, S_2run,
    ..., S_N are checked then.  With the default run = 1 every S_k is checked.

    A run curve, which `lorenz` builds from a repeated distribution that has not
    built its dense partial sums, holds only the sorted band values and the run
    ends (see `sphere_grid.run_partial_sums`), 2 N / run floats.  Read S_k by
    window: `curve[start:stop]` is a view of a dense curve and a fresh array for a
    run curve, and `curve.s` builds a fresh read-only array of all N values on each
    access of a run curve.
    """

    run: int
    n: int
    _s: Optional[np.ndarray]                          # a dense curve's S_k
    _runs: Optional[tuple[np.ndarray, np.ndarray]]    # a run curve's (desc, ends)

    def __init__(self, s, run: int = 1):
        s = owned_read_only(s)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("S_k must be a nonempty 1-d array")
        if (isinstance(run, bool) or not isinstance(run, numbers.Integral) or run < 1
                or s.size % run):
            raise ValueError(f"run must be a positive integer dividing N = {s.size}, got {run!r}")
        _check_run_ends(s[run - 1::run])
        self.__dict__.update(run=int(run), n=s.size, _s=s, _runs=None)

    @classmethod
    def _from_runs(cls, desc: np.ndarray, ends: np.ndarray, run: int) -> "LorenzCurve":
        """The run curve of `sorted_runs` output, checked at its n_theta run ends."""
        _check_run_ends(ends / ends[-1])
        for a in (desc, ends):
            a.flags.writeable = False
        curve = object.__new__(cls)
        curve.__dict__.update(run=run, n=desc.size * run, _s=None, _runs=(desc, ends))
        return curve

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, window: slice) -> np.ndarray:
        """S_k for the 0-based k in a slice with step 1."""
        if not isinstance(window, slice) or window.step not in (None, 1):
            raise TypeError("a Lorenz curve is read by slices with step 1")
        start, stop, _ = window.indices(self.n)
        stop = max(start, stop)
        if self._runs is None:
            return self._s[start:stop]
        j0, j1 = start // self.run, -(-stop // self.run)
        s = run_partial_sums(*self._runs, self.run, slice(j0, j1))
        return s[start - j0 * self.run:stop - j0 * self.run]

    @property
    def s(self) -> np.ndarray:
        """All N values S_k, read-only; a run curve builds them afresh on each access."""
        if self._runs is None:
            return self._s
        s = run_partial_sums(*self._runs, self.run)
        s.flags.writeable = False
        return s

    def _run_ends(self, run: int) -> Optional[np.ndarray]:
        """S at the ends of runs of `run` pixels, when S is known to be nondecreasing
        inside each such run: a run curve's own runs, or every run of a dense curve
        whose every S_k is checked.  None otherwise."""
        if self._runs is not None:
            return self._runs[1] / self._runs[1][-1] if run == self.run else None
        return self._s[run - 1::run] if self.run == 1 else None

    def _run_values(self, runs: np.ndarray, run: int) -> np.ndarray:
        """S over the whole runs of `run` pixels with the ascending indices `runs`,
        one row per run, in a fresh array."""
        if self._runs is not None:
            return run_partial_sums(*self._runs, run, runs).reshape(runs.size, run)
        return self._s.reshape(-1, run)[runs]


def lorenz(dist: DiscreteDistribution) -> LorenzCurve:
    """The curve of dist, checked at its run ends.  A repeated distribution gives a run
    curve over its n_theta sorted values, unless it already holds its dense partial
    sums (built for `confidence_interval`); then, as with repeat 1, a dense curve
    shares them, so each distribution sorts once."""
    # a run curve there would let the distribution's N-sized array be freed with it
    # and rebuilt on every read of .s: perfbench fine-grid, which reads K(alpha)
    # before the curve, lost 6 % of its throughput to that in paired runs
    if dist.repeat == 1 or dist.holds_descending_cumsum:
        return LorenzCurve(s=dist.descending_cumsum, run=dist.repeat)
    return LorenzCurve._from_runs(*sorted_runs(dist.values, dist.repeat), dist.repeat)


def _check_tol(tol: float) -> None:
    if isinstance(tol, (bool, np.bool_)) or not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _differences(a: LorenzCurve, b: LorenzCurve):
    """S(a) - S(b) in index order, in chunks of at most _BLOCK values, each as
    (d, firsts, width): row r of d holds `width` consecutive values from 0-based
    k = firsts[r] on (a window is one row).

    When one curve is a run curve and the other is nondecreasing inside each of its
    runs, only the runs that can hold an extreme are read: with A_j and B_j the curves
    at the end of run j (A_-1 = B_-1 = 0), every d_k of run j lies in
    [A_{j-1} - B_j, A_j - B_{j-1}], rounding included, so a run whose upper bound stays
    below the largest run-end difference cannot hold the maximum, nor can one whose
    lower bound stays above the smallest hold the minimum.  Otherwise every window is
    read."""
    run = max(a.run, b.run)
    ends_a, ends_b = a._run_ends(run), b._run_ends(run)
    if run == 1 or ends_a is None or ends_b is None:
        for start in range(0, a.n, _BLOCK):
            yield a[start:start + _BLOCK] - b[start:start + _BLOCK], (start,), _BLOCK
        return
    at_ends = ends_a - ends_b
    ends_a, ends_b = np.concatenate(([0.0], ends_a)), np.concatenate(([0.0], ends_b))
    hi, lo = ends_a[1:] - ends_b[:-1], ends_a[:-1] - ends_b[1:]
    candidates = np.flatnonzero((hi >= at_ends.max()) | (lo <= at_ends.min()))
    step = max(1, _BLOCK // run)
    for start in range(0, candidates.size, step):
        runs = candidates[start:start + step]
        d = a._run_values(runs, run)            # a fresh array either way
        d -= b._run_values(runs, run)
        yield d, runs * run, run


def compare(a: LorenzCurve, b: LorenzCurve, tol: float = DEFAULT_TOL) -> Verdict:
    """Four-valued majorization verdict between curves on a common grid.

    Equal    : |S_k(a) - S_k(b)| <= tol for all k.
    Majorizes: S_k(a) >= S_k(b) - tol for all k, exceeding +tol somewhere.
    MajorizedBy is the mirror image; otherwise Incomparable, with the indices of
    the strongest violation on each side (the first-occurrence argmax and argmin of
    S(a) - S(b)) as witnesses.
    """
    if a.n != b.n:
        raise ValueError(f"curve length mismatch: {a.n} vs {b.n} (distributions must share a grid)")
    _check_tol(tol)
    # a chunk's extreme replaces the running one only when strictly beyond it, so the
    # witnesses are the first-occurrence argmax and argmin of the whole difference
    up, dn, k_up, k_dn = -np.inf, np.inf, 0, 0
    for d, firsts, width in _differences(a, b):
        i, j = int(d.argmax()), int(d.argmin())
        if d.flat[i] > up:
            up, k_up = float(d.flat[i]), int(firsts[i // width]) + i % width
        if d.flat[j] < dn:
            dn, k_dn = float(d.flat[j]), int(firsts[j // width]) + j % width
        del d                           # freed before the next chunk is read
    if up <= tol and -dn <= tol:
        return Verdict(Relation.EQUAL)
    if dn >= -tol:
        return Verdict(Relation.MAJORIZES)
    if up <= tol:
        return Verdict(Relation.MAJORIZED_BY)
    return Verdict(Relation.INCOMPARABLE, witnesses=(k_up + 1, k_dn + 1))


GLYPHS_UNICODE = {"prec": "≺", "join": "⋈", "equal": "≡"}
GLYPHS_ASCII = {"prec": "<", "join": "><", "equal": "=="}


def render_chain(layers: Sequence[Sequence[Sequence[str]]], ascii_glyphs: bool = False) -> str:
    """Chain string from majorization layers, most-majorized first.

    `layers` is a list of layers; each layer is a list of equal-groups; each group
    is a list of names.  Names inside a group are joined by the equality glyph,
    groups inside a layer by the incomparability glyph, layers by the
    majorization glyph.
    """
    g = GLYPHS_ASCII if ascii_glyphs else GLYPHS_UNICODE
    layer_strs = []
    for layer in layers:
        groups = [g["equal"].join(group) for group in layer]
        layer_strs.append(f" {g['join']} ".join(groups))
    return f" {g['prec']} ".join(layer_strs)


# eq=False: its curves hold arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class PartialOrderResult:
    """Pairwise verdicts plus a layered chain rendering of the partial order.

    matrix[i][j] relates item i to item j (Majorizes meaning i majorizes j).
    `curves` holds the Lorenz curves the verdicts were read from, in item order.
    `violations` lists any transitivity or consistency defects found; an empty
    list means the verdicts form a clean layered order.
    """

    names: tuple[str, ...]
    matrix: tuple[tuple[Verdict, ...], ...]
    layers: tuple[tuple[tuple[str, ...], ...], ...]
    chain: str
    violations: tuple[str, ...]
    curves: tuple[LorenzCurve, ...]


def partial_order(items: Iterable[tuple[str, DiscreteDistribution]],
                  tol: float = DEFAULT_TOL) -> PartialOrderResult:
    """Compare each pair of named distributions once and lay out the partial order.

    `items` is read once, in order, and only each distribution's curve is kept, so a
    generator of distributions holds one of them alive at a time.
    All distributions must share one grid.  Equal items are merged into groups;
    groups are layered by longest majorization chain below them, which reproduces
    presentations like "H < S >< N < P < C".  Inconsistencies (failed
    transitivity, Equal items relating differently to a third, cycles) are
    reported in `violations`, not raised; groups on or above a cycle share the
    top layer.
    """
    _check_tol(tol)
    names: list[str] = []
    curves: list[LorenzCurve] = []
    for name, dist in items:
        names.append(name)
        curves.append(lorenz(dist))
        del dist                    # freed before the next item is built
    if len(set(names)) != len(names):
        raise ValueError("item names must be unique")
    sizes = {c.n for c in curves}
    if len(sizes) > 1:
        raise ValueError(f"distributions live on different grids: sizes {sorted(sizes)}")
    n = len(names)
    # each unordered pair is compared once; compare(b, a) is exactly compare(a, b).flipped()
    matrix = [[Verdict(Relation.EQUAL)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = compare(curves[i], curves[j], tol)
            matrix[j][i] = matrix[i][j].flipped()
    violations: list[str] = []

    rel = [[matrix[i][j].relation for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (rel[i][j] is Relation.MAJORIZES and rel[j][k] is Relation.MAJORIZES
                        and rel[i][k] is not Relation.MAJORIZES):
                    violations.append(
                        f"transitivity: {names[i]} majorizes {names[j]} majorizes {names[k]}, "
                        f"but {names[i]} vs {names[k]} is {rel[i][k].value}")

    # Equal items merge into groups: n rounds label each item with the smallest
    # index it is Equal-connected to, and groups keep that member's order
    label = list(range(n))
    for _ in range(n):
        label = [min(label[j] for j in range(n) if rel[i][j] is Relation.EQUAL) for i in range(n)]
    groups = [[i for i in range(n) if label[i] == r] for r in range(n) if label[r] == r]
    # Equal is not transitive under tol: a group can hold a pair that is not Equal
    for g in groups:
        for x, i in enumerate(g):
            for j in g[x + 1:]:
                if rel[i][j] is not Relation.EQUAL:
                    violations.append(
                        f"equal-group consistency: {names[i]} and {names[j]} share a group, "
                        f"but {names[i]} vs {names[j]} is {rel[i][j].value}")
    below: list[list[int]] = [[] for _ in groups]
    for a, ga in enumerate(groups):
        for b, gb in enumerate(groups):
            if a == b:
                continue
            if len({rel[i][j] for i in ga for j in gb}) > 1:
                violations.append(
                    f"equal-group consistency: members of {{{','.join(names[i] for i in ga)}}} "
                    f"relate differently to {{{','.join(names[j] for j in gb)}}}")
            if rel[ga[0]][gb[0]] is Relation.MAJORIZES:
                below[a].append(b)

    # depth: the longest majorization chain below each group.  Acyclic relations
    # settle within len(groups) - 1 rounds; a depth still rising in the last round
    # leaves every group on or above a cycle at the top depth, len(groups).
    depth = prev = [0] * len(groups)
    for _ in groups:
        prev, depth = depth, [max((depth[b] + 1 for b in bs), default=0) for bs in below]
    if depth != prev:
        violations.append("cycle detected in majorization relations")

    layers = tuple(tuple(tuple(names[i] for i in g) for g, dg in zip(groups, depth) if dg == d)
                   for d in sorted(set(depth)))
    return PartialOrderResult(
        names=tuple(names),
        matrix=tuple(tuple(row) for row in matrix),
        layers=layers,
        chain=render_chain(layers),
        violations=tuple(violations),
        curves=tuple(curves),
    )
