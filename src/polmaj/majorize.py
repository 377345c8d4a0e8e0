"""Lorenz curves and the majorization partial order on pixel distributions.

p majorizes q when every ordered partial sum (Lorenz curve value) of p dominates
that of q.  Verdicts carry a tolerance: curve differences within +-tol count as
ties, so that distributions equal up to discretization scatter compare as Equal
and genuine crossings are reported as Incomparable with witness indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .sphere_grid import DiscreteDistribution

# Default absolute tolerance on cumulative sums.  Calibrated so it sits well above
# the discretization scatter of the default 400x400 grid (rotation-equivalent
# states agree to ~1e-5; far-tail curve crossings between near-comparable states
# reach ~3e-5) and well below the smallest genuine curve separation among the
# built-in state comparisons (~1.6e-2).
DEFAULT_TOL = 1e-3


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


@dataclass(frozen=True)
class LorenzCurve:
    """Ordered partial sums S_k, k = 1..N: cumulative sums of p sorted descending."""

    s: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("S_k must be a nonempty 1-d array")
        inc = np.diff(np.concatenate(([0.0], s)))
        if np.any(inc < 0):
            raise ValueError("S_k must be nondecreasing")
        if np.any(np.diff(inc) > 1e-12):
            raise ValueError("S_k increments must be nonincreasing (source sorted descending)")
        if abs(s[-1] - 1.0) > 1e-12:
            raise ValueError(f"S_N must equal 1, got {s[-1]!r}")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.s.size


def _descending_cumsum(p: np.ndarray) -> np.ndarray:
    """Partial sums of p sorted in decreasing order, scaled so the last one is 1.

    The sorted values do not depend on how ties are broken.  Pinning the endpoint
    removes the drift of a long sequential sum, which on a million pixels exceeds
    the 1e-12 that LorenzCurve allows S_N.
    """
    s = np.cumsum(np.sort(p)[::-1])
    s /= s[-1]
    return s


def lorenz(dist: DiscreteDistribution) -> LorenzCurve:
    """Sort pixel probabilities in decreasing order and accumulate."""
    return LorenzCurve(s=_descending_cumsum(dist.p))


def compare(a: LorenzCurve, b: LorenzCurve, tol: float = DEFAULT_TOL) -> Verdict:
    """Four-valued majorization verdict between curves on a common grid.

    Equal    : |S_k(a) - S_k(b)| <= tol for all k.
    Majorizes: S_k(a) >= S_k(b) - tol for all k, exceeding +tol somewhere.
    MajorizedBy is the mirror image; otherwise Incomparable, with the indices of
    the strongest violation on each side as witnesses.
    """
    if a.n != b.n:
        raise ValueError(f"curve length mismatch: {a.n} vs {b.n} (distributions must share a grid)")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    d = a.s - b.s
    up = float(d.max())
    dn = float(d.min())
    if up <= tol and -dn <= tol:
        return Verdict(Relation.EQUAL)
    if dn >= -tol:
        return Verdict(Relation.MAJORIZES)
    if up <= tol:
        return Verdict(Relation.MAJORIZED_BY)
    return Verdict(Relation.INCOMPARABLE, witnesses=(int(d.argmax()) + 1, int(d.argmin()) + 1))


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


@dataclass(frozen=True)
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

    def verdict(self, name_a: str, name_b: str) -> Verdict:
        return self.matrix[self.names.index(name_a)][self.names.index(name_b)]


def _equal_groups(names: list[str], matrix: list[list[Verdict]]) -> list[list[int]]:
    n = len(names)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j].relation is Relation.EQUAL:
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # keep input order of first members
    return sorted(groups.values(), key=lambda g: g[0])


def partial_order(items: Sequence[tuple[str, DiscreteDistribution]],
                  tol: float = DEFAULT_TOL) -> PartialOrderResult:
    """Compare every pair of named distributions and lay out the partial order.

    All distributions must share one grid.  Equal items are merged into groups;
    groups are layered by longest majorization chain below them, which reproduces
    presentations like "H < S >< N < P < C".  Inconsistencies (failed
    transitivity, Equal items relating differently to a third, comparable items
    forced into one layer, cycles) are reported in `violations`, not raised.
    """
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("item names must be unique")
    sizes = {dist.n_pixels for _, dist in items}
    if len(sizes) > 1:
        raise ValueError(f"distributions live on different grids: sizes {sorted(sizes)}")
    curves = [lorenz(dist) for _, dist in items]
    n = len(items)
    matrix = [[compare(curves[i], curves[j], tol) for j in range(n)] for i in range(n)]
    violations: list[str] = []

    for i in range(n):
        for j in range(i + 1, n):
            if matrix[j][i].relation is not matrix[i][j].flipped().relation:
                violations.append(f"antisymmetry: {names[i]} vs {names[j]} disagree across the diagonal")

    rel = [[matrix[i][j].relation for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (rel[i][j] is Relation.MAJORIZES and rel[j][k] is Relation.MAJORIZES
                        and rel[i][k] is not Relation.MAJORIZES):
                    violations.append(
                        f"transitivity: {names[i]} majorizes {names[j]} majorizes {names[k]}, "
                        f"but {names[i]} vs {names[k]} is {rel[i][k].value}")

    groups = _equal_groups(names, matrix)
    ngroups = len(groups)
    grel: list[list[Relation]] = [[Relation.EQUAL] * ngroups for _ in range(ngroups)]
    for a in range(ngroups):
        for b in range(ngroups):
            if a == b:
                continue
            seen = {rel[i][j] for i in groups[a] for j in groups[b]}
            if len(seen) > 1:
                violations.append(
                    f"equal-group consistency: members of {{{','.join(names[i] for i in groups[a])}}} "
                    f"relate differently to {{{','.join(names[j] for j in groups[b])}}}")
            grel[a][b] = rel[groups[a][0]][groups[b][0]]

    # longest-chain depth over the "majorizes" DAG, with cycle protection
    depth = [None] * ngroups

    def depth_of(a, stack):
        if depth[a] is not None:
            return depth[a]
        if a in stack:
            violations.append("cycle detected in majorization relations")
            return 0
        stack.add(a)
        below = [depth_of(b, stack) for b in range(ngroups) if grel[a][b] is Relation.MAJORIZES]
        stack.discard(a)
        depth[a] = 1 + max(below) if below else 0
        return depth[a]

    for a in range(ngroups):
        depth_of(a, set())

    layers: list[list[tuple[str, ...]]] = []
    for d in sorted(set(depth)):
        layer = [tuple(names[i] for i in groups[a]) for a in range(ngroups) if depth[a] == d]
        for x in range(len(layer)):
            for y in range(x + 1, len(layer)):
                a = names.index(layer[x][0])
                b = names.index(layer[y][0])
                if rel[a][b] is not Relation.INCOMPARABLE:
                    violations.append(
                        f"layering: {layer[x][0]} and {layer[y][0]} share a layer but are not incomparable")
        layers.append(layer)

    result_layers = tuple(tuple(layer) for layer in layers)
    return PartialOrderResult(
        names=tuple(names),
        matrix=tuple(tuple(row) for row in matrix),
        layers=result_layers,
        chain=render_chain(result_layers),
        violations=tuple(violations),
        curves=tuple(curves),
    )


def t_transform(dist: DiscreteDistribution, i: int, j: int, lam: float) -> DiscreteDistribution:
    """Mix components i and j (0-based): (p_i, p_j) -> ((1-l) p_i + l p_j, l p_i + (1-l) p_j).

    The result is majorized by the input for any l in [0, 1].
    """
    n = dist.n_pixels
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices out of range for {n} pixels: ({i}, {j})")
    if i == j:
        raise ValueError("t_transform needs two distinct indices")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    p = dist.p.copy()
    pi, pj = p[i], p[j]
    p[i] = (1.0 - lam) * pi + lam * pj
    p[j] = lam * pi + (1.0 - lam) * pj
    return DiscreteDistribution(p=p, raw_mass=dist.raw_mass)


def permutation_mix(dist: DiscreteDistribution,
                    perms: Sequence[np.ndarray],
                    weights: Sequence[float]) -> DiscreteDistribution:
    """Weighted average of permuted copies: p~ = sum_j w_j p[perm_j].

    Every convex permutation mixture is majorized by the input.
    """
    n = dist.n_pixels
    w = np.asarray(weights, dtype=float)
    if len(perms) != w.size:
        raise ValueError("need one weight per permutation")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    out = np.zeros(n)
    for perm, wj in zip(perms, w):
        perm = np.asarray(perm)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm!r}")
        out += wj * dist.p[perm]
    return DiscreteDistribution(p=out, raw_mass=dist.raw_mass)
