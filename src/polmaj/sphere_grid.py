"""Equal-area pixelization of the Poincare sphere.

The sphere is cut into N = n_theta * n_phi pixels by splitting cos(theta) and phi
into intervals of equal length, so every pixel subtends exactly 4 pi / N of solid
angle.  Pixel centers are theta_l = arccos((2l-1)/n_theta - 1), l = 1..n_theta, and
phi_k = 2 pi k / n_phi - pi, k = 1..n_phi, flattened as j = n_phi (l-1) + k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qfunction import PolState, q_on_grid


class EvaluationError(ValueError):
    """Pixel weights (Q on the grid) that are non-finite, negative or all zero."""


def owned_read_only(a) -> np.ndarray:
    """a as a float array that nobody can write: a itself when it and the array
    that owns its data are already read-only, otherwise a read-only copy."""
    a = np.asarray(a, dtype=float)
    owner = a if a.base is None else a.base
    if a.flags.writeable or not isinstance(owner, np.ndarray) or owner.flags.writeable:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec:
    """Pixelization parameters: n_theta cos-theta bands times n_phi azimuth sectors."""

    n_theta: int
    n_phi: int

    def __post_init__(self):
        for name in ("n_theta", "n_phi"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v)
                    or v < 1 or v != int(v)):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n_theta * self.n_phi < 2:
            raise ValueError("grid needs at least 2 pixels")

    @property
    def n_pixels(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def pixel_solid_angle(self) -> float:
        return 4.0 * np.pi / self.n_pixels


DEFAULT_GRID = GridSpec(400, 400)


def _check_repeat(repeat) -> int:
    if isinstance(repeat, bool) or not isinstance(repeat, numbers.Integral) or repeat < 1:
        raise ValueError(f"repeat must be a positive integer, got {repeat!r}")
    return int(repeat)


def _normalize(w: np.ndarray, repeat: int) -> float:
    """Divide the float weights w, each standing for `repeat` pixels, by their total
    in place and make w read-only; return the total.  Raises EvaluationError for
    the weights that `DiscreteDistribution.from_weights` refuses."""
    if w.size and not (w.min() >= 0.0 and w.max() < math.inf):
        raise EvaluationError("pixel weights must be finite and >= 0")
    with np.errstate(over="ignore"):  # an infinite total is reported just below
        total = float(w.sum()) * repeat
    if not 0.0 < total < math.inf:
        raise EvaluationError("pixel weights vanish everywhere" if total <= 0.0
                              else "pixel weights sum beyond the float range")
    w /= total
    w.flags.writeable = False
    return total


# eq=False: it holds arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Pixel probabilities (unit sum) plus the pre-normalization mass diagnostic.

    Pixel j (1-based) has probability values[(j - 1) // repeat].  A phi-independent
    state stores one value per band with repeat = n_phi, which is the band-major
    pixel order j = n_phi (l-1) + k; any other distribution has repeat 1.
    """

    values: np.ndarray
    raw_mass: float = 1.0
    repeat: int = 1

    def __post_init__(self):
        repeat = _check_repeat(self.repeat)
        values = owned_read_only(self.values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        if not (values.min() >= 0.0 and values.max() < math.inf):
            raise ValueError("pixel probabilities must be finite and >= 0")
        total = float(values.sum()) * repeat
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pixel probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "raw_mass", float(self.raw_mass))
        object.__setattr__(self, "repeat", repeat)

    @classmethod
    def from_weights(cls, weights, repeat: int = 1) -> "DiscreteDistribution":
        """Normalize nonnegative weights, each standing for `repeat` pixels, to unit
        sum, keeping their total as raw_mass.  Non-finite, negative or all-zero
        weights, or weights whose total overflows, raise EvaluationError; a repeat
        that is not a positive integer raises a plain ValueError first."""
        repeat = _check_repeat(repeat)
        w = np.array(weights, dtype=float)  # a copy: the caller's array is never written
        return cls(values=w, raw_mass=_normalize(w, repeat), repeat=repeat)

    @property
    def n_pixels(self) -> int:
        return self.values.size * self.repeat

    @cached_property
    def p(self) -> np.ndarray:
        """All n_pixels probabilities, read-only: `values` itself when repeat is 1,
        otherwise built on first read."""
        if self.repeat == 1:
            return self.values
        p = np.repeat(self.values, self.repeat)
        p.flags.writeable = False
        return p

    @property
    def holds_descending_cumsum(self) -> bool:
        """Whether `descending_cumsum` is built already; once built it is kept."""
        return "descending_cumsum" in self.__dict__

    @cached_property
    def descending_cumsum(self) -> np.ndarray:
        """S_k: p sorted in decreasing order and accumulated, read-only, ending at
        exactly 1.  Sorted once, on first use, and over `values` alone.

        A repeated distribution is filled from its runs by `run_partial_sums`; every
        S_k is within a few ulp of the exact sum, where a sequential sum over N
        pixels drifts by ~1e-12 at N = 1200^2.
        """
        if self.repeat == 1:
            # -p sorted ascending is p sorted descending, negated exactly, so S is
            # built in one N-sized array: the negated sums divide to S_k bit for bit
            s = np.negative(self.values)
            s.sort()
            np.cumsum(s, out=s)
            s /= s[-1]
        else:
            s = run_partial_sums(*sorted_runs(self.values, self.repeat), self.repeat)
        s.flags.writeable = False
        return s


def sorted_runs(values: np.ndarray, repeat: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of the curve of a distribution whose every value stands for `repeat`
    pixels: desc, the values sorted in decreasing order, and the run ends
    E = cumsum(desc * repeat), the unnormalized partial sum at the last pixel of each
    run."""
    desc = np.sort(values)[::-1]
    return desc, np.cumsum(desc * repeat)


def run_partial_sums(desc: np.ndarray, ends: np.ndarray, repeat: int,
                     runs=slice(None)) -> np.ndarray:
    """S_k over the whole runs `runs` (a slice, or an ascending array of run indices) of
    the curve with runs (desc, ends) from `sorted_runs`, run after run in a fresh
    array: pixel i = 1..repeat of run j has S = (E[j-1] + i * desc[j]) / E[-1].

    The last pixel of run j is E[j] / E[-1] bit for bit, so the curve is nondecreasing,
    S_N = 1 exactly, and a check of the run ends checks the n_theta values E / E[-1].
    The one formula for every S_k of a repeated distribution: its dense curve and
    every window read from its run curve come from here."""
    s = desc[runs, None] * np.arange(1, repeat + 1, dtype=float)
    s += np.concatenate(([0.0], ends[:-1]))[runs, None]
    # divided out of the scratch into a fresh array: filling the dense curve in place,
    # with no scratch, raised perfbench fine-grid's peak RSS by 14 %
    return s.ravel() / ends[-1]


def band_thetas(spec: GridSpec) -> np.ndarray:
    """Band-center polar angles theta_l, l = 1..n_theta (midpoints in cos theta)."""
    ell = np.arange(1, spec.n_theta + 1)
    return np.arccos((2.0 * ell - 1.0) / spec.n_theta - 1.0)


def sector_phis(spec: GridSpec) -> np.ndarray:
    """Sector azimuths phi_k = 2 pi k / n_phi - pi, k = 1..n_phi."""
    k = np.arange(1, spec.n_phi + 1)
    return 2.0 * np.pi * k / spec.n_phi - np.pi


def discretize_state(obj: PolState, spec: GridSpec) -> DiscreteDistribution:
    """Q sampled at the pixel centers, weighted by 4 pi / N and renormalized to unit
    sum; raw_mass keeps the total before normalization as a sampling diagnostic.
    A phi-independent Q comes back on one sector and is repeated over all n_phi."""
    q = q_on_grid(obj, band_thetas(spec), sector_phis(spec))
    repeat = spec.n_phi if q.shape[1] == 1 else 1
    q *= spec.pixel_solid_angle     # weighted and normalized in Q's own buffer, which
    total = _normalize(q, repeat)   # the distribution keeps: no N-sized copy
    return DiscreteDistribution(values=q.ravel(), raw_mass=total, repeat=repeat)
