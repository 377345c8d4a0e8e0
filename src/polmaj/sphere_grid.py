"""Equal-area pixelization of the Poincare sphere.

The sphere is cut into N = n_theta * n_phi pixels by splitting cos(theta) and phi
into intervals of equal length, so every pixel subtends exactly 4 pi / N of solid
angle.  Pixel centers are theta_l = arccos((2l-1)/n_theta - 1), l = 1..n_theta, and
phi_k = 2 pi k / n_phi - pi, k = 1..n_phi, flattened as j = n_phi (l-1) + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .qfunction import Direction, PolState, q_on_grid


class EvaluationError(ValueError):
    """A Q evaluator produced a negative or non-finite value on the grid."""


@dataclass(frozen=True)
class GridSpec:
    """Pixelization parameters: n_theta cos-theta bands times n_phi azimuth sectors."""

    n_theta: int
    n_phi: int

    def __post_init__(self):
        for name in ("n_theta", "n_phi"):
            v = getattr(self, name)
            if v < 1 or v != int(v):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.n_theta * self.n_phi < 2:
            raise ValueError("grid needs at least 2 pixels")

    @property
    def n_pixels(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def pixel_solid_angle(self) -> float:
        return 4.0 * np.pi / self.n_pixels


DEFAULT_GRID = GridSpec(400, 400)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Pixel probabilities p (unit sum) plus the pre-normalization mass diagnostic."""

    p: np.ndarray
    raw_mass: float = 1.0

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a nonempty 1-d array")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("pixel probabilities must be finite and >= 0")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pixel probabilities must sum to 1, got {total!r}")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "raw_mass", float(self.raw_mass))

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDistribution":
        """Normalize arbitrary nonnegative weights; raw_mass records their sum."""
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and >= 0")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights must have positive sum")
        return cls(p=w / total, raw_mass=total)

    @property
    def n_pixels(self) -> int:
        return self.p.size

    @cached_property
    def descending_cumsum(self) -> np.ndarray:
        """S_k: p sorted in decreasing order and accumulated, read-only, with S_N pinned
        to 1 against the drift of a long sum.  Sorted once, on first use."""
        s = np.cumsum(np.sort(self.p)[::-1])
        s /= s[-1]
        s.flags.writeable = False
        return s


def band_thetas(spec: GridSpec) -> np.ndarray:
    """Band-center polar angles theta_l, l = 1..n_theta (midpoints in cos theta)."""
    ell = np.arange(1, spec.n_theta + 1)
    return np.arccos((2.0 * ell - 1.0) / spec.n_theta - 1.0)


def sector_phis(spec: GridSpec) -> np.ndarray:
    """Sector azimuths phi_k = 2 pi k / n_phi - pi, k = 1..n_phi."""
    k = np.arange(1, spec.n_phi + 1)
    return 2.0 * np.pi * k / spec.n_phi - np.pi


def grid_directions(spec: GridSpec) -> Direction:
    """All pixel centers as flat length-N arrays, ordered by j = n_phi (l-1) + k."""
    thetas = band_thetas(spec)
    phis = sector_phis(spec)
    return Direction(np.repeat(thetas, spec.n_phi), np.tile(phis, spec.n_theta))


def _finalize(qvals: np.ndarray, spec: GridSpec) -> DiscreteDistribution:
    if qvals.shape != (spec.n_pixels,):
        raise EvaluationError(f"evaluator returned shape {qvals.shape}, expected ({spec.n_pixels},)")
    if not np.all(np.isfinite(qvals)):
        raise EvaluationError("Q evaluator returned a non-finite value on the grid")
    if np.any(qvals < 0):
        raise EvaluationError("Q evaluator returned a negative value on the grid")
    raw = qvals * spec.pixel_solid_angle
    raw_mass = float(raw.sum())
    if raw_mass <= 0.0:
        raise EvaluationError("Q vanishes on the whole grid")
    return DiscreteDistribution(p=raw / raw_mass, raw_mass=raw_mass)


def discretize(evaluator: Callable[[Direction], np.ndarray], spec: GridSpec) -> DiscreteDistribution:
    """Sample Q at the pixel centers, weight by 4 pi / N, renormalize to unit sum.

    The evaluator receives a Direction holding flat length-N theta/phi arrays and
    must return the matching array of nonnegative densities.  raw_mass keeps the
    pre-normalization total as a sampling-fidelity diagnostic.
    """
    omega = grid_directions(spec)
    qvals = np.asarray(evaluator(omega), dtype=float)
    return _finalize(qvals, spec)


def discretize_state(obj: PolState, spec: GridSpec) -> DiscreteDistribution:
    """discretize() for a state object, using the factorized band/sector evaluation."""
    q2d = q_on_grid(obj, band_thetas(spec), sector_phis(spec))
    return _finalize(np.ascontiguousarray(q2d, dtype=float).ravel(), spec)
