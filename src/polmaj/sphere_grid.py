"""Equal-area pixelization of the Poincare sphere.

The sphere is cut into N = n_theta * n_phi pixels by splitting cos(theta) and phi
into intervals of equal length, so every pixel subtends exactly 4 pi / N of solid
angle.  Pixel centers are theta_l = arccos((2l-1)/n_theta - 1), l = 1..n_theta, and
phi_k = 2 pi k / n_phi - pi, k = 1..n_phi, flattened as j = n_phi (l-1) + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qfunction import Direction, PolState, q_on_grid


class EvaluationError(ValueError):
    """Pixel weights (Q on the grid) that are non-finite, negative or all zero."""


def owned_read_only(a) -> np.ndarray:
    """a as a float array that nobody can write: a itself when it owns its data and
    is already read-only, otherwise a read-only copy."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or not a.flags.owndata:
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
        p = owned_read_only(self.p)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a nonempty 1-d array")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("pixel probabilities must be finite and >= 0")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pixel probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "raw_mass", float(self.raw_mass))

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDistribution":
        """Normalize nonnegative weights to unit sum, keeping their sum as raw_mass.
        Non-finite, negative or all-zero weights raise EvaluationError."""
        w = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise EvaluationError("pixel weights must be finite and >= 0")
        total = float(w.sum())
        if total <= 0.0:
            raise EvaluationError("pixel weights vanish everywhere")
        p = w / total
        p.flags.writeable = False  # a fresh array nobody else holds: kept, not copied
        return cls(p=p, raw_mass=total)

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


def discretize_state(obj: PolState, spec: GridSpec) -> DiscreteDistribution:
    """Q sampled at the pixel centers, weighted by 4 pi / N and renormalized to unit
    sum; raw_mass keeps the total before normalization as a sampling diagnostic."""
    q = q_on_grid(obj, band_thetas(spec), sector_phis(spec))
    return DiscreteDistribution.from_weights((q * spec.pixel_solid_angle).ravel())
