"""Reference constructions that only the tests use.

Randomization oracles that generate majorized distributions for property tests
(T-transforms and convex permutation mixtures), the rotation algebra that
checks `apply_su2` against composed rotations and sphere rotations, the pointwise
Husimi Q that checks `q_on_grid` and `discretize_state`, and the row-wise CSV
rendering that checks the CLI's block writer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from polmaj import DiscreteDistribution, EulerRotation, MixedState, PureFockState
from polmaj.qfunction import _check_theta, _coefficients


def t_transform(dist: DiscreteDistribution, i: int, j: int, lam: float) -> DiscreteDistribution:
    """Mix components i and j (0-based): (p_i, p_j) -> ((1-l) p_i + l p_j, l p_i + (1-l) p_j).

    The result is majorized by the input for any l in [0, 1], and stores every pixel
    (repeat 1) whatever the input's storage.
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
    p.flags.writeable = False  # a fresh array nobody else holds: kept, not copied
    return DiscreteDistribution(values=p, raw_mass=dist.raw_mass)


def permutation_mix(dist: DiscreteDistribution,
                    perms: Sequence[np.ndarray],
                    weights: Sequence[float]) -> DiscreteDistribution:
    """Weighted average of permuted copies: p~ = sum_j w_j p[perm_j].

    Every convex permutation mixture is majorized by the input.  The result stores
    every pixel (repeat 1) whatever the input's storage.
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
    out.flags.writeable = False  # a fresh array nobody else holds: kept, not copied
    return DiscreteDistribution(values=out, raw_mass=dist.raw_mass)


def state_overlap(a: PureFockState, b: PureFockState) -> complex:
    """<a|b>; zero when the photon numbers differ."""
    if a.n != b.n:
        return 0.0 + 0.0j
    return complex(np.vdot(a.amps, b.amps))


def _su2_2x2(rot: EulerRotation) -> np.ndarray:
    a, b, g = rot.alpha, rot.beta, rot.gamma
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    za = np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])
    zg = np.diag([np.exp(-1j * g / 2), np.exp(1j * g / 2)])
    return za @ ry @ zg


def _wrap_angle(x: float) -> float:
    y = (x + np.pi) % (2 * np.pi) - np.pi
    return np.pi if y == -np.pi else y


def compose_rotations(second: EulerRotation, first: EulerRotation) -> EulerRotation:
    """Euler angles of `second` applied after `first` (matrix product R2 R1)."""
    u = _su2_2x2(second) @ _su2_2x2(first)
    beta = 2.0 * np.arctan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[1, 0]) < 1e-14:      # beta ~ 0: only alpha+gamma is defined
        return EulerRotation(_wrap_angle(2.0 * np.angle(u[1, 1])), 0.0, 0.0)
    if abs(u[0, 0]) < 1e-14:      # beta ~ pi: only alpha-gamma is defined
        return EulerRotation(_wrap_angle(2.0 * np.angle(u[1, 0])), np.pi, 0.0)
    alpha = np.angle(u[1, 1]) + np.angle(u[1, 0])
    gamma = np.angle(u[1, 1]) - np.angle(u[1, 0])
    return EulerRotation(_wrap_angle(alpha), float(beta), _wrap_angle(gamma))


def rotation_matrix(rot: EulerRotation) -> np.ndarray:
    """SO(3) matrix Rz(alpha) Ry(beta) Rz(gamma) acting on Poincare-sphere vectors."""

    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]])

    def ry(t):
        return np.array([[np.cos(t), 0.0, np.sin(t)], [0.0, 1.0, 0.0], [-np.sin(t), 0.0, np.cos(t)]])

    return rz(rot.alpha) @ ry(rot.beta) @ rz(rot.gamma)


def su2_overlap(state: PureFockState, theta, phi):
    """Overlap <n, Omega | psi> = sum_m sqrt(C(n,m)) sin^(n-m)(t/2) cos^m(t/2) e^{i m phi} c_m,
    with n = state.n, at every point Omega = (theta, phi): scalars or broadcastable arrays,
    theta in [0, pi]."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    _check_theta(theta)
    m, coeff = _coefficients(state, theta)
    amp = (coeff * np.exp(1j * m * phi[..., None])).sum(axis=-1)
    return amp[()] if amp.ndim == 0 else amp


def q_pure(state: PureFockState, theta, phi):
    """Q(theta, phi) = (n+1)/(4 pi) |<n, Omega | psi>|^2, in sr^-1."""
    amp = su2_overlap(state, theta, phi)
    return (state.n + 1) / (4.0 * np.pi) * np.abs(amp) ** 2


def q_mixed(mixed: MixedState, theta, phi):
    """Weighted sum of the components' Q functions.

    Components with different photon numbers contribute independently: the
    projection onto |n, Omega> picks out each component's own n-block.
    """
    return sum(w * q_pure(s, theta, phi) for w, s in mixed.components)


def csv_text(comments: Sequence[str], header: Sequence[str], rows: Iterable) -> str:
    """A CSV table rendered one row at a time, each cell as str(value): the text the
    CLI's block writer must reproduce byte for byte."""
    lines = [f"# {line}\n" for line in comments] + [",".join(header) + "\n"]
    lines += [",".join(map(str, row)) + "\n" for row in rows]
    return "".join(lines)
