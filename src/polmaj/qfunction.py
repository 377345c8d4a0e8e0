"""SU(2) Husimi Q function on the Poincare sphere.

For a state with definite photon number n the distribution is
Q(theta, phi) = (n+1)/(4 pi) |<n, Omega | psi>|^2, where |n, Omega> is the SU(2)
coherent state pointing along Omega = (theta, phi).  The coherent-state expansion
uses the e^{-i m phi} ket convention, so the bra conjugation puts e^{+i m phi}
into the overlap; the modulus is convention-independent.

All evaluators broadcast over theta/phi arrays.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

import numpy as np

from .states import AnalyticQFamily, MixedState, PureFockState


class Direction(NamedTuple):
    """Point(s) on the Poincare sphere: polar angle theta in [0, pi], azimuth phi.

    Fields may be scalars or broadcastable arrays; phi is 2pi-periodic with
    canonical range (-pi, pi].
    """

    theta: Union[float, np.ndarray]
    phi: Union[float, np.ndarray]


PolState = Union[PureFockState, MixedState, AnalyticQFamily]


def _check_theta(theta: np.ndarray) -> None:
    if np.any((theta < 0.0) | (theta > np.pi)):
        raise ValueError("theta must lie in [0, pi]")


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y, with 0 where x = 0 (also at y = 0) and -inf where only y = 0."""
    with np.errstate(divide="ignore"):
        return x * np.log(np.where(x == 0, 1.0, y))


def _coefficients(state: PureFockState, theta: np.ndarray) -> np.ndarray:
    """c_m sqrt(C(n,m)) sin^(n-m)(t/2) cos^m(t/2), shape theta.shape + (n+1,).

    Evaluated in logs so that large n neither overflows the binomial nor
    underflows the powers before they meet.
    """
    n = state.n
    m = np.arange(n + 1)
    ln_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    ln_binom = ln_fact[n] - ln_fact - ln_fact[::-1]
    sh = np.sin(theta / 2.0)[..., None]
    ch = np.cos(theta / 2.0)[..., None]
    return np.exp(0.5 * ln_binom + _xlogy(n - m, sh) + _xlogy(m, ch)) * state.amps


def _scalarize(x: np.ndarray):
    return x[()] if x.ndim == 0 else x


def su2_overlap(n: int, omega: Direction, state: PureFockState):
    """Overlap <n, Omega | psi> = sum_m sqrt(C(n,m)) sin^(n-m)(t/2) cos^m(t/2) e^{i m phi} c_m."""
    if state.n != n:
        raise ValueError(f"photon-number mismatch: coherent state n={n}, state n={state.n}")
    theta, phi = np.broadcast_arrays(np.asarray(omega.theta, float), np.asarray(omega.phi, float))
    _check_theta(theta)
    phases = np.exp(1j * np.arange(n + 1) * phi[..., None])
    return _scalarize((_coefficients(state, theta) * phases).sum(axis=-1))


def q_pure(state: PureFockState, omega: Direction):
    """Q(Omega) = (n+1)/(4 pi) |<n, Omega | psi>|^2, in sr^-1."""
    amp = su2_overlap(state.n, omega, state)
    return (state.n + 1) / (4.0 * np.pi) * np.abs(amp) ** 2


def q_mixed(mixed: MixedState, omega: Direction):
    """Weighted sum of the components' Q functions.

    Components with different photon numbers contribute independently: the
    projection onto |n, Omega> picks out each component's own n-block.
    """
    return sum(w * q_pure(s, omega) for w, s in mixed.components)


def q_analytic(family: AnalyticQFamily, omega: Direction):
    """Closed-form Q for the Glauber-coherent, thermal and two-mode squeezed vacuum
    families at mean total photon number nbar.  All three are phi-independent."""
    theta, _ = np.broadcast_arrays(np.asarray(omega.theta, float), np.asarray(omega.phi, float))
    _check_theta(theta)
    nbar = family.nbar
    if family.kind == "glauber":
        s2 = np.sin(theta / 2.0) ** 2
        q = np.exp(-nbar * s2) * (1.0 + nbar * (1.0 - s2)) / (4.0 * np.pi)
    elif family.kind == "thermal":
        s2 = np.sin(theta / 2.0) ** 2
        q = (1.0 + nbar) / (4.0 * np.pi) / (1.0 + nbar * s2) ** 2
    else:  # tmsv
        q = np.sqrt(2.0 + nbar) / (2.0 * np.pi) / (2.0 + nbar * np.cos(theta) ** 2) ** 1.5
    return _scalarize(q)


def q_evaluator(obj: PolState) -> Callable[[Direction], np.ndarray]:
    """Q(Omega) evaluator for any supported state object."""
    if isinstance(obj, PureFockState):
        return lambda omega: q_pure(obj, omega)
    if isinstance(obj, MixedState):
        return lambda omega: q_mixed(obj, omega)
    if isinstance(obj, AnalyticQFamily):
        return lambda omega: q_analytic(obj, omega)
    raise TypeError(f"no Q evaluator for {type(obj).__name__}")


def q_on_grid(obj: PolState, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Q on the outer-product grid thetas x phis, shape (len(thetas), len(phis)).

    Equivalent to pointwise evaluation but factorizes the theta-only coefficients
    from the azimuthal phases, which is what makes fine grids cheap.
    """
    thetas = np.asarray(thetas, float)
    phis = np.asarray(phis, float)
    _check_theta(thetas)
    if isinstance(obj, PureFockState):
        coeff = _coefficients(obj, thetas)                          # (T, n+1)
        phases = np.exp(1j * np.outer(np.arange(obj.n + 1), phis))  # (n+1, P)
        return (obj.n + 1) / (4.0 * np.pi) * np.abs(coeff @ phases) ** 2
    if isinstance(obj, MixedState):
        return sum(w * q_on_grid(s, thetas, phis) for w, s in obj.components)
    if isinstance(obj, AnalyticQFamily):
        q = q_analytic(obj, Direction(thetas, 0.0))
        return np.broadcast_to(np.asarray(q)[:, None], (thetas.size, phis.size))
    raise TypeError(f"no Q evaluator for {type(obj).__name__}")
