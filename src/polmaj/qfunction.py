"""SU(2) Husimi Q function on the Poincare sphere.

For a state with definite photon number n the distribution is
Q(theta, phi) = (n+1)/(4 pi) |<n, Omega | psi>|^2, where |n, Omega> is the SU(2)
coherent state pointing along Omega = (theta, phi).  The coherent-state expansion
uses the e^{-i m phi} ket convention, so the bra conjugation puts e^{+i m phi}
into the overlap; the modulus is convention-independent.

q_analytic broadcasts over theta/phi arrays; q_on_grid evaluates any state on
an outer-product grid of band angles and sector azimuths.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

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


def _coefficients(state: PureFockState, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices m of the nonzero c_m, which alone add to any sum over m, and
    c_m sqrt(C(n,m)) sin^(n-m)(t/2) cos^m(t/2) for them, shape theta.shape + (len(m),).
    Evaluated in logs so that large n neither overflows the binomial nor
    underflows the powers before they meet.
    """
    n = state.n
    m = np.flatnonzero(state.amps)
    ln_binom = np.array([math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
                         for k in m.tolist()])
    sh = np.sin(theta / 2.0)[..., None]
    ch = np.cos(theta / 2.0)[..., None]
    return m, np.exp(0.5 * ln_binom + _xlogy(n - m, sh) + _xlogy(m, ch)) * state.amps[m]


def _scalarize(x: np.ndarray):
    return x[()] if x.ndim == 0 else x


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


def q_on_grid(obj: PolState, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Q on the outer-product grid thetas x phis: shape (len(thetas), 1) when Q does
    not depend on phi (an analytic family, a pure state with a single nonzero
    amplitude, or a mixture of those), otherwise (len(thetas), len(phis)).

    Equivalent to pointwise evaluation but factorizes the theta-only coefficients
    from the azimuthal phases, which is what makes fine grids cheap.
    """
    thetas = np.asarray(thetas, float)
    phis = np.asarray(phis, float)
    _check_theta(thetas)
    if isinstance(obj, PureFockState):
        m, coeff = _coefficients(obj, thetas)        # (T, M) over the M nonzero amplitudes
        if m.size == 1:                              # |c_m e^{i m phi}| does not vary with phi
            phis = phis[:1]
        phases = np.exp(1j * np.outer(m, phis))      # (M, P)
        # the complex (T, P) product stays: a real matmul of the trigonometric
        # factors sum_d G_d e^{i d phi} matches Q to 1e-15, but without this 2N
        # transient glibc trims the heap after every perfbench lieb-sweep operation
        # and faults it back in (593 minor faults per operation against 0)
        q = np.abs(coeff @ phases)                   # squared and scaled in place
        np.square(q, out=q)
        q *= (obj.n + 1) / (4.0 * np.pi)
        return q
    if isinstance(obj, MixedState):
        return sum(w * q_on_grid(s, thetas, phis) for w, s in obj.components)
    if isinstance(obj, AnalyticQFamily):
        return q_analytic(obj, Direction(thetas[:, None], 0.0))
    raise TypeError(f"no Q evaluator for {type(obj).__name__}")
