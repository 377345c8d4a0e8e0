"""SU(2) Husimi Q function on the Poincare sphere.

For a state with definite photon number n the distribution is
Q(theta, phi) = (n+1)/(4 pi) |<n, Omega | psi>|^2, where |n, Omega> is the SU(2)
coherent state pointing along Omega = (theta, phi).  The coherent-state expansion
uses the e^{-i m phi} ket convention, so the bra conjugation puts e^{+i m phi}
into the overlap; the modulus is convention-independent.

q_on_grid is the one evaluator: it takes any state to an outer-product grid of
band angles and sector azimuths, and returns one column when Q does not depend
on phi.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .states import AnalyticQFamily, MixedState, PureFockState


PolState = Union[PureFockState, MixedState, AnalyticQFamily]

# q_on_grid evaluates a pure state's complex overlap in band blocks of at most this
# many elements (8 MB), so a 400^2 grid is one block and 800^2 is two
_QBLOCK = 1 << 19


def _check_theta(theta: np.ndarray) -> None:
    if not np.all((theta >= 0.0) & (theta <= np.pi)):    # NaN fails both
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


def _q_closed_form(family: AnalyticQFamily, theta: np.ndarray) -> np.ndarray:
    """Closed-form Q for the Glauber-coherent, thermal and two-mode squeezed vacuum
    families at mean total photon number nbar.  All three are phi-independent."""
    nbar = family.nbar
    if family.kind == "glauber":
        s2 = np.sin(theta / 2.0) ** 2
        return np.exp(-nbar * s2) * (1.0 + nbar * (1.0 - s2)) / (4.0 * np.pi)
    # at huge nbar a denominator overflows to inf, which gives Q its float limit 0
    with np.errstate(over="ignore"):
        if family.kind == "tmsv":
            return np.sqrt(2.0 + nbar) / (2.0 * np.pi) / (2.0 + nbar * np.cos(theta) ** 2) ** 1.5
        return (1.0 + nbar) / (4.0 * np.pi) / (1.0 + nbar * np.sin(theta / 2.0) ** 2) ** 2


def q_on_grid(obj: PolState, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Q on the outer-product grid thetas x phis: shape (len(thetas), 1) when Q does
    not depend on phi (an analytic family, a pure state with a single nonzero
    amplitude, or a mixture of those), otherwise (len(thetas), len(phis)).
    thetas and phis must be 1-D, thetas in [0, pi] and phis finite; anything else,
    NaN included, raises ValueError.

    Equivalent to pointwise evaluation but factorizes the theta-only coefficients
    from the azimuthal phases, which is what makes fine grids cheap.
    """
    thetas = np.asarray(thetas, float)
    phis = np.asarray(phis, float)
    if thetas.ndim != 1 or phis.ndim != 1:
        raise ValueError("thetas and phis must be 1-D arrays")
    _check_theta(thetas)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phi must be finite")
    if isinstance(obj, PureFockState):
        m, coeff = _coefficients(obj, thetas)        # (T, M) over the M nonzero amplitudes
        if m.size == 1:                              # |c_m e^{i m phi}| does not vary with phi
            phis = phis[:1]
        phases = np.exp(1j * np.outer(m, phis))      # (M, P)
        # |overlap| goes into q one balanced band block of the complex product at a
        # time, bit for bit the whole product's (tests pin it), as long as every
        # block has two bands: a one-band product is a matrix-vector product and
        # rounds differently.  400^2 stays one block: without that transient glibc
        # trims the heap after each perfbench lieb-sweep operation and refaults it
        q = np.empty((thetas.size, phis.size))
        n_blocks = max(1, min(-(-q.size // _QBLOCK), thetas.size // 2))
        bounds = [thetas.size * i // n_blocks for i in range(n_blocks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            np.abs(coeff[lo:hi] @ phases, out=q[lo:hi])
        np.square(q, out=q)                          # squared and scaled in place
        q *= (obj.n + 1) / (4.0 * np.pi)
        return q
    if isinstance(obj, MixedState):
        return sum(w * q_on_grid(s, thetas, phis) for w, s in obj.components)
    if isinstance(obj, AnalyticQFamily):
        return _q_closed_form(obj, thetas)[:, None]
    raise TypeError(f"no Q evaluator for {type(obj).__name__}")
