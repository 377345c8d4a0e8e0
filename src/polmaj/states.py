"""Two-mode polarization states with fixed total photon number.

A pure state of n photons shared by two field modes lives in the (n+1)-dimensional
span of the product number states |m, n-m>, m = 0..n.  Amplitudes are indexed by m,
the photon number in mode 1.  States are treated as equivalence classes up to a
global phase; compare overlap moduli |<a|b>| for equality, not componentwise
amplitudes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-12

ANALYTIC_KINDS = frozenset({"glauber", "thermal", "tmsv"})


# eq=False: it holds arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class PureFockState:
    """Pure state with definite total photon number n; amps[m] multiplies |m, n-m>."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = _photon_number(self.n)
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} amplitudes, got shape {amps.shape}")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"amplitudes not normalized: sum |c_m|^2 = {norm2!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)


# eq=False: its components hold arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class MixedState:
    """Convex mixture of pure states; components may carry different photon numbers."""

    components: tuple[tuple[float, PureFockState], ...]

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for w, _ in comps])
        if np.any(weights < 0):
            raise ValueError("mixture weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class AnalyticQFamily:
    """Closed-form Q-function family tag: 'glauber', 'thermal' or 'tmsv', with mean
    total photon number nbar."""

    kind: str
    nbar: float

    def __post_init__(self):
        if self.kind not in ANALYTIC_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; expected one of {sorted(ANALYTIC_KINDS)}")
        nbar = float(self.nbar) + 0.0                 # -0.0 becomes 0.0
        if not np.isfinite(nbar) or nbar < 0:
            raise ValueError(f"mean photon number must be finite and >= 0, got {self.nbar!r}")
        object.__setattr__(self, "nbar", nbar)


@dataclass(frozen=True)
class EulerRotation:
    """z-y-z Euler angles of an SU(2) transformation: R = e^{-i a Jz} e^{-i b Jy} e^{-i g Jz}."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= np.pi:
            raise ValueError(f"beta must lie in [0, pi], got {self.beta!r}")
        for name in ("alpha", "gamma"):
            v = getattr(self, name)
            if not -np.pi < v <= np.pi:
                raise ValueError(f"{name} must lie in (-pi, pi], got {v!r}")


def _basis_state(n: int, occupied: dict[int, complex]) -> PureFockState:
    amps = np.zeros(n + 1, dtype=complex)
    for m, c in occupied.items():
        amps[m] = c
    return PureFockState(n=n, amps=amps)


def _photon_number(n) -> int:
    """n as a nonnegative int.  An integral float such as 4.0 is accepted; a bool,
    a non-finite, non-integral or negative value raises ValueError."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Real) or not math.isfinite(n)
            or n != int(n)):
        raise ValueError(f"photon number must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {int(n)}")
    return int(n)


def make_coherent(n: int) -> PureFockState:
    """SU(2) coherent state pointing at the north pole: all n photons in mode 1."""
    n = _photon_number(n)
    return _basis_state(n, {n: 1.0})


def make_phase(n: int) -> PureFockState:
    """Phase state (phi = 0 representative): uniform amplitudes 1/sqrt(n+1)."""
    n = _photon_number(n)
    return PureFockState(n=n, amps=np.full(n + 1, 1.0 / np.sqrt(n + 1), dtype=complex))


def make_squeezed(n: int) -> PureFockState:
    """Twin-number state |n/2, n/2> for even n; for odd n the balanced superposition
    of |(n+1)/2, (n-1)/2> and |(n-1)/2, (n+1)/2>.

    n = 0, 1 leave no twin structure and are rejected.
    """
    n = _photon_number(n)
    if n < 2:
        raise ValueError(f"squeezed (twin-number) state needs n >= 2, got {n}")
    if n % 2 == 0:
        return _basis_state(n, {n // 2: 1.0})
    r = 1.0 / np.sqrt(2)
    return _basis_state(n, {(n + 1) // 2: r, (n - 1) // 2: r})


def make_noon(n: int) -> PureFockState:
    """N00N state (|n,0> + |0,n>)/sqrt(2)."""
    n = _photon_number(n)
    if n < 1:
        raise ValueError(f"N00N state needs n >= 1, got {n}")
    r = 1.0 / np.sqrt(2)
    return _basis_state(n, {0: r, n: r})


def make_hs_extremal(n: int) -> PureFockState:
    """Most nonclassical state by Hilbert-Schmidt distance from coherent mixtures.

    Known instances only: n = 2, 3 coincide with the N00N states;
    n = 4 is (|0,4> + sqrt(2)|3,1>)/sqrt(3); n = 5 is (|1,4> + |4,1>)/sqrt(2).
    """
    n = _photon_number(n)
    if n in (2, 3):
        return make_noon(n)
    if n == 4:
        return _basis_state(4, {0: 1.0 / np.sqrt(3), 3: np.sqrt(2.0 / 3.0)})
    if n == 5:
        r = 1.0 / np.sqrt(2)
        return _basis_state(5, {1: r, 4: r})
    raise ValueError(f"Hilbert-Schmidt extremal state known only for n in 2..5, got {n}")


def make_analytic(kind: str, nbar: float) -> AnalyticQFamily:
    """Tag a closed-form Q family; no state vector is materialized."""
    return AnalyticQFamily(kind=kind, nbar=nbar)


def random_pure(n: int, seed) -> PureFockState:
    """Haar-uniform pure state in the n-photon subspace.

    i.i.d. standard complex Gaussian amplitudes, normalized; deterministic for a
    given seed.
    """
    n = _photon_number(n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return PureFockState(n=n, amps=z / np.linalg.norm(z))


def wigner_d_matrix(n: int, beta: float) -> np.ndarray:
    """Wigner little-d matrix for j = n/2 in two-mode index convention.

    d[r, c] = <j, r - j | e^{-i beta Jy} | j, c - j> with integer row/column indices
    r, c = 0..n (photons in mode 1).  The spectral form of e^{-i beta Jy} is used:
    the eigendecomposition of the tridiagonal Jx is backward-stable at any n,
    where the alternating factorial sum cancels catastrophically as n grows.
    """
    cb, sb = np.cos(beta / 2.0), np.sin(beta / 2.0)
    if sb == 0.0:
        return np.sign(cb) ** n * np.eye(n + 1)  # beta = 0 mod 2pi; 2pi flips odd-n sign
    if cb == 0.0:
        d = np.zeros((n + 1, n + 1))
        c = np.arange(n + 1)
        d[n - c, c] = (-1.0) ** (n - c)
        return d
    r = np.arange(n)
    off = 0.5 * np.sqrt((r + 1.0) * (n - r))
    lam, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mj = np.arange(n + 1) - n / 2.0
    z = np.exp(-1j * (np.pi / 2.0) * mj)  # e^{-i b Jy} = e^{-i pi/2 Jz} e^{-i b Jx} e^{+i pi/2 Jz}
    core = (v * np.exp(-1j * beta * lam)) @ v.T
    return (z[:, None] * core * z.conj()[None, :]).real


def apply_su2(state: PureFockState, rot: EulerRotation) -> PureFockState:
    """Rotate a state by R(alpha, beta, gamma) = e^{-i a Jz} e^{-i b Jy} e^{-i g Jz}.

    With this convention, rotating the north-pole coherent state by
    (alpha=phi, beta=theta, gamma=anything) yields the coherent state pointing at
    (theta, phi), up to a global phase.
    """
    n = state.n
    mj = np.arange(n + 1) - n / 2.0
    d = wigner_d_matrix(n, rot.beta)
    big_d = np.exp(-1j * mj * rot.alpha)[:, None] * d * np.exp(-1j * mj * rot.gamma)[None, :]
    out = big_d @ state.amps
    # renormalize away rounding drift; the map is unitary
    return PureFockState(n=n, amps=out / np.linalg.norm(out))
