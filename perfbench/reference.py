"""Closed-form reference for the benchmark's output checks.

Nothing here imports polmaj.  The grid convention is restated from polmaj's
documentation: n_theta bands of equal width in x = cos(theta) times n_phi equal
azimuth sectors; pixel j = n_phi (l - 1) + k (1-based) has its centre at
theta_l = arccos((2l - 1)/n_theta - 1), phi_k = 2 pi k / n_phi - pi.

For states whose Q does not depend on phi, every pixel of a band holds the same
mass, so a distribution is a list of band masses and its Lorenz curve is
piecewise linear with breakpoints at band ends.  Curves are kept as breakpoint
arrays (k, S_k) with integer k, from (0, 0) to (N, 1); the measures follow from
the segments exactly.

Band masses are exact integrals of Q over the band, from these cumulative
forms (u = (1 + cos theta)/2, t = sin^2(theta/2) = 1 - u, x = cos theta):

- Fock |m, n-m>:  I_u(m+1, n-m+1), the regularized incomplete beta function,
                  equal to P(Binomial(n+1, u) >= m+1) for integer m, n;
- Glauber nbar:   e^{-nbar t} (t - 1);
- thermal nbar:   -(1 + nbar) / (nbar (1 + nbar t));
- tmsv nbar:      sqrt(2 + nbar) x / (2 sqrt(2 + nbar x^2)).
"""

from __future__ import annotations

import cmath
import math

import numpy as np


# ---------------------------------------------------------------- band masses

def band_edges_x(n_theta: int) -> np.ndarray:
    """Band edges in x = cos(theta), from -1 to 1."""
    return np.linspace(-1.0, 1.0, n_theta + 1)


def _binomial_tails(n: int, u: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """P(B <= m) and P(B >= m+1) for B ~ Binomial(n+1, u), each summed directly."""
    big_n = n + 1
    j = np.arange(big_n + 1)
    log_c = np.array([math.lgamma(big_n + 1) - math.lgamma(i + 1) - math.lgamma(big_n - i + 1)
                      for i in j])
    with np.errstate(divide="ignore", invalid="ignore"):
        lu = np.log(u)[:, None]
        lv = np.log1p(-u)[:, None]
        # 0 * log(0) = 0: a power with a zero exponent is a factor 1
        t1 = np.where(j[None, :] == 0, 0.0, j[None, :] * lu)
        t2 = np.where(j[None, :] == big_n, 0.0, (big_n - j[None, :]) * lv)
    pmf = np.exp(log_c[None, :] + t1 + t2)
    return pmf[:, : m + 1].sum(axis=1), pmf[:, m + 1:].sum(axis=1)


def fock_band_masses(n: int, m: int, n_theta: int) -> np.ndarray:
    """Band masses of |m, n-m>, by differences of I_u(m+1, n-m+1).

    Each difference is taken on whichever tail is below 1/2 at the band, so no
    band loses its digits to a difference of two numbers near 1.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    u = np.clip((1.0 + band_edges_x(n_theta)) / 2.0, 0.0, 1.0)
    lower, upper = _binomial_tails(n, u, m)   # both nondecreasing/nonincreasing in u
    from_upper = upper[1:] - upper[:-1]
    from_lower = lower[:-1] - lower[1:]
    return np.where(upper[1:] <= 0.5, from_upper, from_lower)


def analytic_band_masses(kind: str, nbar: float, n_theta: int) -> np.ndarray:
    """Band masses of the Glauber, thermal and two-mode squeezed vacuum families."""
    x = band_edges_x(n_theta)
    if kind == "glauber":
        t = (1.0 - x) / 2.0
        f = np.exp(-nbar * t) * (t - 1.0)
        return f[:-1] - f[1:]                 # t falls as x rises
    if kind == "thermal":
        t = (1.0 - x) / 2.0
        a, b = t[1:], t[:-1]                  # band spans t in [a, b]
        return (1.0 + nbar) * (b - a) / ((1.0 + nbar * a) * (1.0 + nbar * b))
    if kind == "tmsv":
        f = math.sqrt(2.0 + nbar) * x / (2.0 * np.sqrt(2.0 + nbar * x * x))
        return f[1:] - f[:-1]
    raise ValueError(f"unknown family {kind!r}")


def band_masses(spec: str, n_theta: int) -> np.ndarray:
    """Band masses for a phi-independent designator: coherent:n=.., squeezed:n=<even>,
    glauber:nbar=.., thermal:nbar=.., tmsv:nbar=.."""
    family, _, arg = spec.partition(":")
    key, _, val = arg.partition("=")
    if family == "coherent" and key == "n":
        n = int(val)
        return fock_band_masses(n, n, n_theta)
    if family == "squeezed" and key == "n" and int(val) % 2 == 0:
        n = int(val)
        return fock_band_masses(n, n // 2, n_theta)
    if family in ("glauber", "thermal", "tmsv") and key == "nbar":
        return analytic_band_masses(family, float(val), n_theta)
    raise ValueError(f"no closed-form band masses for {spec!r}")


def has_closed_form(spec: str) -> bool:
    family, _, arg = spec.partition(":")
    if family == "squeezed":
        return int(arg.partition("=")[2]) % 2 == 0
    return family in ("coherent", "glauber", "thermal", "tmsv")


# ---------------------------------------------------------------- exact curves

class ExactCurve:
    """Piecewise-linear Lorenz curve through integer breakpoints (k, S_k)."""

    def __init__(self, k: np.ndarray, s: np.ndarray, pixel_mass: np.ndarray | None = None):
        self.k = np.asarray(k, dtype=float)
        self.s = np.asarray(s, dtype=float)
        self.n = int(self.k[-1])
        # per-pixel mass of each segment, when known better than from diff(s)
        self._pixel_mass = pixel_mass

    @classmethod
    def from_bands(cls, masses: np.ndarray, n_phi: int) -> "ExactCurve":
        """Each band contributes n_phi pixels of mass masses[b] / n_phi."""
        order = np.sort(np.asarray(masses, dtype=float))[::-1]
        order /= math.fsum(order)                           # exact masses sum to 1
        s = np.concatenate(([0.0], np.cumsum(order)))
        s[-1] = 1.0
        k = np.arange(order.size + 1) * float(n_phi)
        return cls(k, s, order / n_phi)

    def at(self, k: np.ndarray) -> np.ndarray:
        """S at integer pixel counts k."""
        return np.interp(k, self.k, self.s)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(pixel count, per-pixel mass) of every segment of nonzero length."""
        dk = np.diff(self.k)
        keep = dk > 0
        v = self._pixel_mass if self._pixel_mass is not None else np.diff(self.s) / np.where(keep, dk, 1.0)
        return dk[keep], v[keep]

    def renyi(self, q: float) -> float:
        dk, v = self.segments()
        live = v > 0.0
        dk, v = dk[live], v[live]
        if q == 1.0:
            return float(-np.sum(dk * v * np.log(v)))
        return float(np.log(np.sum(dk * v ** q)) / (1.0 - q))

    def confidence_interval(self, alpha: float) -> int:
        """Smallest integer k with S_k >= alpha."""
        i = int(np.searchsorted(self.s, alpha, side="left"))
        if i == 0:
            return 0
        k0, s0 = self.k[i - 1], self.s[i - 1]
        slope = (self.s[i] - s0) / (self.k[i] - k0)
        return int(k0 + math.ceil((alpha - s0) / slope))

    def raised(self, delta: float) -> "ExactCurve":
        """The least spread curve that any curve within delta of this one can
        lie below: min(S_k + delta, 1) for k >= 1, with S_0 = 0.  It is concave."""
        kc = float(np.interp(1.0 - delta, self.s, self.k))   # where S + delta reaches 1
        ks = np.unique(np.concatenate((self.k, [1.0, math.floor(kc), math.floor(kc) + 1.0])))
        ks = ks[ks <= self.n]
        ss = np.minimum(self.at(ks) + delta, 1.0)
        ss[0] = 0.0
        return ExactCurve(ks, ss)

    def lowered(self, delta: float) -> "ExactCurve":
        """The most spread curve that any curve within delta of this one can lie
        above: the concave majorant of max(S_k - delta, k/N)."""
        d = self.s - delta - self.k / self.n
        cross = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        kc = self.k[cross] + d[cross] * np.diff(self.k)[cross] / (d[cross] - d[cross + 1])
        ks = np.unique(np.concatenate((self.k, np.floor(kc), np.ceil(kc))))
        ss = np.maximum(self.at(ks) - delta, ks / self.n)
        ss[0], ss[-1] = 0.0, 1.0
        hull: list[int] = []
        for i in range(ks.size):                              # upper hull, monotone chain
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                if (ks[b] - ks[a]) * (ss[i] - ss[a]) >= (ss[b] - ss[a]) * (ks[i] - ks[a]):
                    hull.pop()
                else:
                    break
            hull.append(i)
        return ExactCurve(ks[hull], ss[hull])


# ---------------------------------------------------------------- pointwise Q

def pixel_center(j: int, n_theta: int, n_phi: int) -> tuple[float, float]:
    """(theta, phi) at the centre of 1-based pixel j."""
    ell, k = divmod(j - 1, n_phi)
    return math.acos((2.0 * (ell + 1) - 1.0) / n_theta - 1.0), 2.0 * math.pi * (k + 1) / n_phi - math.pi


def pixel_near(theta: float, phi: float, n_theta: int, n_phi: int) -> int:
    """1-based pixel whose centre is nearest (theta, phi) in cos(theta) and in phi."""
    ell = min(n_theta, math.floor((math.cos(theta) + 1.0) * n_theta / 2.0) + 1)
    k = round((phi + math.pi) * n_phi / (2.0 * math.pi)) % n_phi or n_phi
    return n_phi * (ell - 1) + k


def q_point(amps, theta: float, phi: float) -> float:
    """Q(theta, phi) = (n+1)/(4 pi) |sum_m sqrt(C(n,m)) sin^(n-m)(theta/2) cos^m(theta/2)
    e^{i m phi} c_m|^2 for amplitudes c_m on |m, n-m>."""
    n = len(amps) - 1
    sh, ch = math.sin(theta / 2.0), math.cos(theta / 2.0)
    amp = 0j
    for m, c in enumerate(amps):
        amp += math.sqrt(math.comb(n, m)) * sh ** (n - m) * ch ** m * cmath.exp(1j * m * phi) * complex(c)
    return (n + 1) / (4.0 * math.pi) * abs(amp) ** 2
