"""Tests of the closed-form reference itself.  Run with: python3 -m pytest perfbench"""

import math

import numpy as np
import pytest

import reference as ref

STATES = ["coherent:n=4", "coherent:n=100", "coherent:n=1000", "squeezed:n=4", "squeezed:n=10",
          "squeezed:n=200", "glauber:nbar=10", "glauber:nbar=1000", "thermal:nbar=10",
          "thermal:nbar=1000", "tmsv:nbar=10", "tmsv:nbar=1000"]


def q_closed_form(spec: str, x: np.ndarray) -> np.ndarray:
    """Q(theta) at x = cos(theta), written out from the state definitions."""
    family, _, arg = spec.partition(":")
    val = float(arg.partition("=")[2])
    u, t = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    if family in ("coherent", "squeezed"):
        n = int(val)
        m = n if family == "coherent" else n // 2
        log_c = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        with np.errstate(divide="ignore"):
            return (n + 1) / (4 * math.pi) * np.exp(log_c + m * np.log(u) + (n - m) * np.log(t))
    if family == "glauber":
        return np.exp(-val * t) * (1.0 + val * u) / (4 * math.pi)
    if family == "thermal":
        return (1.0 + val) / (4 * math.pi) / (1.0 + val * t) ** 2
    return math.sqrt(2.0 + val) / (2 * math.pi) / (2.0 + val * x * x) ** 1.5


@pytest.mark.parametrize("spec", STATES)
@pytest.mark.parametrize("n_theta", [37, 1200])
def test_band_masses_sum_to_one(spec, n_theta):
    m = ref.band_masses(spec, n_theta)
    assert m.shape == (n_theta,)
    assert np.all(m >= 0.0)
    assert abs(math.fsum(m) - 1.0) < 1e-12


@pytest.mark.parametrize("spec", STATES)
def test_band_masses_match_quadrature(spec):
    n_theta = 300
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = ref.band_edges_x(n_theta)
    half = np.diff(edges)[:, None] / 2.0
    x = (edges[:-1, None] + edges[1:, None]) / 2.0 + half * nodes[None, :]
    quad = 2 * math.pi * np.sum(half * weights[None, :] * q_closed_form(spec, x), axis=1)
    np.testing.assert_allclose(ref.band_masses(spec, n_theta), quad, rtol=1e-9, atol=1e-15)


def test_no_closed_form_for_phi_dependent_states():
    for spec in ("noon:n=4", "phase:n=3", "hs:n=4", "squeezed:n=5"):
        assert not ref.has_closed_form(spec)
        with pytest.raises(ValueError):
            ref.band_masses(spec, 10)


def pixel_masses(spec, n_theta, n_phi):
    return np.repeat(ref.band_masses(spec, n_theta) / n_phi, n_phi)


def brute_curve(p):
    return np.cumsum(np.sort(p)[::-1])


def brute_renyi(p, q):
    p = p[p > 0]
    if q == 1.0:
        return float(-np.sum(p * np.log(p)))
    return float(np.log(np.sum(p ** q)) / (1.0 - q))


def brute_k(s, alpha):
    return int(np.searchsorted(s, alpha, side="left")) + 1


@pytest.mark.parametrize("spec", ["coherent:n=10", "squeezed:n=6", "thermal:nbar=10", "tmsv:nbar=100"])
def test_exact_curve_matches_expanded_pixels(spec):
    n_theta, n_phi = 24, 30
    p = pixel_masses(spec, n_theta, n_phi)
    s = brute_curve(p)
    exact = ref.ExactCurve.from_bands(ref.band_masses(spec, n_theta), n_phi)
    np.testing.assert_allclose(exact.at(np.arange(1, p.size + 1)), s, atol=1e-14)
    for q in (0.5, 1.0, 2.0, 5.0):
        assert exact.renyi(q) == pytest.approx(brute_renyi(p, q), rel=1e-12)
    for alpha in (0.07, 0.33, 0.51, 0.93):    # off the exact ties at band ends
        assert exact.confidence_interval(alpha) == brute_k(s, alpha)


@pytest.mark.parametrize("spec", ["coherent:n=10", "thermal:nbar=10", "tmsv:nbar=100"])
def test_raised_and_lowered_bracket_every_curve_within_delta(spec):
    n_theta, n_phi, delta = 24, 30, 1e-2
    e = pixel_masses(spec, n_theta, n_phi)
    exact = ref.ExactCurve.from_bands(ref.band_masses(spec, n_theta), n_phi)
    hi, lo = exact.raised(delta), exact.lowered(delta)
    k = np.arange(1, e.size + 1)
    assert np.all(hi.at(k) >= exact.at(k)) and np.all(lo.at(k) <= exact.at(k) + 1e-15)
    assert np.all(np.diff(np.diff(hi.s) / np.diff(hi.k)) <= 1e-15)     # concave
    assert np.all(np.diff(np.diff(lo.s) / np.diff(lo.k)) <= 1e-15)
    rng = np.random.default_rng(5)
    for _ in range(50):
        # move mass between random pixels, keeping the curve within delta
        p = e.copy()
        i, j = rng.choice(p.size, size=2, replace=False)
        moved = min(p[i], delta / 2.0) * rng.random()
        p[i] -= moved
        p[j] += moved
        s = brute_curve(p)
        assert np.max(np.abs(s - exact.at(k))) <= delta
        for q in (0.5, 1.0, 2.0, 5.0):
            assert hi.renyi(q) - 1e-12 <= brute_renyi(p, q) <= lo.renyi(q) + 1e-12
        for alpha in (0.05, 0.5, 0.95):
            assert hi.confidence_interval(alpha) <= brute_k(s, alpha) <= lo.confidence_interval(alpha)


def test_q_point_matches_fock_closed_form_and_normalizes():
    n, m = 5, 2
    amps = [0.0] * (n + 1)
    amps[m] = 1.0
    for theta, phi in ((0.3, 1.0), (1.7, -2.0), (2.9, 0.1)):
        closed = (n + 1) / (4 * math.pi) * math.comb(n, m) * math.cos(theta / 2) ** (2 * m) \
            * math.sin(theta / 2) ** (2 * (n - m))
        assert ref.q_point(amps, theta, phi) == pytest.approx(closed, rel=1e-13)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amps = list(z / np.linalg.norm(z))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    phis = np.linspace(-math.pi, math.pi, 24, endpoint=False)
    total = sum(w * ref.q_point(amps, math.acos(x), ph) * (2 * math.pi / phis.size)
                for x, w in zip(nodes, weights) for ph in phis)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_pixel_near_inverts_pixel_center():
    for n_theta, n_phi in ((400, 400), (7, 13)):
        for j in (1, 2, n_phi, n_phi + 1, n_theta * n_phi // 2, n_theta * n_phi):
            assert ref.pixel_near(*ref.pixel_center(j, n_theta, n_phi), n_theta, n_phi) == j
