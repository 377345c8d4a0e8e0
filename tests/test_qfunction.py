import math
import tracemalloc

import numpy as np
import pytest

import polmaj.qfunction as qmod
from polmaj import (EulerRotation, EvaluationError, GridSpec, MixedState, PureFockState,
                    apply_su2, band_thetas, discretize_state, make_analytic, make_coherent,
                    make_noon, make_phase, make_squeezed, q_on_grid, random_pure, sector_phis)

from polmaj.cli import parse_state_spec

from oracles import q_mixed, q_pure, rotation_matrix, su2_overlap

FOUR_PI = 4.0 * math.pi


class TestOverlap:
    def test_coherent_at_north_pole(self):
        for n in (0, 1, 4, 9):
            ov = su2_overlap(make_coherent(n), 0.0, 0.0)
            assert ov == pytest.approx(1.0, abs=1e-14)
            # at the pole the azimuth only contributes a convention phase e^{i n phi}
            assert abs(su2_overlap(make_coherent(n), 0.0, 0.3)) == \
                pytest.approx(1.0, abs=1e-14)

    def test_one_photon_example(self):
        # state (1, 0) on basis (|0,1>, |1,0>): overlap is sin(pi/4)
        state = PureFockState(n=1, amps=np.array([1.0, 0.0]))
        ov = su2_overlap(state, math.pi / 2, 0.0)
        assert ov == pytest.approx(math.sin(math.pi / 4), abs=1e-14)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            q_pure(make_coherent(2), 3.5, 0.0)

    def test_resolution_of_identity(self):
        # sum over a fine grid of |overlap|^2 (n+1)/(4 pi) dOmega -> 1
        state = random_pure(6, seed=2)
        raw = discretize_state(state, GridSpec(400, 400)).raw_mass
        assert raw == pytest.approx(1.0, abs=1e-3)

    def test_broadcasts_over_arrays(self):
        state = random_pure(3, seed=5)
        thetas = np.linspace(0, np.pi, 7)
        phis = np.linspace(-np.pi, np.pi, 7)
        arr = su2_overlap(state, thetas, phis)
        assert arr.shape == (7,)
        for i in range(7):
            assert arr[i] == pytest.approx(
                su2_overlap(state, thetas[i], phis[i]), abs=1e-15)


class TestQPure:
    @pytest.mark.parametrize("n", [0, 1, 2, 6])
    def test_coherent_closed_form(self, n):
        state = make_coherent(n)
        for theta in (0.0, 0.4, math.pi / 2, 2.9, math.pi):
            expect = (n + 1) / FOUR_PI * math.cos(theta / 2) ** (2 * n)
            assert q_pure(state, theta, 1.3) == pytest.approx(expect, abs=1e-14)

    def test_coherent_peak_value(self):
        assert q_pure(make_coherent(4), 0.0, 0.0) == pytest.approx(5 / FOUR_PI)

    def test_noon2_on_equator(self):
        got = q_pure(make_noon(2), math.pi / 2, 0.0)
        assert got == pytest.approx(3.0 / (8.0 * math.pi), abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        state = random_pure(7, seed=1)
        q = q_pure(state, rng.uniform(0, np.pi, 200), rng.uniform(-np.pi, np.pi, 200))
        assert np.all(q >= 0)

    def test_su2_covariance(self):
        # Q of the rotated state at Omega equals Q of the original at R^-1 Omega
        rng = np.random.default_rng(31)
        for _ in range(12):
            n = int(rng.integers(1, 8))
            psi = random_pure(n, seed=int(rng.integers(1 << 30)))
            rot = EulerRotation(rng.uniform(-3, 3), rng.uniform(0, np.pi), rng.uniform(-3, 3))
            rotated = apply_su2(psi, rot)
            theta, phi = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
            v = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            w = rotation_matrix(rot).T @ v
            back = np.arccos(np.clip(w[2], -1, 1)), np.arctan2(w[1], w[0])
            assert q_pure(rotated, theta, phi) == pytest.approx(q_pure(psi, *back), abs=1e-10)


def _truncated_thermal(nbar, cutoff):
    n = np.arange(cutoff + 1)
    w = (nbar / (1 + nbar)) ** n / (1 + nbar)
    return MixedState(components=tuple((float(wi), make_coherent(int(ni)))
                                       for wi, ni in zip(w, n)))


def _poisson_glauber(nbar, cutoff):
    n = np.arange(cutoff + 1)
    logw = -nbar + n * np.log(nbar) - np.array([math.lgamma(k + 1.0) for k in n])
    w = np.exp(logw)
    return MixedState(components=tuple((float(wi), make_coherent(int(ni)))
                                       for wi, ni in zip(w, n)))


class TestQMixed:
    def test_single_component_equals_pure(self):
        s = random_pure(4, seed=8)
        mix = MixedState(components=((1.0, s),))
        assert q_mixed(mix, 1.1, -0.4) == pytest.approx(q_pure(s, 1.1, -0.4), abs=1e-15)

    def test_antipodal_mixture_symmetric(self):
        north = make_coherent(2)                       # |2,0>
        south = PureFockState(n=2, amps=np.array([1.0, 0, 0]))  # |0,2>
        mix = MixedState(components=((0.5, north), (0.5, south)))
        for theta in (0.2, 1.0, 1.4):
            a = q_mixed(mix, theta, 0.7)
            b = q_mixed(mix, math.pi - theta, 0.7)
            assert a == pytest.approx(b, abs=1e-14)
            expect = 0.5 * (q_pure(north, theta, 0.7) + q_pure(south, theta, 0.7))
            assert a == pytest.approx(expect, abs=1e-15)

    def test_thermal_truncation_matches_closed_form(self):
        nbar, cutoff = 10.0, 320  # tail mass (10/11)^321 ~ 5e-14
        mix = _truncated_thermal(nbar, cutoff)
        fam = make_analytic("thermal", nbar)
        thetas = np.linspace(0.0, np.pi, 23)
        got = q_mixed(mix, thetas, 0.0)
        want = q_on_grid(fam, thetas, np.zeros(1))[:, 0]
        assert np.max(np.abs(got - want)) < 1e-8

    def test_poisson_expansion_matches_glauber(self):
        nbar, cutoff = 10.0, 60  # Poisson tail far below 1e-12
        mix = _poisson_glauber(nbar, cutoff)
        fam = make_analytic("glauber", nbar)
        thetas = np.linspace(0.0, np.pi, 23)
        got = q_mixed(mix, thetas, 0.0)
        want = q_on_grid(fam, thetas, np.zeros(1))[:, 0]
        assert np.max(np.abs(got - want)) < 1e-8


class TestQAnalytic:
    def test_thermal_south_pole_value(self):
        fam = make_analytic("thermal", 10)
        expect = 11.0 / (FOUR_PI * 121.0)  # = 1/(44 pi)
        assert q_on_grid(fam, [math.pi], [0.0])[0, 0] == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(1.0 / (44.0 * math.pi))

    def test_vacuum_glauber_uniform(self):
        fam = make_analytic("glauber", 0.0)
        rng = np.random.default_rng(3)
        q = q_on_grid(fam, rng.uniform(0, np.pi, 50), rng.uniform(-np.pi, np.pi, 50))
        assert np.allclose(q, 1.0 / FOUR_PI, atol=1e-15)

    def test_tmsv_equator_value(self):
        fam = make_analytic("tmsv", 10)
        expect = math.sqrt(12.0) / (2.0 * math.pi) / 2.0 ** 1.5
        assert q_on_grid(fam, [math.pi / 2], [0.3])[0, 0] == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("kind", ["glauber", "thermal", "tmsv"])
    def test_phi_independence_exact(self, kind):
        # one column, whatever the sectors: the closed forms never read phi
        fam = make_analytic(kind, 7.5)
        thetas = np.linspace(0, np.pi, 11)
        a = q_on_grid(fam, thetas, np.full(4, -2.0))
        b = q_on_grid(fam, thetas, np.linspace(-np.pi, np.pi, 9))
        assert a.shape == b.shape == (11, 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["thermal", "tmsv"])
    def test_huge_nbar_vanishes_without_an_overflow_warning(self, kind):
        # the denominator overflows to inf and Q takes its float limit 0; a warning
        # would be an error here and a stray stderr line on the command line
        fam, grid = make_analytic(kind, 1e308), GridSpec(4, 4)
        q = q_on_grid(fam, band_thetas(grid), sector_phis(grid))
        assert np.array_equal(q, np.zeros((4, 1)))
        with pytest.raises(EvaluationError, match="vanish"):
            discretize_state(fam, grid)

    def test_glauber_minimum_at_south_pole(self):
        fam = make_analytic("glauber", 6.0)
        thetas = np.linspace(0, np.pi, 301)
        q = q_on_grid(fam, thetas, np.zeros(1))[:, 0]
        assert np.all(q >= q[-1] - 1e-15)


class TestNormalizationAndDispatch:
    @pytest.mark.parametrize("spec_n", [("coherent", 10), ("phase", 10), ("noon", 10),
                                        ("squeezed", 10), ("hs", 5)])
    def test_grid_mass_near_one_fock(self, spec_n):
        from polmaj import states as stmod
        ctor = {"coherent": stmod.make_coherent, "phase": stmod.make_phase,
                "noon": stmod.make_noon, "squeezed": stmod.make_squeezed,
                "hs": stmod.make_hs_extremal}[spec_n[0]]
        raw = discretize_state(ctor(spec_n[1]), GridSpec(400, 400)).raw_mass
        assert raw == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("kind", ["glauber", "thermal", "tmsv"])
    @pytest.mark.parametrize("nbar", [10.0, 20.0])
    def test_grid_mass_near_one_analytic(self, kind, nbar):
        raw = discretize_state(make_analytic(kind, nbar), GridSpec(400, 400)).raw_mass
        assert raw == pytest.approx(1.0, abs=1e-3)

    def test_q_on_grid_matches_pointwise(self):
        def _thermal4(obj, theta, phi):  # Q of the thermal family at nbar = 4
            return 5.0 / FOUR_PI / (1.0 + 4.0 * math.sin(theta / 2) ** 2) ** 2

        thetas = np.linspace(0.05, np.pi - 0.05, 6)
        phis = np.linspace(-np.pi, np.pi, 5)
        # a phi-independent Q comes back on one sector: (T, 1), otherwise (T, P)
        for obj, oracle, n_phi in ((random_pure(5, seed=4), q_pure, 5),
                                   (MixedState(components=((0.3, make_coherent(2)),
                                                           (0.7, make_noon(3)))), q_mixed, 5),
                                   (make_analytic("thermal", 4.0), _thermal4, 1)):
            grid_vals = q_on_grid(obj, thetas, phis)
            assert grid_vals.shape == (6, n_phi)
            grid_vals = np.broadcast_to(grid_vals, (6, 5))
            for i in range(6):
                for j in range(5):
                    assert grid_vals[i, j] == pytest.approx(
                        oracle(obj, thetas[i], phis[j]), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("obj", [make_phase(2), make_analytic("thermal", 1.0)],
                             ids=["pure", "analytic"])
    @pytest.mark.parametrize("thetas, phis", [
        (0.5, [0.0]), (np.full((2, 2), 0.5), [0.0]), ([0.5], np.zeros((1, 1))),
        ([math.nan], [0.0]), ([-0.1], [0.0]), ([math.pi + 0.1], [0.0]),
        ([0.5], [math.nan]), ([0.5], [math.inf]),
    ], ids=["scalar-theta", "2d-theta", "2d-phi", "nan-theta", "negative-theta",
            "theta-above-pi", "nan-phi", "inf-phi"])
    def test_q_on_grid_refuses_input_outside_its_contract(self, obj, thetas, phis):
        with pytest.raises(ValueError):
            q_on_grid(obj, thetas, phis)

    def test_single_amplitude_closed_forms(self):
        # sums over m run over the nonzero amplitudes only; large n keeps them honest
        phis = np.linspace(-np.pi, np.pi, 5)
        cases = ((make_coherent(1000), np.linspace(0.0, 0.2, 7),
                  lambda t: 1001 / FOUR_PI * np.cos(t / 2) ** 2000),
                 (make_squeezed(200), np.linspace(0.3, np.pi - 0.3, 7),
                  lambda t: 201 / FOUR_PI * math.comb(200, 100)
                  * (np.sin(t / 2) * np.cos(t / 2)) ** 200))
        for state, thetas, closed in cases:
            expect = np.broadcast_to(closed(thetas)[:, None], (thetas.size, phis.size))
            assert np.all(expect > 0)
            q = q_on_grid(state, thetas, phis)
            assert q.shape == (thetas.size, 1)
            np.testing.assert_allclose(np.broadcast_to(q, expect.shape), expect, rtol=1e-12, atol=0)
            np.testing.assert_allclose(q_pure(state, thetas[:, None], phis), expect,
                                       rtol=1e-12, atol=0)


def _whole_product_q(state, thetas, phis):
    """Q of a phi-dependent pure state from one complex (T, P) product, unblocked."""
    m, coeff = qmod._coefficients(state, thetas)
    q = np.abs(coeff @ np.exp(1j * np.outer(m, phis)))
    np.square(q, out=q)
    q *= (state.n + 1) / FOUR_PI
    return q


PHI_DEPENDENT = {"phase": make_phase(4), "random": random_pure(6, seed=2),
                 "rotated-coherent": apply_su2(make_coherent(5), EulerRotation(0.3, 1.1, -0.4))}


class TestBandBlocks:
    """q_on_grid takes |overlap| one band block at a time; Q must not depend on the blocks."""

    # 400^2 is one block, 800^2 two of 400 bands, 1001 x 600 two of 501 and 500 bands
    @pytest.mark.parametrize("spec", [GridSpec(400, 400), GridSpec(800, 800), GridSpec(1001, 600)],
                             ids=["400^2", "800^2", "1001x600"])
    @pytest.mark.parametrize("name", list(PHI_DEPENDENT))
    def test_blocks_equal_one_product(self, name, spec):
        thetas, phis = band_thetas(spec), sector_phis(spec)
        assert np.array_equal(q_on_grid(PHI_DEPENDENT[name], thetas, phis),
                              _whole_product_q(PHI_DEPENDENT[name], thetas, phis))

    @pytest.mark.parametrize("qblock", [1, 100, 400])
    def test_many_uneven_blocks(self, qblock, monkeypatch):
        # 37 bands of 23 sectors in 18, 9 and 3 blocks of unequal sizes; a block never
        # shrinks below two bands, whose one-row product would round differently
        spec = GridSpec(37, 23)
        thetas, phis = band_thetas(spec), sector_phis(spec)
        monkeypatch.setattr(qmod, "_QBLOCK", qblock)
        for state in PHI_DEPENDENT.values():
            assert np.array_equal(q_on_grid(state, thetas, phis),
                                  _whole_product_q(state, thetas, phis))


# the built-in designators whose states can be mixture components (pure states)
MIXABLE = ("coherent:n=3", "phase:n=4", "squeezed:n=4", "squeezed:n=5", "noon:n=4", "hs:n=4",
           "random:n=3,seed=2")


def _sum_of_components(mix, thetas, phis):
    """Q of a mixture as the sum over components of w times each component's Q."""
    return sum(w * q_on_grid(s, thetas, phis) for w, s in mix.components)


class TestMixtureAccumulation:
    """A mixture's Q is accumulated in one array, block by block, in the order of
    the sum over its components."""

    # 600^2: one block for a pure state, two for a mixture component
    @pytest.mark.parametrize("spec", [GridSpec(7, 13), GridSpec(600, 600)], ids=["7x13", "600^2"])
    def test_equals_the_sum_of_components(self, spec):
        thetas, phis = band_thetas(spec), sector_phis(spec)
        for i, a in enumerate(MIXABLE):
            for b in MIXABLE[i + 1:]:
                mix = MixedState(components=((0.3, parse_state_spec(a).obj),
                                             (0.7, parse_state_spec(b).obj)))
                got, want = q_on_grid(mix, thetas, phis), _sum_of_components(mix, thetas, phis)
                assert got.shape == want.shape and np.array_equal(got, want), (a, b)

    @pytest.mark.parametrize("qblock", [2, 100, 400])
    def test_many_uneven_blocks(self, qblock, monkeypatch):
        spec = GridSpec(37, 23)
        thetas, phis = band_thetas(spec), sector_phis(spec)
        mix = MixedState(components=((0.25, make_coherent(2)), (0.35, make_phase(4)),
                                     (0.4, random_pure(6, seed=2))))
        want = _sum_of_components(mix, thetas, phis)
        monkeypatch.setattr(qmod, "_QBLOCK", qblock)
        assert np.array_equal(q_on_grid(mix, thetas, phis), want)

    def test_phi_dependent_mixture_peaks_at_two_grids(self):
        # the sum, one block of a component's complex product and its modulus; the
        # sum over fresh arrays peaked at 3.01 grids
        spec = GridSpec(800, 800)
        mix = MixedState(components=((0.5, parse_state_spec("phase:n=4").obj),
                                     (0.5, parse_state_spec("noon:n=4").obj)))
        tracemalloc.start()
        try:
            discretize_state(mix, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * spec.n_pixels
