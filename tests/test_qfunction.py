import math

import numpy as np
import pytest

from polmaj import (Direction, EulerRotation, GridSpec, MixedState, PureFockState,
                    apply_su2, discretize_state, make_analytic, make_coherent,
                    make_noon, make_phase, q_analytic, q_evaluator, q_mixed,
                    q_on_grid, q_pure, random_pure, rotation_matrix, su2_overlap)

FOUR_PI = 4.0 * math.pi


class TestOverlap:
    def test_coherent_at_north_pole(self):
        for n in (0, 1, 4, 9):
            ov = su2_overlap(n, Direction(0.0, 0.0), make_coherent(n))
            assert ov == pytest.approx(1.0, abs=1e-14)
            # at the pole the azimuth only contributes a convention phase e^{i n phi}
            assert abs(su2_overlap(n, Direction(0.0, 0.3), make_coherent(n))) == \
                pytest.approx(1.0, abs=1e-14)

    def test_one_photon_example(self):
        # state (1, 0) on basis (|0,1>, |1,0>): overlap is sin(pi/4)
        state = PureFockState(n=1, amps=np.array([1.0, 0.0]))
        ov = su2_overlap(1, Direction(math.pi / 2, 0.0), state)
        assert ov == pytest.approx(math.sin(math.pi / 4), abs=1e-14)

    def test_photon_number_mismatch(self):
        with pytest.raises(ValueError):
            su2_overlap(3, Direction(0.1, 0.1), make_coherent(2))

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            q_pure(make_coherent(2), Direction(3.5, 0.0))

    def test_resolution_of_identity(self):
        # sum over a fine grid of |overlap|^2 (n+1)/(4 pi) dOmega -> 1
        state = random_pure(6, seed=2)
        raw = discretize_state(state, GridSpec(400, 400)).raw_mass
        assert raw == pytest.approx(1.0, abs=1e-3)

    def test_broadcasts_over_arrays(self):
        state = random_pure(3, seed=5)
        thetas = np.linspace(0, np.pi, 7)
        phis = np.linspace(-np.pi, np.pi, 7)
        arr = su2_overlap(3, Direction(thetas, phis), state)
        assert arr.shape == (7,)
        for i in range(7):
            assert arr[i] == pytest.approx(
                su2_overlap(3, Direction(thetas[i], phis[i]), state), abs=1e-15)


class TestQPure:
    @pytest.mark.parametrize("n", [0, 1, 2, 6])
    def test_coherent_closed_form(self, n):
        state = make_coherent(n)
        for theta in (0.0, 0.4, math.pi / 2, 2.9, math.pi):
            expect = (n + 1) / FOUR_PI * math.cos(theta / 2) ** (2 * n)
            assert q_pure(state, Direction(theta, 1.3)) == pytest.approx(expect, abs=1e-14)

    def test_coherent_peak_value(self):
        assert q_pure(make_coherent(4), Direction(0.0, 0.0)) == pytest.approx(5 / FOUR_PI)

    def test_noon2_on_equator(self):
        got = q_pure(make_noon(2), Direction(math.pi / 2, 0.0))
        assert got == pytest.approx(3.0 / (8.0 * math.pi), abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        state = random_pure(7, seed=1)
        q = q_pure(state, Direction(rng.uniform(0, np.pi, 200), rng.uniform(-np.pi, np.pi, 200)))
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
            back = Direction(np.arccos(np.clip(w[2], -1, 1)), np.arctan2(w[1], w[0]))
            assert q_pure(rotated, Direction(theta, phi)) == pytest.approx(
                q_pure(psi, back), abs=1e-10)


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
        omega = Direction(1.1, -0.4)
        assert q_mixed(mix, omega) == pytest.approx(q_pure(s, omega), abs=1e-15)

    def test_antipodal_mixture_symmetric(self):
        north = make_coherent(2)                       # |2,0>
        south = PureFockState(n=2, amps=np.array([1.0, 0, 0]))  # |0,2>
        mix = MixedState(components=((0.5, north), (0.5, south)))
        for theta in (0.2, 1.0, 1.4):
            a = q_mixed(mix, Direction(theta, 0.7))
            b = q_mixed(mix, Direction(math.pi - theta, 0.7))
            assert a == pytest.approx(b, abs=1e-14)
            expect = 0.5 * (q_pure(north, Direction(theta, 0.7))
                            + q_pure(south, Direction(theta, 0.7)))
            assert a == pytest.approx(expect, abs=1e-15)

    def test_thermal_truncation_matches_closed_form(self):
        nbar, cutoff = 10.0, 320  # tail mass (10/11)^321 ~ 5e-14
        mix = _truncated_thermal(nbar, cutoff)
        fam = make_analytic("thermal", nbar)
        thetas = np.linspace(0.0, np.pi, 23)
        got = q_mixed(mix, Direction(thetas, 0.0))
        want = q_analytic(fam, Direction(thetas, 0.0))
        assert np.max(np.abs(got - want)) < 1e-8

    def test_poisson_expansion_matches_glauber(self):
        nbar, cutoff = 10.0, 60  # Poisson tail far below 1e-12
        mix = _poisson_glauber(nbar, cutoff)
        fam = make_analytic("glauber", nbar)
        thetas = np.linspace(0.0, np.pi, 23)
        got = q_mixed(mix, Direction(thetas, 0.0))
        want = q_analytic(fam, Direction(thetas, 0.0))
        assert np.max(np.abs(got - want)) < 1e-8


class TestQAnalytic:
    def test_thermal_south_pole_value(self):
        fam = make_analytic("thermal", 10)
        expect = 11.0 / (FOUR_PI * 121.0)  # = 1/(44 pi)
        assert q_analytic(fam, Direction(math.pi, 0.0)) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(1.0 / (44.0 * math.pi))

    def test_vacuum_glauber_uniform(self):
        fam = make_analytic("glauber", 0.0)
        rng = np.random.default_rng(3)
        q = q_analytic(fam, Direction(rng.uniform(0, np.pi, 50), rng.uniform(-np.pi, np.pi, 50)))
        assert np.allclose(q, 1.0 / FOUR_PI, atol=1e-15)

    def test_tmsv_equator_value(self):
        fam = make_analytic("tmsv", 10)
        expect = math.sqrt(12.0) / (2.0 * math.pi) / 2.0 ** 1.5
        assert q_analytic(fam, Direction(math.pi / 2, 0.3)) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("kind", ["glauber", "thermal", "tmsv"])
    def test_phi_independence_exact(self, kind):
        fam = make_analytic(kind, 7.5)
        thetas = np.linspace(0, np.pi, 11)
        a = q_analytic(fam, Direction(thetas, np.full(11, -2.0)))
        b = q_analytic(fam, Direction(thetas, np.full(11, 1.3)))
        assert np.array_equal(a, b)

    def test_glauber_minimum_at_south_pole(self):
        fam = make_analytic("glauber", 6.0)
        thetas = np.linspace(0, np.pi, 301)
        q = q_analytic(fam, Direction(thetas, 0.0))
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

    def test_evaluator_dispatch(self):
        omega = Direction(0.9, 0.2)
        pure = make_phase(3)
        mix = MixedState(components=((1.0, pure),))
        fam = make_analytic("tmsv", 2.0)
        assert q_evaluator(pure)(omega) == q_pure(pure, omega)
        assert q_evaluator(mix)(omega) == q_mixed(mix, omega)
        assert q_evaluator(fam)(omega) == q_analytic(fam, omega)
        with pytest.raises(TypeError):
            q_evaluator("coherent:n=2")

    def test_q_on_grid_matches_pointwise(self):
        thetas = np.linspace(0.05, np.pi - 0.05, 6)
        phis = np.linspace(-np.pi, np.pi, 5)
        for obj in (random_pure(5, seed=4),
                    MixedState(components=((0.3, make_coherent(2)), (0.7, make_noon(3)))),
                    make_analytic("thermal", 4.0)):
            grid_vals = q_on_grid(obj, thetas, phis)
            assert grid_vals.shape == (6, 5)
            ev = q_evaluator(obj)
            for i in range(6):
                for j in range(5):
                    assert grid_vals[i, j] == pytest.approx(
                        ev(Direction(thetas[i], phis[j])), rel=1e-12, abs=1e-15)
