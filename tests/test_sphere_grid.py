import math
import tracemalloc

import numpy as np
import pytest

from polmaj import (DiscreteDistribution, EulerRotation, EvaluationError, GridSpec,
                    MixedState, PureFockState, apply_su2, band_thetas, discretize_state,
                    grid_directions, lorenz, make_analytic, make_coherent, q_analytic,
                    q_pure, random_pure, sector_phis)

FOUR_PI = 4.0 * math.pi


class TestGridSpec:
    def test_pixel_count_and_area(self):
        spec = GridSpec(10, 20)
        assert spec.n_pixels == 200
        assert spec.pixel_solid_angle == pytest.approx(FOUR_PI / 200)

    @pytest.mark.parametrize("nt,np_", [(0, 5), (5, 0), (-1, 4), (1, 1)])
    def test_invalid_specs(self, nt, np_):
        with pytest.raises(ValueError):
            GridSpec(nt, np_)


class TestGridDirections:
    def test_two_band_thetas(self):
        got = band_thetas(GridSpec(2, 2))
        assert np.allclose(got, [math.acos(-0.5), math.acos(0.5)])
        assert got[0] == pytest.approx(2 * math.pi / 3)
        assert got[1] == pytest.approx(math.pi / 3)

    def test_four_sector_phis(self):
        got = sector_phis(GridSpec(2, 4))
        assert np.allclose(got, [-math.pi / 2, 0.0, math.pi / 2, math.pi])

    def test_flat_ordering(self):
        spec = GridSpec(2, 3)
        omega = grid_directions(spec)
        thetas, phis = band_thetas(spec), sector_phis(spec)
        # j = n_phi (l - 1) + k: theta constant inside each band, phi cycling
        assert np.array_equal(omega.theta, np.repeat(thetas, 3))
        assert np.array_equal(omega.phi, np.tile(phis, 2))

    def test_equal_area_exact(self):
        spec = GridSpec(37, 11)
        dcos = np.diff(np.cos(band_thetas(spec)))
        assert np.allclose(dcos, 2.0 / 37, atol=1e-12)
        dphi = np.diff(sector_phis(spec))
        assert np.allclose(dphi, 2 * math.pi / 11, atol=1e-12)


class TestDiscretize:
    def test_uniform_q(self):
        # the equal mixture of the n+1 Dicke states |m, n-m> has Q = 1 / (4 pi) exactly
        n = 3
        dicke = [PureFockState(n=n, amps=np.eye(n + 1)[m]) for m in range(n + 1)]
        spec = GridSpec(20, 30)
        dist = discretize_state(MixedState(components=tuple((1.0 / (n + 1), s) for s in dicke)),
                                spec)
        assert dist.raw_mass == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dist.p, 1.0 / spec.n_pixels, rtol=1e-12)

    def test_coherent_raw_mass(self):
        dist = discretize_state(make_coherent(2), GridSpec(400, 400))
        assert dist.raw_mass == pytest.approx(1.0, abs=1e-3)

    def test_thermal_bands_constant_in_phi(self):
        spec = GridSpec(50, 40)
        dist = discretize_state(make_analytic("thermal", 10.0), spec)
        bands = dist.p.reshape(50, 40)
        assert np.all(bands == bands[:, :1])

    def test_matches_generic_discretize(self):
        # the pointwise oracles on the flat pixel centers, weighted and normalized here
        spec = GridSpec(40, 50)
        omega = grid_directions(spec)
        for obj, oracle in ((random_pure(4, seed=6), q_pure),
                            (make_analytic("glauber", 3.0), q_analytic)):
            a = discretize_state(obj, spec)
            raw = oracle(obj, omega) * spec.pixel_solid_angle
            assert np.allclose(a.p, raw / raw.sum(), rtol=1e-12, atol=1e-18)
            assert a.raw_mass == pytest.approx(raw.sum(), rel=1e-12)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            w = np.ones(16)
            w[3] = bad
            with pytest.raises(EvaluationError):
                DiscreteDistribution.from_weights(w)

    def test_rejects_negative(self):
        w = np.ones(16)
        w[0] = -1e-3
        with pytest.raises(EvaluationError):
            DiscreteDistribution.from_weights(w)

    def test_rejects_zero_mass(self):
        # at 4x4 the band nearest a pole has sin^2(theta/2) = 1/8, so Q ~ exp(-1.25e8) = 0
        with pytest.raises(EvaluationError, match="vanish"):
            discretize_state(make_analytic("glauber", 1e9), GridSpec(4, 4))

    def test_keeps_its_array(self, monkeypatch):
        # the normalized weights become d.p as they are: no copy inside DiscreteDistribution
        given = []
        post_init = DiscreteDistribution.__post_init__

        def spy(self):
            given.append(self.p)
            post_init(self)

        monkeypatch.setattr(DiscreteDistribution, "__post_init__", spy)
        d = discretize_state(make_coherent(3), GridSpec(20, 30))
        assert d.p is given[0]
        assert d.p.flags.owndata and not d.p.flags.writeable

    @pytest.mark.parametrize("obj", [make_analytic("thermal", 10.0), make_coherent(4),
                                     random_pure(6, seed=1)], ids=["thermal", "coherent", "random"])
    def test_peak_memory(self, obj):
        # q on the grid, q weighted, p: the pure states add the complex amplitude sum
        spec = GridSpec(600, 600)
        tracemalloc.start()
        try:
            d = discretize_state(obj, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * d.p.nbytes


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(p=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteDistribution(p=np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DiscreteDistribution(p=np.array([0.5, np.nan]))

    def test_from_weights(self):
        d = DiscreteDistribution.from_weights([2.0, 6.0])
        assert np.allclose(d.p, [0.25, 0.75])
        assert d.raw_mass == pytest.approx(8.0)
        with pytest.raises(ValueError):
            DiscreteDistribution.from_weights([0.0, 0.0])

    def test_read_only(self):
        d = DiscreteDistribution.from_weights([1.0, 3.0])
        with pytest.raises(ValueError):
            d.p[0] = 0.9

    def test_read_only_owned_array_is_kept(self):
        d = DiscreteDistribution.from_weights([1.0, 3.0])
        assert DiscreteDistribution(p=d.p).p is d.p

    def test_caller_arrays_are_copied(self):
        # a writeable array, or a read-only view of one, can still change under d.p
        arr = np.array([0.25, 0.75])
        view = arr.view()
        view.flags.writeable = False
        dists = [DiscreteDistribution(p=given) for given in (arr, view)]
        assert arr.flags.writeable
        arr[:] = [0.5, 0.5]
        for d in dists:
            assert not np.shares_memory(d.p, arr)
            assert d.p.tolist() == [0.25, 0.75]


class TestRotationRobustness:
    def test_curves_stable_under_rotation(self):
        # discretizing a state and a rotated copy must give Lorenz curves within
        # the sampling bound 5/n_theta
        grid = GridSpec(400, 400)
        rotations = [EulerRotation(0.7, 1.1, -2.0), EulerRotation(-2.3, 2.6, 0.4)]
        for state in (make_coherent(3), random_pure(5, seed=12)):
            ref = lorenz(discretize_state(state, grid))
            for rot in rotations:
                cur = lorenz(discretize_state(apply_su2(state, rot), grid))
                assert np.max(np.abs(cur.s - ref.s)) <= 5.0 / grid.n_theta
