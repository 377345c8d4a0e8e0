import math
import tracemalloc
import warnings

import numpy as np
import pytest

from polmaj import (ALPHA_SWEEP, RENYI_Q_SWEEP, AnalyticQFamily, DiscreteDistribution,
                    EulerRotation, EvaluationError, GridSpec, MixedState, PureFockState,
                    apply_su2, band_thetas, confidence_interval, discretize_state, lorenz,
                    make_analytic, make_coherent, make_noon, make_phase, q_on_grid,
                    random_pure, renyi, sector_phis)
from polmaj.cli import parse_state_spec

from oracles import q_mixed, q_pure

FOUR_PI = 4.0 * math.pi
QS = RENYI_Q_SWEEP + (math.inf,)


class TestGridSpec:
    def test_pixel_count_and_area(self):
        spec = GridSpec(10, 20)
        assert spec.n_pixels == 200
        assert spec.pixel_solid_angle == pytest.approx(FOUR_PI / 200)

    @pytest.mark.parametrize("nt,np_", [(0, 5), (5, 0), (-1, 4), (1, 1), (math.inf, 4),
                                        (4, math.nan), (True, 4), (4, True), (2.5, 4),
                                        ("4", 4)])
    def test_invalid_specs(self, nt, np_):
        with pytest.raises(ValueError):
            GridSpec(nt, np_)

    def test_sizes_stored_as_ints(self):
        spec = GridSpec(np.int64(4), 6.0)
        assert type(spec.n_theta) is int and type(spec.n_phi) is int
        assert spec == GridSpec(4, 6)


class TestGridDirections:
    def test_two_band_thetas(self):
        got = band_thetas(GridSpec(2, 2))
        assert np.allclose(got, [math.acos(-0.5), math.acos(0.5)])
        assert got[0] == pytest.approx(2 * math.pi / 3)
        assert got[1] == pytest.approx(math.pi / 3)

    def test_four_sector_phis(self):
        got = sector_phis(GridSpec(2, 4))
        assert np.allclose(got, [-math.pi / 2, 0.0, math.pi / 2, math.pi])

    def test_equal_area_exact(self):
        spec = GridSpec(37, 11)
        dcos = np.diff(np.cos(band_thetas(spec)))
        assert np.allclose(dcos, 2.0 / 37, atol=1e-12)
        dphi = np.diff(sector_phis(spec))
        assert np.allclose(dphi, 2 * math.pi / 11, atol=1e-12)


def dense_oracle(obj, spec):
    """Pixel probabilities and raw mass from the pointwise Q on every pixel center."""
    theta = np.repeat(band_thetas(spec), spec.n_phi)
    phi = np.tile(sector_phis(spec), spec.n_theta)
    if isinstance(obj, AnalyticQFamily):
        q = q_on_grid(obj, theta, phi)[:, 0]        # phi-independent: shape (N, 1)
    elif isinstance(obj, MixedState):
        q = q_mixed(obj, theta, phi)
    else:
        q = q_pure(obj, theta, phi)
    raw = q * spec.pixel_solid_angle
    return raw / raw.sum(), float(raw.sum())


def oracle_renyi(p, q):
    p = p[p > 0.0]
    if q == 1.0:
        return float(-np.sum(p * np.log(p)))
    if q == math.inf:
        return -math.log(float(p.max()))
    return math.log(float(np.sum(p ** q))) / (1.0 - q)


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
        # the pointwise oracles on the flat pixel centers, weighted and normalized
        spec = GridSpec(40, 50)
        for obj in (random_pure(4, seed=6), make_analytic("glauber", 3.0)):
            a = discretize_state(obj, spec)
            p, raw_mass = dense_oracle(obj, spec)
            assert np.allclose(a.p, p, rtol=1e-12, atol=1e-18)
            assert a.raw_mass == pytest.approx(raw_mass, rel=1e-12)

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

    @pytest.mark.parametrize("weights, repeat", [([1e308, 1e308], 1), ([1e308], 10)])
    def test_rejects_overflowing_total(self, weights, repeat):
        # each weight is finite but their total is not: no overflow warning, no 0.0 probabilities
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="float range"):
                DiscreteDistribution.from_weights(weights, repeat=repeat)

    def test_keeps_its_array(self, spy_values):
        # the normalized weights become d.p as they are: no copy inside DiscreteDistribution
        d = discretize_state(make_phase(3), GridSpec(20, 30))
        assert d.repeat == 1
        assert d.values is spy_values[0] and d.p is spy_values[0]
        assert d.p.flags.owndata and not d.p.flags.writeable

    def test_keeps_its_band_values(self, spy_values):
        # a phi-independent state keeps one value per band, uncopied; p is built from it
        d = discretize_state(make_coherent(3), GridSpec(20, 30))
        assert d.repeat == 30 and d.values.size == 20
        assert d.values is spy_values[0]
        assert d.p.size == 600 and not np.shares_memory(d.p, d.values)
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
            DiscreteDistribution(values=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteDistribution(values=np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DiscreteDistribution(values=np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteDistribution(values=np.array([0.5, 0.5]), repeat=2)
        for bad in (0, True, 2.5):
            with pytest.raises(ValueError, match="repeat"):
                DiscreteDistribution(values=np.array([0.5, 0.5]), repeat=bad)

    def test_equality_is_identity(self):
        a = DiscreteDistribution(values=np.array([0.5, 0.5]))
        b = DiscreteDistribution(values=np.array([0.5, 0.5]))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_repeated_values(self):
        d = DiscreteDistribution.from_weights([3.0, 1.0], repeat=3)
        assert d.raw_mass == 12.0 and d.n_pixels == 6
        assert d.p.tolist() == [0.25, 0.25, 0.25, 1 / 12, 1 / 12, 1 / 12]
        assert np.allclose(d.descending_cumsum, np.cumsum(d.p))
        assert d.descending_cumsum[-1] == 1.0
        with pytest.raises(EvaluationError, match="vanish"):
            DiscreteDistribution.from_weights([0.0, 0.0], repeat=3)

    @pytest.mark.parametrize("repeat", [0, -2, 2.5, True, 1e400])
    def test_from_weights_rejects_bad_repeat(self, repeat):
        # repeat is checked before it scales the total, by the rule the constructor applies
        with pytest.raises(ValueError, match="repeat must be a positive integer") as err:
            DiscreteDistribution.from_weights([1.0, 1.0], repeat=repeat)
        assert not isinstance(err.value, EvaluationError)

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
        assert DiscreteDistribution(values=d.p).p is d.p

    def test_caller_arrays_are_copied(self):
        # a writeable array, or a read-only view of one, can still change under d.p
        arr = np.array([0.25, 0.75])
        view = arr.view()
        view.flags.writeable = False
        dists = [DiscreteDistribution(values=given) for given in (arr, view)]
        assert arr.flags.writeable
        arr[:] = [0.5, 0.5]
        for d in dists:
            assert not np.shares_memory(d.p, arr)
            assert d.p.tolist() == [0.25, 0.75]


# single-m Dicke states of different photon numbers: every component is phi-independent
DICKE_MIXTURE = MixedState(components=(
    (0.5, PureFockState(n=4, amps=np.eye(5)[2])),
    (0.3, PureFockState(n=3, amps=np.eye(4)[0])),
    (0.2, PureFockState(n=6, amps=np.eye(7)[5]))))
PHI_INDEPENDENT = {spec: parse_state_spec(spec).obj
                   for spec in ("coherent:n=4", "coherent:n=1000", "squeezed:n=4",
                                "squeezed:n=200", "glauber:nbar=10", "thermal:nbar=10",
                                "tmsv:nbar=10")}
PHI_INDEPENDENT["dicke-mixture"] = DICKE_MIXTURE


class TestRepeatedStorage:
    """phi-independent states store one value per band, repeated over every sector."""

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="the curve oracle needs a long double wider than float64")
    @pytest.mark.parametrize("spec", [GridSpec(7, 13), GridSpec(400, 400), GridSpec(1200, 1200)],
                             ids=["7x13", "400^2", "1200^2"])
    @pytest.mark.parametrize("name", list(PHI_INDEPENDENT))
    def test_matches_dense_oracle(self, name, spec):
        obj = PHI_INDEPENDENT[name]
        d = discretize_state(obj, spec)
        assert d.repeat == spec.n_phi and d.values.size == spec.n_theta
        p, raw_mass = dense_oracle(obj, spec)
        # prefix sums in long double: a float64 sum over N pixels drifts by ~1e-12
        # at 1200^2, more than the curve under test
        s = np.cumsum(np.sort(p)[::-1].astype(np.longdouble))
        s = (s / s[-1]).astype(float)
        assert d.raw_mass == pytest.approx(raw_mass, rel=1e-12)
        for q in QS:
            assert renyi(d, q) == pytest.approx(oracle_renyi(p, q), rel=1e-12, abs=1e-12)
        assert np.max(np.abs(d.descending_cumsum - s)) <= 1e-14
        for alpha in ALPHA_SWEEP:
            assert confidence_interval(d, alpha) == int(np.searchsorted(s, alpha)) + 1
        np.testing.assert_allclose(d.p, p, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", [GridSpec(7, 13), GridSpec(1200, 1200)], ids=["7x13", "1200^2"])
    @pytest.mark.parametrize("name", list(PHI_INDEPENDENT))
    def test_curve_built_from_runs(self, name, spec):
        # each run ends on E_j = cumsum(desc * repeat) bit for bit, so S_N is exactly 1
        d = discretize_state(PHI_INDEPENDENT[name], spec)
        s = d.descending_cumsum
        assert s[-1] == 1.0
        ends = np.cumsum(np.sort(d.values)[::-1] * d.repeat)
        assert np.array_equal(s[d.repeat - 1::d.repeat], ends / ends[-1])
        assert s.flags.owndata and not s.flags.writeable
        assert lorenz(d).s is s

    def test_curve_of_repeated_storage_allocates_two_copies_at_most(self):
        # S_k of 1.44M pixels is filled run by run in one scratch array and divided out
        # of it into the result; the curve checks work in cache-sized windows
        d = discretize_state(make_analytic("thermal", 10.0), GridSpec(1200, 1200))
        tracemalloc.start()
        try:
            lorenz(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * d.n_pixels

    @pytest.mark.parametrize("obj", [
        parse_state_spec("noon:n=4").obj, parse_state_spec("squeezed:n=5").obj,
        parse_state_spec("random:n=6,seed=3").obj,
        apply_su2(make_coherent(4), EulerRotation(0.3, 1.1, -0.4))],
        ids=["noon", "squeezed-odd", "random", "rotated-coherent"])
    def test_phi_dependent_states_keep_every_pixel(self, obj):
        spec = GridSpec(7, 13)
        d = discretize_state(obj, spec)
        assert d.repeat == 1 and d.values.size == spec.n_pixels

    def test_mixture_with_a_phi_dependent_component_keeps_every_pixel(self):
        obj = MixedState(components=((0.3, make_coherent(2)), (0.7, make_noon(3))))
        spec = GridSpec(7, 13)
        d = discretize_state(obj, spec)
        assert d.repeat == 1 and d.values.size == spec.n_pixels
        p, raw_mass = dense_oracle(obj, spec)
        np.testing.assert_allclose(d.p, p, rtol=1e-12, atol=0.0)
        assert d.raw_mass == pytest.approx(raw_mass, rel=1e-12)

    def test_measures_and_curve_do_not_build_p(self):
        d = discretize_state(make_analytic("thermal", 10.0), GridSpec(40, 50))
        lorenz(d)
        for alpha in ALPHA_SWEEP:
            confidence_interval(d, alpha)
        for q in QS:
            renyi(d, q)
        assert "p" not in d.__dict__

    def test_sort_of_every_pixel_allocates_no_extra_copy(self):
        # a repeat-1 distribution sorts into one array and accumulates into another
        d = discretize_state(random_pure(6, seed=2), GridSpec(400, 400))
        assert d.repeat == 1
        tracemalloc.start()
        try:
            d.descending_cumsum
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * d.p.nbytes


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
