import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmaj import (ALPHA_SWEEP, RENYI_Q_SWEEP, DiscreteDistribution, GridSpec, Relation,
                    compare, confidence_interval, discretize_state, lorenz, make_analytic,
                    make_noon, renyi)

from oracles import t_transform


def dist(*values):
    return DiscreteDistribution(values=np.array(values, dtype=float))


weights_strategy = st.lists(st.integers(0, 50), min_size=2, max_size=12).filter(
    lambda w: sum(w) > 0)


class TestConfidenceInterval:
    def test_delta_needs_one_pixel(self):
        d = dist(0.0, 1.0, 0.0)
        for alpha in ALPHA_SWEEP + (1.0,):
            assert confidence_interval(d, alpha) == 1

    def test_uniform_example(self):
        d = DiscreteDistribution(values=np.full(10, 0.1))
        assert confidence_interval(d, 0.35) == 4

    def test_alpha_one_counts_support(self):
        d = dist(0.5, 0.3, 0.2, 0.0, 0.0)
        assert confidence_interval(d, 1.0) == 3

    def test_alpha_validation(self):
        d = dist(0.5, 0.5)
        for alpha in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                confidence_interval(d, alpha)

    def test_one_sort_per_distribution(self, monkeypatch):
        d = discretize_state(make_noon(3), GridSpec(20, 30))
        sort, calls = np.sort, []
        monkeypatch.setattr(np, "sort", lambda *a, **k: calls.append(1) or sort(*a, **k))
        lorenz(d)
        for alpha in ALPHA_SWEEP:
            confidence_interval(d, alpha)
        assert len(calls) == 1

    @given(w=weights_strategy)
    @settings(max_examples=80, deadline=None)
    def test_nondecreasing_in_alpha(self, w):
        d = DiscreteDistribution.from_weights(np.asarray(w, dtype=float))
        ks = [confidence_interval(d, a) for a in ALPHA_SWEEP]
        assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))


class TestRenyi:
    def test_uniform_is_log_n(self):
        d = DiscreteDistribution(values=np.full(16, 1 / 16))
        for q in RENYI_Q_SWEEP:
            assert renyi(d, q) == pytest.approx(math.log(16), abs=1e-12)

    def test_collision_entropy_of_coin(self):
        assert renyi(dist(0.5, 0.5), 2.0) == pytest.approx(math.log(2), abs=1e-14)

    def test_zero_pixels_ignored(self):
        a = dist(0.5, 0.5, 0.0)
        b = dist(0.5, 0.5)
        for q in (0.5, 1.0, 3.0):
            assert renyi(a, q) == pytest.approx(renyi(b, q), abs=1e-14)

    def test_continuity_at_shannon_point(self):
        rng = np.random.default_rng(8)
        d = DiscreteDistribution.from_weights(rng.random(50))
        r1 = renyi(d, 1.0)
        assert renyi(d, 1.0 + 1e-6) == pytest.approx(r1, abs=1e-5)
        assert renyi(d, 1.0 - 1e-6) == pytest.approx(r1, abs=1e-5)

    def test_continuity_near_shannon_point(self):
        # q ln p_max and ln sum (p/p_max)^q cancel here; each side must still agree
        d = DiscreteDistribution.from_weights(np.random.default_rng(8).random(50))
        for q in (1.0 - 1e-12, 1.0 + 1e-12):
            assert renyi(d, q) == pytest.approx(renyi(d, 1.0), abs=1e-12)

    def test_index_validation(self):
        for q in (0.0, -2.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                renyi(dist(0.5, 0.5), q)

    def test_large_q_on_concentrated_grid(self):
        # every p^q underflows here; R_q must still lie between R_inf and R_50
        d = discretize_state(make_analytic("thermal", 10.0), GridSpec(400, 400))
        floor, r50 = -math.log(d.p.max()), renyi(d, 50.0)
        for q in (100.0, 1000.0):
            assert floor <= renyi(d, q) <= r50

    def test_min_entropy_at_infinity(self):
        d = DiscreteDistribution.from_weights(np.random.default_rng(9).random(40))
        assert renyi(d, math.inf) == -math.log(d.p.max())
        assert renyi(dist(0.25, 0.75), math.inf) == -math.log(0.75)

    @given(w=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12).filter(lambda w: sum(w) > 0),
           qs=st.lists(st.floats(0.0, math.inf, exclude_min=True), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_finite_and_nonincreasing_over_all_q(self, w, qs):
        d = DiscreteDistribution.from_weights(np.asarray(w, dtype=float))
        vals = [renyi(d, q) for q in sorted(qs)]
        assert all(math.isfinite(v) for v in vals)
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    @given(w=weights_strategy)
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_in_q(self, w):
        d = DiscreteDistribution.from_weights(np.asarray(w, dtype=float))
        qs = (0.25, 0.5, 1.0, 2.0, 5.0, 12.0)
        vals = [renyi(d, q) for q in qs]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestSchurConsistency:
    def test_t_transform_pairs(self):
        # majorization must push every K(alpha) up and every R_q up
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(4, 33))
            p = DiscreteDistribution.from_weights(rng.random(n))
            i, j = rng.choice(n, size=2, replace=False)
            mixed = t_transform(p, int(i), int(j), float(rng.random()))
            v = compare(lorenz(p), lorenz(mixed), tol=1e-12)
            assert v.relation in (Relation.MAJORIZES, Relation.EQUAL)
            for alpha in ALPHA_SWEEP:
                assert confidence_interval(mixed, alpha) >= confidence_interval(p, alpha)
            for q in RENYI_Q_SWEEP:
                assert renyi(mixed, q) >= renyi(p, q) - 1e-12


class TestMajorizationSeparatesEntropies:
    def test_coherent_beats_noon_at_every_q(self, cache):
        # coherent majorizes the n=2 N00N state, so every swept entropy is smaller
        pc = cache.dist("coherent:n=2")
        pn = cache.dist("noon:n=2")
        for q in RENYI_Q_SWEEP:
            assert renyi(pc, q) < renyi(pn, q)


class TestIncomparabilitySignature:
    def test_squeezed_noon_n4_disagreement(self, cache):
        # crossing curves must produce opposite confidence-interval orderings and a
        # sign change in the Renyi difference across the index sweep
        ps = cache.dist("squeezed:n=4")
        pn = cache.dist("noon:n=4")
        v = compare(cache.curve("squeezed:n=4"), cache.curve("noon:n=4"))
        assert v.relation is Relation.INCOMPARABLE

        kdiff = [confidence_interval(ps, a) - confidence_interval(pn, a)
                 for a in ALPHA_SWEEP]
        assert min(kdiff) < 0 < max(kdiff)

        qgrid = np.concatenate([np.linspace(0.1, 0.9, 9), np.linspace(1.0, 20.0, 20)])
        rdiff = [renyi(ps, float(q)) - renyi(pn, float(q)) for q in qgrid]
        assert min(rdiff) < 0 < max(rdiff)
        lo = ALPHA_SWEEP[int(np.argmin(kdiff))]
        hi = ALPHA_SWEEP[int(np.argmax(kdiff))]
        print(f"K-ordering witnesses: alpha={lo} vs alpha={hi}; "
              f"Renyi sign change within q in [{qgrid[0]}, {qgrid[-1]}]")
