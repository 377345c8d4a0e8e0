import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmaj import (DiscreteDistribution, GridSpec, LorenzCurve, Relation, compare,
                    discretize_state, lorenz, make_analytic, partial_order, permutation_mix,
                    render_chain, t_transform)


def dist(*values):
    return DiscreteDistribution(p=np.array(values, dtype=float))


def curve_of(*values):
    return lorenz(dist(*values))


weights_strategy = st.lists(st.integers(0, 100), min_size=2, max_size=10).filter(
    lambda w: sum(w) > 0)


def dist_from_ints(w):
    return DiscreteDistribution.from_weights(np.asarray(w, dtype=float))


class TestLorenz:
    def test_sort_and_sum_example(self):
        assert np.allclose(curve_of(0.2, 0.5, 0.3).s, [0.5, 0.8, 1.0])

    def test_delta_is_all_ones(self):
        assert np.allclose(curve_of(1.0, 0.0, 0.0, 0.0).s, 1.0)

    def test_uniform_is_linear(self):
        n = 8
        assert np.allclose(lorenz(DiscreteDistribution(p=np.full(n, 1 / n))).s,
                           np.arange(1, n + 1) / n)

    def test_deterministic_tie_breaking(self):
        # the curve of tied values does not depend on the order they are summed in
        d = dist(0.25, 0.25, 0.25, 0.25)
        assert np.array_equal(lorenz(d).s, np.cumsum(d.p))

    def test_endpoint_exact_on_fine_grid(self):
        # a sequential sum over 1.44M pixels drifts past LorenzCurve's 1e-12 check
        d = discretize_state(make_analytic("glauber", 10.0), GridSpec(1200, 1200))
        assert lorenz(d).s[-1] == 1.0

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            LorenzCurve(s=np.array([0.5, 0.4, 1.0]))       # decreasing
        with pytest.raises(ValueError):
            LorenzCurve(s=np.array([0.2, 0.9, 1.0]))       # increments grow
        with pytest.raises(ValueError):
            LorenzCurve(s=np.array([0.5, 0.8, 0.9]))       # endpoint != 1


class TestCompare:
    def test_delta_majorizes_uniform(self):
        v = compare(curve_of(1.0, 0.0, 0.0), curve_of(1 / 3, 1 / 3, 1 / 3), tol=1e-12)
        assert v.relation is Relation.MAJORIZES

    def test_self_is_equal(self):
        c = curve_of(0.4, 0.35, 0.25)
        assert compare(c, c, tol=0.0).relation is Relation.EQUAL

    def test_hand_computed_incomparable(self):
        a = curve_of(0.6, 0.2, 0.2)   # S = (0.6, 0.8, 1.0)
        b = curve_of(0.5, 0.5, 0.0)   # S = (0.5, 1.0, 1.0)
        v = compare(a, b, tol=1e-12)
        assert v.relation is Relation.INCOMPARABLE
        assert v.witnesses == (1, 2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_rejects_bad_tol(self, tol):
        c = curve_of(0.4, 0.35, 0.25)
        with pytest.raises(ValueError, match="tol"):
            compare(c, c, tol=tol)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare(curve_of(1.0), curve_of(0.5, 0.5))

    def test_tolerance_turns_near_ties_equal(self):
        a = curve_of(0.5 + 1e-6, 0.5 - 1e-6)
        b = curve_of(0.5, 0.5)
        assert compare(a, b, tol=1e-12).relation is Relation.MAJORIZES
        assert compare(a, b, tol=1e-4).relation is Relation.EQUAL

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_antisymmetry(self, data):
        n = data.draw(st.integers(2, 10))
        positive = st.lists(st.integers(0, 100), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0)
        wa = data.draw(positive)
        wb = data.draw(positive)
        tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-3]))
        a, b = lorenz(dist_from_ints(wa)), lorenz(dist_from_ints(wb))
        ab, ba = compare(a, b, tol), compare(b, a, tol)
        expected = {Relation.MAJORIZES: Relation.MAJORIZED_BY,
                    Relation.MAJORIZED_BY: Relation.MAJORIZES,
                    Relation.EQUAL: Relation.EQUAL,
                    Relation.INCOMPARABLE: Relation.INCOMPARABLE}[ab.relation]
        assert ba.relation is expected
        if ab.relation is Relation.INCOMPARABLE:
            assert ba.witnesses == (ab.witnesses[1], ab.witnesses[0])


class TestTTransform:
    def test_identity_mixing(self):
        d = dist(0.7, 0.3)
        out = t_transform(d, 0, 1, 0.0)
        assert np.array_equal(out.p, d.p)

    def test_full_averaging(self):
        out = t_transform(dist(0.7, 0.3), 0, 1, 0.5)
        assert np.allclose(out.p, [0.5, 0.5])

    def test_validation(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            t_transform(d, 0, 0, 0.5)
        with pytest.raises(ValueError):
            t_transform(d, 0, 2, 0.5)
        with pytest.raises(ValueError):
            t_transform(d, 0, 1, 1.5)

    @given(w=weights_strategy, lam=st.floats(0, 1), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_output_majorized_by_input(self, w, lam, data):
        d = dist_from_ints(w)
        n = d.n_pixels
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda x: x != i))
        out = t_transform(d, i, j, lam)
        v = compare(lorenz(d), lorenz(out), tol=1e-12)
        assert v.relation in (Relation.MAJORIZES, Relation.EQUAL)


class TestPermutationMix:
    def test_identity_permutation(self):
        d = dist(0.4, 0.3, 0.3)
        out = permutation_mix(d, [np.arange(3)], [1.0])
        assert np.array_equal(out.p, d.p)

    def test_cyclic_average_is_uniform(self):
        d = dist(0.55, 0.25, 0.15, 0.05)
        perms = [np.roll(np.arange(4), k) for k in range(4)]
        out = permutation_mix(d, perms, [0.25] * 4)
        assert np.allclose(out.p, 0.25)

    def test_validation(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            permutation_mix(d, [np.array([0, 0])], [1.0])
        with pytest.raises(ValueError):
            permutation_mix(d, [np.arange(2)], [0.5])
        with pytest.raises(ValueError):
            permutation_mix(d, [np.arange(2), np.arange(2)], [0.5])

    @given(w=weights_strategy, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_mixture_majorized_by_input(self, w, data):
        d = dist_from_ints(w)
        n = d.n_pixels
        nperm = data.draw(st.integers(1, 4))
        perms = [np.array(data.draw(st.permutations(range(n)))) for _ in range(nperm)]
        raw = [data.draw(st.integers(1, 10)) for _ in range(nperm)]
        weights = np.array(raw, dtype=float) / sum(raw)
        out = permutation_mix(d, perms, weights)
        v = compare(lorenz(d), lorenz(out), tol=1e-12)
        assert v.relation in (Relation.MAJORIZES, Relation.EQUAL)


class TestTransitivityExact:
    def test_dyadic_chain_transitive_at_zero_tol(self):
        # dyadic values and dyadic mixing weights stay exact in binary floats,
        # so verdicts at tol = 0 are exact and transitivity must hold
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            counts = rng.multinomial(64, np.ones(n) / n)
            p0 = DiscreteDistribution(p=counts / 64.0)
            def step(d):
                i, j = rng.choice(d.n_pixels, size=2, replace=False)
                lam = rng.integers(1, 9) / 8.0
                return t_transform(d, int(i), int(j), float(lam))
            p1, p2 = step(p0), None
            p2 = step(p1)
            c0, c1, c2 = lorenz(p0), lorenz(p1), lorenz(p2)
            r10 = compare(c0, c1, tol=0.0).relation
            r21 = compare(c1, c2, tol=0.0).relation
            r20 = compare(c0, c2, tol=0.0).relation
            assert r10 in (Relation.MAJORIZES, Relation.EQUAL)
            assert r21 in (Relation.MAJORIZES, Relation.EQUAL)
            if r10 is Relation.EQUAL and r21 is Relation.EQUAL:
                assert r20 is Relation.EQUAL
            else:
                assert r20 is Relation.MAJORIZES


class TestPartialOrder:
    def test_single_item(self):
        res = partial_order([("only", dist(0.6, 0.4))])
        assert res.matrix[0][0].relation is Relation.EQUAL
        assert res.chain == "only"
        assert res.violations == ()

    def test_t_transform_descendants_form_chain(self):
        p0 = dist(0.5, 0.25, 0.125, 0.125)
        p1 = t_transform(p0, 0, 1, 0.25)
        p2 = t_transform(p1, 0, 2, 0.25)
        res = partial_order([("a", p0), ("b", p1), ("c", p2)], tol=1e-12)
        assert res.chain == "c ≺ b ≺ a"
        assert res.violations == ()

    def test_incomparable_layer_rendering(self):
        res = partial_order([("x", dist(0.6, 0.2, 0.2)), ("y", dist(0.5, 0.5, 0.0))],
                            tol=1e-12)
        assert res.chain == "x ⋈ y"

    def test_equal_group_rendering(self):
        res = partial_order([("x", dist(0.5, 0.3, 0.2)),
                             ("y", dist(0.2, 0.5, 0.3)),
                             ("z", dist(0.4, 0.4, 0.2))], tol=1e-9)
        # x and y are permutations: identical curves; z is incomparable-free here:
        # its curve (0.4, 0.8, 1.0) is majorized by (0.5, 0.8, 1.0)
        assert res.chain == "z ≺ x≡y"

    def test_curves_in_item_order(self):
        items = [("x", dist(0.6, 0.2, 0.2)), ("y", dist(0.1, 0.5, 0.4))]
        res = partial_order(items)
        assert [c.s.tolist() for c in res.curves] == [lorenz(d).s.tolist() for _, d in items]

    def test_render_chain_ascii(self):
        layers = ((("H",),), (("S",), ("N",)), (("P", "C"),))
        assert render_chain(layers) == "H ≺ S ⋈ N ≺ P≡C"
        assert render_chain(layers, ascii_glyphs=True) == "H < S >< N < P==C"

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_order([("a", dist(0.5, 0.5)), ("b", dist(0.4, 0.3, 0.3))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            partial_order([("a", dist(0.5, 0.5)), ("a", dist(0.6, 0.4))])


class TestExtremes:
    def test_delta_and_uniform_bound_random_distributions(self):
        # delta majorizes everything; uniform is majorized by everything
        n = 160_000
        delta_curve = LorenzCurve(s=np.ones(n))
        uniform_curve = LorenzCurve(s=np.arange(1, n + 1) / n)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = DiscreteDistribution.from_weights(rng.random(n))
            c = lorenz(d)
            assert compare(delta_curve, c, tol=1e-12).relation is Relation.MAJORIZES
            assert compare(c, uniform_curve, tol=1e-12).relation is Relation.MAJORIZES
