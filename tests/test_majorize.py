import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polmaj.majorize as majmod
from polmaj import (DiscreteDistribution, EulerRotation, GridSpec, LorenzCurve, Relation, Verdict,
                    apply_su2, compare, discretize_state, lorenz, make_analytic, make_coherent,
                    make_phase, partial_order, random_pure, render_chain)
from polmaj.cli import FIGURES, _relations, parse_state_spec

from oracles import permutation_mix, t_transform


def dist(*values):
    return DiscreteDistribution(values=np.array(values, dtype=float))


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
        assert np.allclose(lorenz(DiscreteDistribution(values=np.full(n, 1 / n))).s,
                           np.arange(1, n + 1) / n)

    def test_deterministic_tie_breaking(self):
        # the curve of tied values does not depend on the order they are summed in
        d = dist(0.25, 0.25, 0.25, 0.25)
        assert np.array_equal(lorenz(d).s, np.cumsum(d.p))

    def test_endpoint_exact_on_fine_grid(self):
        # a sequential sum over 1.44M pixels drifts past LorenzCurve's 1e-12 check
        d = discretize_state(make_analytic("glauber", 10.0), GridSpec(1200, 1200))
        assert lorenz(d).s[-1] == 1.0

    def test_curve_shares_cached_sums(self):
        d = dist(0.2, 0.5, 0.3)
        assert np.shares_memory(lorenz(d).s, d.descending_cumsum)

    def test_equality_is_identity(self):
        # the generated __eq__ would compare the arrays and raise on their truth value
        a, b = LorenzCurve(np.array([0.5, 1.0])), LorenzCurve(np.array([0.5, 1.0]))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_caller_arrays_are_copied(self):
        arr = np.array([0.5, 0.8, 1.0])
        curve = LorenzCurve(s=arr)
        assert arr.flags.writeable
        arr[0] = 0.6
        assert curve.s[0] == 0.5
        view = arr.view()
        view.flags.writeable = False         # read-only, but arr can still change it
        assert not np.shares_memory(LorenzCurve(s=view).s, arr)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            LorenzCurve(s=np.array([0.5, 0.4, 1.0]))       # decreasing
        with pytest.raises(ValueError):
            LorenzCurve(s=np.array([0.2, 0.9, 1.0]))       # increments grow
        with pytest.raises(ValueError):
            LorenzCurve(s=np.array([0.5, 0.8, 0.9]))       # endpoint != 1

    @pytest.mark.parametrize("s", [[math.nan, 0.5, 1.0], [0.5, math.nan, 1.0],
                                   [0.5, 0.8, math.nan], [0.5, math.inf, 1.0],
                                   [0.5, -math.inf, 1.0], [-math.inf, 0.5, 1.0]],
                             ids=["nan-start", "nan-middle", "nan-end", "inf", "-inf",
                                  "-inf-start"])
    def test_rejects_non_finite_values(self, s):
        with pytest.raises(ValueError, match="S_k must be nondecreasing"):
            LorenzCurve(s=np.array(s))

    def test_rejects_infinite_end(self):
        with pytest.raises(ValueError, match="S_k increments must be nonincreasing"):
            LorenzCurve(s=np.array([0.5, 0.8, math.inf]))

    @staticmethod
    def straight(n):
        """The uniform curve k/n, which passes every check."""
        return np.arange(1, n + 1) / n

    @pytest.mark.parametrize("at", [-1, 0, 1, 2])
    def test_checks_carry_across_blocks(self, at):
        # faults at and around the boundary between the first two blocks
        k = majmod._BLOCK + at
        s = self.straight(3 * majmod._BLOCK)
        s[k] = s[k - 1]                                   # a zero increment, then a double one
        with pytest.raises(ValueError, match="increments must be nonincreasing"):
            LorenzCurve(s=s)
        s = self.straight(3 * majmod._BLOCK)
        s[k] = s[k - 1] - 1e-9
        with pytest.raises(ValueError, match="S_k must be nondecreasing"):
            LorenzCurve(s=s)
        s[k] = math.nan
        with pytest.raises(ValueError, match="S_k must be nondecreasing"):
            LorenzCurve(s=s)

    def test_decrease_in_a_later_block_reported_first(self):
        # the messages keep their order over the whole curve, not block by block
        s = self.straight(3 * majmod._BLOCK)
        s[5] = s[4]
        s[2 * majmod._BLOCK + 5] = s[2 * majmod._BLOCK + 4] - 1e-9
        with pytest.raises(ValueError, match="S_k must be nondecreasing"):
            LorenzCurve(s=s)

    @staticmethod
    def whole_curve_fault(s):
        """The first check an array fails, read over the whole array at once."""
        with np.errstate(invalid="ignore", over="ignore"):
            inc = np.diff(np.concatenate(([0.0], s)))
            second = np.diff(inc)
        if np.isnan(inc).any() or (inc < 0).any():
            return "S_k must be nondecreasing"
        if np.isnan(second).any() or (second > 1e-12).any():
            return "S_k increments must be nonincreasing"
        if not abs(s[-1] - 1.0) <= 1e-12:
            return "S_N must equal 1"
        return None

    @settings(max_examples=300, deadline=None)
    @given(weights_strategy, st.integers(0, 9),
           st.sampled_from([None, ("set", math.nan), ("set", math.inf), ("set", -math.inf),
                            ("set", 0.0), ("set", 1.0), ("add", 1e-9), ("add", -1e-9),
                            ("add", 0.3)]),
           st.sampled_from([1, 2, 3, 7]))
    def test_blocked_checks_match_whole_curve(self, w, at, fault, block):
        s = np.cumsum(np.sort(np.asarray(w, dtype=float))[::-1])
        s /= s[-1]
        if fault is not None:
            how, x = fault
            at %= s.size
            s[at] = x if how == "set" else s[at] + x
        expected = self.whole_curve_fault(s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(majmod, "_BLOCK", block)
            if expected is None:
                LorenzCurve(s=s)
            else:
                with pytest.raises(ValueError, match=expected):
                    LorenzCurve(s=s)

    # band values with zeros, ties and spread-out magnitudes
    band_values = st.lists(st.one_of(st.integers(0, 3), st.floats(0.0, 1e6)),
                           min_size=1, max_size=30).filter(lambda w: sum(w) > 0)

    @settings(max_examples=300, deadline=None)
    @given(band_values, st.integers(1, 50))
    def test_run_built_curves_pass_every_pixel_check(self, w, repeat):
        # what a run-end check skips inside a run cannot fail on a curve polmaj builds
        d = DiscreteDistribution.from_weights(np.asarray(w, dtype=float), repeat=repeat)
        LorenzCurve(s=d.descending_cumsum)

    def test_init_takes_no_run(self):
        # a caller-built curve is dense and checked at every k
        with pytest.raises(TypeError):
            LorenzCurve(s=self.straight(6), run=3)
        assert LorenzCurve(s=self.straight(6)).run == 1

    def test_lorenz_passes_the_run_length(self):
        assert lorenz(dist(0.2, 0.5, 0.3)).run == 1
        d = discretize_state(make_analytic("thermal", 10.0), GridSpec(6, 8))
        assert d.repeat == 8
        assert lorenz(d).run == d.repeat

    @staticmethod
    def straight_runs(run, m):
        """The uniform curve over m runs of `run` pixels, and its run-end indices."""
        return TestLorenz.straight(run * m), np.arange(run - 1, run * m, run)

    @pytest.mark.parametrize("fault", [
        ("decrease", 4), ("concave", 4), ("end", -1),
        ("nan", 0), ("nan", 4), ("nan", -1), ("inf", 4), ("inf", -1),
        ("-inf", 0), ("-inf", 4),
    ])
    @pytest.mark.parametrize("run", [2, 7])
    def test_run_end_faults_get_the_pixel_message(self, run, fault):
        what, j = fault
        s, ends = self.straight_runs(run, 10)
        k = ends[j]
        if what == "decrease":
            s[k] = s[ends[j - 1]] - 1e-9
        elif what == "concave":
            s[k] += 1e-9                     # a longer step into run end j, then a shorter one
        elif what == "end":
            s *= 1.0 - 1e-9
        else:
            s[k] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[what]
        expected = self.whole_curve_fault(s)      # the message of the every-k check
        assert expected is not None
        with pytest.raises(ValueError, match=expected):
            LorenzCurve._from_dense(s, run)

    @pytest.mark.parametrize("at", [-1, 0, 1, 2])
    def test_run_end_checks_carry_across_blocks(self, at):
        # faults at and around the boundary between the first two windows of the
        # strided view of the run ends
        run = 3
        s, ends = self.straight_runs(run, 2 * majmod._BLOCK + 5)
        LorenzCurve._from_dense(s, run)
        k, before = ends[majmod._BLOCK + at], ends[majmod._BLOCK + at - 1]
        s[k] = s[before]                                  # a zero increment, then a double one
        with pytest.raises(ValueError, match="increments must be nonincreasing"):
            LorenzCurve._from_dense(s, run)
        s[k] = s[before] - 1e-9
        with pytest.raises(ValueError, match="S_k must be nondecreasing"):
            LorenzCurve._from_dense(s, run)
        s[k] = math.nan
        with pytest.raises(ValueError, match="S_k must be nondecreasing"):
            LorenzCurve._from_dense(s, run)


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

    @given(tol=st.floats(allow_nan=True, allow_infinity=True))
    @example(tol=math.nan)
    @example(tol=math.inf)
    @example(tol=-math.inf)
    @example(tol=-0.0)
    @settings(max_examples=200, deadline=None)
    def test_tol_domain(self, tol):
        # every finite tol >= 0 gives a verdict; NaN, +-inf and negative tol raise
        a, b = curve_of(0.6, 0.2, 0.2), curve_of(0.5, 0.5, 0.0)
        if math.isfinite(tol) and tol >= 0.0:
            assert isinstance(compare(a, b, tol), Verdict)
        else:
            with pytest.raises(ValueError, match="tol"):
                compare(a, b, tol)

    @pytest.mark.parametrize("tol", [True, False, np.True_])
    def test_rejects_bool_tol(self, tol):
        # compare(a, b, True) used to run with tol = 1.0
        c = curve_of(0.4, 0.35, 0.25)
        with pytest.raises(ValueError, match="tol"):
            compare(c, c, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            partial_order([("a", dist(0.5, 0.5))], tol=tol)

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


def whole_array_verdict(a, b, tol):
    """compare's rule read off the whole difference at once: (relation, witnesses)."""
    d = a.s - b.s
    up, dn = float(d.max()), float(d.min())
    if up <= tol and -dn <= tol:
        return Relation.EQUAL, None
    if dn >= -tol:
        return Relation.MAJORIZES, None
    if up <= tol:
        return Relation.MAJORIZED_BY, None
    return Relation.INCOMPARABLE, (int(d.argmax()) + 1, int(d.argmin()) + 1)


FIGURE_SPECS = sorted({spec for specs in FIGURES.values() for spec in specs})


def assert_whole_array_verdicts(a, b):
    """compare matches the whole difference in both argument orders, at tol 0 and 1e-3."""
    for tol in (0.0, 1e-3):
        for x, y in ((a, b), (b, a)):
            v = compare(x, y, tol)
            assert (v.relation, v.witnesses) == whole_array_verdict(x, y, tol)


def curve_at(spec, grid):
    return lorenz(discretize_state(parse_state_spec(spec).obj, grid))


class TestBoundedCompare:
    """compare reads S(a) - S(b) at the ends of segments over which both curves are
    nondecreasing, then only the segments that can hold an extreme, in chunks of at
    most _BLOCK values; the verdict and the first-occurrence witnesses must be those
    of the whole difference."""

    # S_a - S_b = (1, 0, -1, -1, -1, 0, 0, 0) / 8: the minimum ties at k = 3, 4, 5
    A = (3, 1, 1, 1, 1, 1, 0, 0)
    B = (2, 2, 2, 1, 1, 0, 0, 0)

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 8, 16])
    def test_ties_across_a_chunk_edge_keep_the_first(self, block, monkeypatch):
        # N = 8 is read in segments of 2 values, every one a candidate, and the tie
        # spans segments 2 and 3 (1-based): chunks of one or two segments (blocks 1 to
        # 4) put an edge inside it
        a, b = lorenz(dist_from_ints(self.A)), lorenz(dist_from_ints(self.B))
        monkeypatch.setattr(majmod, "_BLOCK", block)
        assert compare(a, b, 0.01) == Verdict(Relation.INCOMPARABLE, (1, 3))
        assert compare(b, a, 0.01) == Verdict(Relation.INCOMPARABLE, (3, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_whole_difference(self, data):
        n = data.draw(st.integers(1, 12))
        positive = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0)
        a = lorenz(dist_from_ints(data.draw(positive)))
        b = lorenz(dist_from_ints(data.draw(positive)))
        tol = data.draw(st.sampled_from([0.0, 1e-12, 0.05]))
        block = data.draw(st.sampled_from([1, 2, 3, 5]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(majmod, "_BLOCK", block)
            v = compare(a, b, tol)
        assert (v.relation, v.witnesses) == whole_array_verdict(a, b, tol)

    def test_matches_whole_difference_over_full_chunks(self):
        # 80,000 values: 200 segments of 400, read in chunks of 81 segments
        spec = GridSpec(200, 400)
        curves = [lorenz(discretize_state(random_pure(n, seed=1), spec)) for n in (3, 5, 7)]
        for a in curves:
            for b in curves:
                for tol in (0.0, 1e-3):
                    v = compare(a, b, tol)
                    assert (v.relation, v.witnesses) == whole_array_verdict(a, b, tol)

    @pytest.mark.parametrize("grid", [GridSpec(7, 13), GridSpec(400, 400)], ids=["7x13", "400^2"])
    def test_figure_states_against_phi_independent_ones(self, grid):
        curves = {spec: curve_at(spec, grid) for spec in FIGURE_SPECS}
        run_specs = [spec for spec, c in curves.items() if c.run > 1]
        assert len(run_specs) == 9       # coherent n = 2..5, squeezed n = 2, 4 and fig8's three
        for spec in run_specs:
            for other in FIGURE_SPECS:
                assert_whole_array_verdicts(curves[spec], curves[other])

    @pytest.mark.parametrize("grid", [GridSpec(7, 13), GridSpec(400, 400)], ids=["7x13", "400^2"])
    def test_dense_figure_pairs(self, grid):
        # both run lengths 1: segments of 7 values at 7x13 and of 400 at 400^2
        curves = [curve_at(spec, grid) for spec in FIGURE_SPECS]
        dense = [c for c in curves if c.run == 1]
        assert len(dense) == len(FIGURE_SPECS) - 9
        for i, a in enumerate(dense):
            for b in dense[i:]:
                assert_whole_array_verdicts(a, b)

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_figure_pairs_at_800(self, figure):
        curves = [curve_at(spec, GridSpec(800, 800)) for spec in FIGURES[figure]]
        for i, a in enumerate(curves):
            for b in curves[i + 1:]:
                assert_whole_array_verdicts(a, b)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_haar_samples(self, n):
        # against the coherent run curve, and the dense hs curve where it exists (n <= 5)
        grid = GridSpec(400, 400)
        refs = [lorenz(discretize_state(make_coherent(n), grid))]
        if n <= 5:
            refs.append(curve_at(f"hs:n={n}", grid))
        assert [c.run for c in refs] == [400, 1][:len(refs)]
        for seed in range(3):
            sample = lorenz(discretize_state(random_pure(n, seed), grid))
            for ref in refs:
                assert_whole_array_verdicts(ref, sample)

    def test_rotated_coherent_state_equals_the_pole_one(self):
        grid = GridSpec(400, 400)
        pole = lorenz(discretize_state(make_coherent(4), grid))
        rot = EulerRotation(0.7, 1.1, -2.0)
        rotated = lorenz(discretize_state(apply_su2(make_coherent(4), rot), grid))
        assert (pole.run, rotated.run) == (400, 1)
        assert compare(pole, rotated) == Verdict(Relation.EQUAL)
        assert_whole_array_verdicts(pole, rotated)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_whole_difference_for_every_curve_form(self, data):
        # N = 12 in runs of 1..12 pixels: run curves with equal and unequal run lengths,
        # and dense curves
        def curve():
            repeat = data.draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
            w = data.draw(st.lists(st.integers(0, 4), min_size=12 // repeat,
                                   max_size=12 // repeat).filter(lambda w: sum(w) > 0))
            d = DiscreteDistribution.from_weights(np.asarray(w, dtype=float), repeat=repeat)
            form = data.draw(st.sampled_from(["lorenz", "dense"]))
            if form == "lorenz":
                return lorenz(d)
            return LorenzCurve(s=d.descending_cumsum)

        a, b = curve(), curve()
        tol = data.draw(st.sampled_from([0.0, 1e-12, 0.05]))
        block = data.draw(st.sampled_from([1, 2, 3, 5, 12]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(majmod, "_BLOCK", block)
            v = compare(a, b, tol)
        assert (v.relation, v.witnesses) == whole_array_verdict(a, b, tol)

    @staticmethod
    def segments_read(a, b, monkeypatch):
        """compare(a, b)'s relation, and the number of segments it reads of each curve."""
        read = []
        segments = LorenzCurve._segments

        def spy(curve, rows, length):
            read.append(rows.size)
            return segments(curve, rows, length)

        monkeypatch.setattr(LorenzCurve, "_segments", spy)
        return compare(a, b).relation, sum(read) / 2

    @pytest.mark.parametrize("n, runs, length", [
        (12, (1, 1), 3), (16, (1, 1), 4), (13, (1, 1), 1), (12, (4, 1), 4),
        (12, (2, 3), 6), (12, (4, 6), 12), (12, (3, 3), 3),
    ])
    def test_segment_length(self, n, runs, length, monkeypatch):
        # lcm of the run lengths, or, for two dense curves, N's largest divisor up to sqrt(N)
        rng = np.random.default_rng(n)
        a, b = (lorenz(DiscreteDistribution.from_weights(rng.random(n // r) + 0.1, repeat=r))
                for r in runs)
        assert (a.run, b.run) == runs
        lengths = set()
        segments = LorenzCurve._segments

        def spy(curve, rows, length):
            lengths.add(length)
            return segments(curve, rows, length)

        monkeypatch.setattr(LorenzCurve, "_segments", spy)
        compare(a, b)
        assert lengths == {length}

    def test_reads_only_the_runs_that_can_hold_an_extreme(self, monkeypatch):
        grid = GridSpec(400, 400)
        coherent = lorenz(discretize_state(make_coherent(5), grid))
        sample = lorenz(discretize_state(random_pure(5, seed=1), grid))
        relation, read = self.segments_read(coherent, sample, monkeypatch)
        assert relation is Relation.MAJORIZES
        assert 0 < read <= 40                 # a tenth of the 400 runs at most

    def test_dense_pair_reads_a_fraction_of_its_segments(self, monkeypatch):
        # 48 of 400 segments of 400 values: 40 about the minimum, which is flat to
        # within a segment's rise there, and 8 at the two ends, near the maximum, 0
        grid = GridSpec(400, 400)
        hs = curve_at("hs:n=4", grid)
        sample = lorenz(discretize_state(random_pure(4, seed=1), grid))
        assert (hs.run, sample.run) == (1, 1)
        relation, read = self.segments_read(hs, sample, monkeypatch)
        assert relation is Relation.MAJORIZED_BY
        assert 0 < read <= 400 / 5


class TestRunCurve:
    def test_s_is_built_fresh_and_read_only_on_each_read(self):
        d = DiscreteDistribution.from_weights([3.0, 1.0, 0.0, 2.0], repeat=3)
        curve = lorenz(d)
        first, second = curve.s, curve.s
        assert first is not second and not first.flags.writeable
        assert np.array_equal(first, d.descending_cumsum)
        assert curve.n == len(curve) == 12 and curve.run == 3

    def test_shares_the_dense_sums_a_distribution_already_holds(self):
        d = DiscreteDistribution.from_weights([3.0, 1.0, 0.0, 2.0], repeat=3)
        runs = lorenz(d)
        assert runs.s is not runs.s                  # built on each read
        s = d.descending_cumsum
        shared = lorenz(d)
        assert shared.s is s and shared.run == 3
        assert compare(runs, shared, 0.0) == Verdict(Relation.EQUAL)

    @pytest.mark.parametrize("repeat", [1, 3])
    def test_windows_are_slices_of_s(self, repeat):
        d = DiscreteDistribution.from_weights([3.0, 1.0, 0.0, 2.0], repeat=repeat)
        curve = lorenz(d)
        s = d.descending_cumsum
        for start in [None, *range(-s.size - 1, s.size + 2)]:
            for stop in [None, *range(-s.size - 1, s.size + 2)]:
                assert np.array_equal(curve[start:stop], s[start:stop])
        for bad in (0, slice(0, 4, 2), slice(None, None, -1)):
            with pytest.raises(TypeError, match="slices with step 1"):
                curve[bad]

    @pytest.mark.parametrize("curve", [LorenzCurve(np.array([0.5, 1.0])),
                                       lorenz(DiscreteDistribution.from_weights([1.0], repeat=2))],
                             ids=["dense", "runs"])
    def test_immutable(self, curve):
        with pytest.raises(AttributeError):
            curve.run = 2
        with pytest.raises(AttributeError):
            del curve.n

    @pytest.mark.parametrize("curve", [LorenzCurve(np.array([0.5, 1.0])),
                                       lorenz(DiscreteDistribution.from_weights([3.0, 1.0], repeat=2))],
                             ids=["dense", "runs"])
    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                         lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles(self, curve, copy_of):
        twin = copy_of(curve)
        assert (twin.run, twin.n) == (curve.run, curve.n)
        assert np.array_equal(twin.s, curve.s)
        assert compare(twin, curve, 0.0) == Verdict(Relation.EQUAL)
        assert [f.name for f in dataclasses.fields(twin)] == ["run", "n", "_s", "_runs"]
        assert repr(twin).startswith("LorenzCurve(run=")
        for a in [twin._s] if twin._runs is None else twin._runs:
            assert not a.flags.writeable

    @pytest.mark.parametrize("repeat", [1, 3])
    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                         lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_distribution_copies_and_pickles(self, repeat, copy_of):
        # with its cached p and descending_cumsum built, which copy along
        d = DiscreteDistribution.from_weights([3.0, 1.0, 0.0, 2.0], repeat=repeat)
        d.p, d.descending_cumsum
        twin = copy_of(d)
        assert set(twin.__dict__) == {"values", "raw_mass", "repeat", "p", "descending_cumsum"}
        for key in ("values", "p", "descending_cumsum"):
            assert not twin.__dict__[key].flags.writeable
            assert np.array_equal(twin.__dict__[key], d.__dict__[key])
        assert (twin.p is twin.values) == (repeat == 1)
        assert compare(lorenz(twin), lorenz(d), 0.0) == Verdict(Relation.EQUAL)

    @pytest.mark.parametrize("make, run", [
        (lambda: discretize_state(make_phase(3), GridSpec(400, 400)), 1),
        (lambda: DiscreteDistribution.from_weights(np.random.default_rng(0).uniform(size=100),
                                                   repeat=3), 3),
        (lambda: discretize_state(make_coherent(3), GridSpec(400, 400)), 400)],
        ids=["dense", "runs-of-3", "runs-of-400"])
    def test_at_reads_s_bit_for_bit(self, make, run):
        curve = lorenz(make())
        assert curve.run == run
        k = np.unique(np.random.default_rng(1).integers(0, curve.n, 500))
        k = np.concatenate(([0], k, [curve.n - 1]))
        got = curve.at(k)
        assert got.dtype == float and got.flags.writeable
        assert np.array_equal(got, curve.s[k])

    @pytest.mark.parametrize("form", ["dense", "runs"])
    def test_at_refuses_indices_outside_the_curve(self, form):
        # numpy would wrap -1 to S_N = 1 on a dense curve, while a run curve read the
        # last pixel of run -1 before the first: both refuse it, and N
        curve = lorenz(discretize_state(make_coherent(2), GridSpec(8, 8)))
        assert curve.run == 8
        if form == "dense":
            curve = LorenzCurve(curve.s)
        for bad in ([-1], [curve.n], [0, curve.n - 1, -1]):
            with pytest.raises(IndexError):
                curve.at(np.array(bad))
        assert curve.at(np.array([curve.n - 1, 3])).tolist() == curve.s[[curve.n - 1, 3]].tolist()
        assert curve.at(np.array([], dtype=int)).size == 0

    def test_at_of_a_run_curve_builds_no_n_values(self, monkeypatch):
        curve = lorenz(discretize_state(make_coherent(4), GridSpec(800, 800)))
        k = np.arange(1, 16001) * curve.n // 16000 - 1
        want = curve.s[k]
        monkeypatch.setattr(LorenzCurve, "s", property(lambda c: pytest.fail("built .s")))
        tracemalloc.start()
        try:
            got = curve.at(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 8 * k.nbytes              # a few temporaries of M values, not N


class TestSummaryRelations:
    """summary_relations reads each curve at M = min(N, ceil(16 / tol)) indices and
    must give partial_order's relations, or None for a pair its bounds leave open."""

    def test_segment_bounds_hold_every_value(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = (lorenz(dist_from_ints(rng.integers(1, 1000, 24) ** 2)) for _ in range(2))
            k = np.sort(rng.choice(23, size=rng.integers(1, 23), replace=False))
            k = np.append(k, 23)
            at, lo, hi = majmod._segment_bounds(a.at(k), b.at(k))
            d = a.s - b.s
            assert np.array_equal(at, d[k])
            for i, (first, last) in enumerate(zip(np.concatenate(([0], k[:-1] + 1)), k)):
                assert lo[i] <= d[first:last + 1].min() and d[first:last + 1].max() <= hi[i]

    def test_bounds_straddling_tol_leave_the_pair_open(self, monkeypatch):
        # S_a = .5, 1, 1, 1 and S_b = .25, .5, .75, 1 read at k = 2, 4: the difference is
        # .5 and 0 there, and the bound on the first segment reaches -.5 and +1, across
        # -tol for (a, b) and across +tol for (b, a), although every S_k(a) >= S_k(b)
        a, b = dist(0.5, 0.5, 0.0, 0.0), dist(0.25, 0.25, 0.25, 0.25)
        tol = 0.1
        at, lo, hi = majmod._segment_bounds(np.array([1.0, 1.0]), np.array([0.5, 1.0]))
        assert at.tolist() == [0.5, 0.0] and lo.tolist() == [-0.5, 0.0]
        assert hi.tolist() == [1.0, 0.5]
        assert lo.min() < -tol <= at.min()
        monkeypatch.setattr(majmod, "_SUMMARY_SCALE", 2 * tol)     # M = 2
        assert majmod.summary_relations([a, b], tol) is None
        monkeypatch.setattr(majmod, "_SUMMARY_SCALE", 4 * tol)     # M = N = 4: exact
        assert majmod.summary_relations([a, b], tol) == [
            [Relation.EQUAL, Relation.MAJORIZES], [Relation.MAJORIZED_BY, Relation.EQUAL]]
        assert _relations(partial_order([("a", a), ("b", b)], tol))[0][1] is Relation.MAJORIZES

    @pytest.mark.parametrize("n", [10, 20, 40, 80, 100, 200, 400, 800])
    def test_figures_match_partial_order(self, n):
        # reproduce's base grids 10^2..400^2 and their doubled grids; every pair is
        # decided, so reproduce never falls back to ordering in full
        grid = GridSpec(n, n)
        for specs in FIGURES.values():
            dists = [discretize_state(parse_state_spec(s).obj, grid) for s in specs]
            for tol in (1e-2, 1e-3, 1e-4):
                want = _relations(partial_order(zip(specs, dists), tol))
                assert majmod.summary_relations(iter(dists), tol) == want

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different grids"):
            majmod.summary_relations([dist(0.5, 0.5), dist(0.2, 0.3, 0.5)])


class TestStageMemory:
    def test_traced_peaks_at_800(self):
        # Q in one (T, P) array plus a band block of the complex product, weighted and
        # normalized in place; the curve in one array; the difference in chunks of
        # segments, against a run curve, a dense curve, and a run curve Equal to it
        # everywhere, where every segment is read
        spec = GridSpec(800, 800)
        ref = lorenz(discretize_state(make_coherent(4), spec))
        noon = curve_at("noon:n=4", spec)
        rotated = lorenz(discretize_state(apply_su2(make_coherent(4), EulerRotation(0.7, 1.1, -2.0)),
                                          spec))
        n_bytes = 8 * spec.n_pixels
        compared = {}
        tracemalloc.start()
        try:
            d = discretize_state(make_phase(4), spec)
            discretized = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            c = lorenz(d)
            curve = tracemalloc.get_traced_memory()[1] - held
            for name, (x, y) in {"run": (c, ref), "dense": (c, noon),
                                 "equal": (rotated, ref)}.items():
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                compare(x, y)
                compared[name] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert discretized <= 2.1 * n_bytes
        assert curve <= 1.15 * n_bytes
        assert compare(rotated, ref) == Verdict(Relation.EQUAL)
        for name, peak in compared.items():
            assert peak <= 0.2 * n_bytes, name


class TestTTransform:
    def test_identity_mixing(self):
        d = dist(0.7, 0.3)
        out = t_transform(d, 0, 1, 0.0)
        assert np.array_equal(out.p, d.p)

    def test_full_averaging(self):
        out = t_transform(dist(0.7, 0.3), 0, 1, 0.5)
        assert np.allclose(out.p, [0.5, 0.5])

    def test_keeps_the_array_it_builds(self, spy_values):
        out = t_transform(dist(0.7, 0.3), 0, 1, 0.25)
        assert out.p is spy_values[-1]

    def test_repeated_input_gives_every_pixel(self):
        d = DiscreteDistribution.from_weights([3.0, 1.0], repeat=2)
        out = t_transform(d, 1, 2, 0.5)
        assert out.repeat == 1
        assert out.p.tolist() == [0.375, 0.25, 0.25, 0.125]

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

    def test_keeps_the_array_it_builds(self, spy_values):
        out = permutation_mix(dist(0.4, 0.3, 0.3), [np.arange(3)[::-1]], [1.0])
        assert out.p is spy_values[-1]

    def test_repeated_input_gives_every_pixel(self):
        d = DiscreteDistribution.from_weights([3.0, 1.0], repeat=2)
        out = permutation_mix(d, [np.array([3, 2, 1, 0])], [1.0])
        assert out.repeat == 1
        assert out.p.tolist() == [0.125, 0.125, 0.375, 0.375]

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
            p0 = DiscreteDistribution(values=counts / 64.0)
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

    def test_equality_is_identity(self):
        items = [("x", dist(0.6, 0.4)), ("y", dist(0.5, 0.5))]
        a, b = partial_order(items), partial_order(items)
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert a.matrix[0][1] == b.matrix[0][1]       # verdicts keep value equality

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

    def test_each_pair_compared_once(self, monkeypatch):
        import polmaj.majorize as majmod
        calls = []

        def spy(a, b, tol=majmod.DEFAULT_TOL):
            calls.append((a, b))
            return compare(a, b, tol)

        monkeypatch.setattr(majmod, "compare", spy)
        items = [(name, dist(*w)) for name, w in
                 [("a", (0.7, 0.2, 0.1)), ("b", (0.5, 0.3, 0.2)), ("c", (0.6, 0.4, 0.0)),
                  ("d", (0.4, 0.4, 0.2)), ("e", (0.2, 0.5, 0.3))]]
        res = partial_order(items, tol=1e-9)
        assert len(calls) == 5 * 4 // 2
        index = {id(c): k for k, c in enumerate(res.curves)}
        assert {(index[id(a)], index[id(b)]) for a, b in calls} == {
            (i, j) for i in range(5) for j in range(i + 1, 5)}
        for i in range(5):
            assert res.matrix[i][i] == Verdict(Relation.EQUAL)
            for j in range(5):
                # the mirror is exactly what comparing the other way round gives
                assert res.matrix[i][j] == compare(res.curves[i], res.curves[j], 1e-9)
                assert res.matrix[j][i] == res.matrix[i][j].flipped()
        assert any(v.relation is Relation.INCOMPARABLE for row in res.matrix for v in row)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_rejects_bad_tol_with_one_item(self, tol):
        # a single item needs no comparison, but the tolerance is still checked
        with pytest.raises(ValueError, match="tol"):
            partial_order([("only", dist(0.6, 0.4))], tol=tol)

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

    def test_generator_gives_the_list_result(self):
        # items are read in one pass: a one-shot generator orders like the list
        weights = [(59, 33, 8), (67, 20, 13), (48, 46, 6), (48, 44, 8), (53, 34, 13)]
        items = [(f"d{i}", dist_from_ints(w)) for i, w in enumerate(weights)]
        ref = partial_order(items, 0.05)
        gen = (item for item in items)
        res = partial_order(gen, 0.05)
        assert next(gen, None) is None
        assert (res.names, res.matrix, res.layers, res.chain, res.violations) == (
            ref.names, ref.matrix, ref.layers, ref.chain, ref.violations)
        assert res.violations     # a transitivity and an equal-group defect
        assert [c.s.tolist() for c in res.curves] == [c.s.tolist() for c in ref.curves]

    def test_generator_frees_each_distribution_before_the_next(self):
        # only the curve of an item is kept: its distribution is gone by the time
        # the generator builds the next one
        import gc
        import weakref
        refs = []

        def tracked(w):
            d = dist(*w)
            refs.append(weakref.ref(d))
            return d

        def items():
            for i, w in enumerate([(0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (0.4, 0.4, 0.2)]):
                gc.collect()
                assert all(r() is None for r in refs)
                yield f"d{i}", tracked(w)

        res = partial_order(items(), 1e-9)
        assert len(refs) == len(res.curves) == 3

    @pytest.mark.parametrize("items, message", [
        ([("a", dist(0.5, 0.5)), ("a", dist(0.6, 0.4))], "item names must be unique"),
        ([("a", dist(0.5, 0.5)), ("b", dist(0.4, 0.3, 0.3))],
         r"distributions live on different grids: sizes \[2, 3\]")])
    def test_generator_errors_keep_their_messages(self, items, message):
        with pytest.raises(ValueError, match=message):
            partial_order(item for item in items)

    @staticmethod
    def order_percent(*weights, tol=0.05):
        return partial_order([(name, dist_from_ints(w)) for name, w in zip("abc", weights)], tol)

    def test_equal_chain_forms_one_group(self):
        # b majorizes a by 0.06, but each ties with c, the last item: one group
        res = self.order_percent((25, 75), (19, 81), (22, 78))
        assert res.matrix[1][0].relation is Relation.MAJORIZES
        assert res.layers == ((("a", "b", "c"),),)

    def test_transitivity_violation(self):
        res = self.order_percent((59, 33, 8), (67, 20, 13), (48, 46, 6))
        assert res.chain == "c ≺ a ≺ b"
        assert res.violations == (
            "transitivity: b majorizes a majorizes c, but b vs c is incomparable",)

    def test_equal_group_consistency_violation(self):
        # a and b tie within tol, but c majorizes b and is incomparable to a
        res = self.order_percent((48, 44, 8), (53, 34, 13), (59, 26, 15))
        assert res.chain == "a≡b ⋈ c"
        assert res.violations == (
            "equal-group consistency: members of {a,b} relate differently to {c}",
            "equal-group consistency: members of {c} relate differently to {a,b}")

    def test_unequal_pair_inside_a_group(self):
        # b majorizes a by just over tol, but c ties with both: one group, and the
        # unequal pair inside it is reported
        res = self.order_percent((1, 3), (1, 4), (3, 10))
        assert res.chain == "a≡b≡c"
        assert res.matrix[1][0].relation is Relation.MAJORIZES
        assert res.violations == (
            "equal-group consistency: a and b share a group, but a vs b is majorized_by",)

    def test_cycle_shares_the_top_layer(self):
        # a majorizes b majorizes c majorizes a within tol: every group on the cycle
        # sits in one top layer, and the cycle is reported once
        res = self.order_percent((43, 27, 17, 13), (37, 36, 17, 10), (40, 27, 26, 7))
        assert res.chain == "a ⋈ b ⋈ c"
        assert res.violations == (
            "transitivity: a majorizes b majorizes c, but a vs c is majorized_by",
            "transitivity: b majorizes c majorizes a, but b vs a is majorized_by",
            "transitivity: c majorizes a majorizes b, but c vs b is majorized_by",
            "cycle detected in majorization relations")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.lists(
               st.lists(st.integers(0, 100), min_size=k, max_size=k).filter(lambda w: sum(w) > 0),
               min_size=1, max_size=6)),
           st.sampled_from([0.0, 1e-2, 5e-2]))
    @example(weights=[[1, 3], [1, 4], [3, 10]], tol=5e-2)
    def test_layers_follow_the_relations(self, weights, tol):
        # without a cycle, groups in one layer are incomparable, and a group that
        # majorizes another sits in a later layer; each group is read through its
        # first member, as the layering reads it.  Without any violation, every pair
        # inside a group is Equal.
        names = [f"d{i}" for i in range(len(weights))]
        res = partial_order([(name, dist_from_ints(w)) for name, w in zip(names, weights)], tol)
        assert sorted(name for layer in res.layers for group in layer for name in group) == names
        if not res.violations:
            for group in (g for layer in res.layers for g in layer):
                members = [names.index(name) for name in group]
                assert all(res.matrix[i][j].relation is Relation.EQUAL
                           for i in members for j in members)
        if any("cycle" in v for v in res.violations):
            return
        firsts = [(x, names.index(group[0])) for x, layer in enumerate(res.layers) for group in layer]
        for x, i in firsts:
            for y, j in firsts:
                relation = res.matrix[i][j].relation
                if i != j and x == y:
                    assert relation is Relation.INCOMPARABLE
                if relation is Relation.MAJORIZES:
                    assert x > y


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
