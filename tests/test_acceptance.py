"""Acceptance gate: chain reproduction, stability and property suites.

Each test prints one "[criterion N] PASS/FAIL" line (run pytest with -s to see
them).  Verdict tolerance is the library default 1e-3; stability is checked under
grid doubling (800x800) and a tolerance sweep over {1e-4, 1e-2}, the decade
around the default.  That window sits above the measured discretization scatter
(~1e-5 for rotation-equivalent states at 400x400, far-tail curve crossings up to
~3e-5) and below the smallest genuine curve separation (~1.6e-2), which is what
makes the verdicts grid- and tolerance-stable.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from polmaj import (ALPHA_SWEEP, DEFAULT_TOL, RENYI_Q_SWEEP, GridSpec, Relation,
                    compare, confidence_interval, lorenz, random_pure, renyi)
from polmaj.cli import main
from polmaj.sphere_grid import DiscreteDistribution, discretize_state

from conftest import DEFAULT_GRID, DOUBLED_GRID
from oracles import permutation_mix, t_transform

TOL_SWEEP = (1e-4, 1e-2)

CHAIN_SETS = {
    "fig3": ["noon:n=2", "squeezed:n=2", "hs:n=2", "phase:n=2", "coherent:n=2"],
    "fig4": ["noon:n=3", "hs:n=3", "squeezed:n=3", "phase:n=3", "coherent:n=3"],
    "fig5": ["hs:n=4", "squeezed:n=4", "noon:n=4", "phase:n=4", "coherent:n=4"],
    "fig6": ["hs:n=5", "noon:n=5", "squeezed:n=5", "phase:n=5", "coherent:n=5"],
    "fig7": ["coherent:n=2", "noon:n=6"],
    "fig8": ["tmsv:nbar=10", "thermal:nbar=10", "glauber:nbar=10"],
}

MONOTONE_FAMILIES = {
    "coherent": [f"coherent:n={n}" for n in range(2, 11)],
    "phase": [f"phase:n={n}" for n in range(2, 11)],
    "noon": [f"noon:n={n}" for n in range(2, 11)],
    "squeezed-even": [f"squeezed:n={n}" for n in range(2, 11, 2)],
    "squeezed-odd": [f"squeezed:n={n}" for n in range(3, 11, 2)],
}


@contextmanager
def criterion(cid, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {cid}] FAIL - {desc}")
        raise
    print(f"[criterion {cid}] PASS - {desc}")


def run_chain(specs, tmp_path, capsys):
    out = tmp_path / "chain.json"
    rc = main(["chain", *specs, "--format", "json", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return line, json.loads(out.read_text())


def test_criterion_1_two_photon_chain(cache, tmp_path, monkeypatch, capsys):
    with criterion(1, "n=2 chain N≡S≡H ≺ P ≺ C with strict P ≺ C"):
        monkeypatch.chdir(tmp_path)
        line, payload = run_chain(CHAIN_SETS["fig3"], tmp_path, capsys)
        assert line == "N≡S≡H ≺ P ≺ C"
        assert payload["chain_ascii"] == "N==S==H < P < C"
        assert payload["violations"] == []
        # P-vs-C must be strict majorization despite the nearly coincident curves
        v = compare(cache.curve("phase:n=2"), cache.curve("coherent:n=2"))
        assert v.relation is Relation.MAJORIZED_BY


def test_criterion_2_three_photon_chain(tmp_path, monkeypatch, capsys):
    with criterion(2, "n=3 chain N≡H ≺ S ≺ P ≺ C"):
        monkeypatch.chdir(tmp_path)
        line, payload = run_chain(CHAIN_SETS["fig4"], tmp_path, capsys)
        assert line == "N≡H ≺ S ≺ P ≺ C"
        assert payload["violations"] == []


def test_criterion_3_four_photon_ordering(cache, tmp_path, monkeypatch, capsys):
    with criterion(3, "n=4 chain H ≺ S ⋈ N ≺ P ≺ C, S ⋈ N recurs at n=6"):
        monkeypatch.chdir(tmp_path)
        line, _ = run_chain(CHAIN_SETS["fig5"], tmp_path, capsys)
        assert line == "H ≺ S ⋈ N ≺ P ≺ C"
        v4 = compare(cache.curve("squeezed:n=4"), cache.curve("noon:n=4"))
        assert v4.relation is Relation.INCOMPARABLE
        k_s, k_n = v4.witnesses
        s4, n4 = cache.curve("squeezed:n=4").s, cache.curve("noon:n=4").s
        assert s4[k_s - 1] > n4[k_s - 1] + DEFAULT_TOL
        assert n4[k_n - 1] > s4[k_n - 1] + DEFAULT_TOL
        v6 = compare(cache.curve("squeezed:n=6"), cache.curve("noon:n=6"))
        assert v6.relation is Relation.INCOMPARABLE


def test_criterion_4_five_photon_chain(tmp_path, monkeypatch, capsys):
    with criterion(4, "n=5 chain H ≺ N ≺ S ≺ P ≺ C"):
        monkeypatch.chdir(tmp_path)
        line, payload = run_chain(CHAIN_SETS["fig6"], tmp_path, capsys)
        assert line == "H ≺ N ≺ S ≺ P ≺ C"
        assert payload["violations"] == []


def test_criterion_5_inter_number_incomparability(cache):
    with criterion(5, "coherent n=2 vs N00N n=6 incomparable"):
        v = compare(cache.curve("coherent:n=2"), cache.curve("noon:n=6"))
        assert v.relation is Relation.INCOMPARABLE
        assert v.witnesses is not None


def test_criterion_6_continuous_chain(tmp_path, monkeypatch, capsys):
    with criterion(6, "nbar=10 closed-form chain S ≺ T ≺ C"):
        monkeypatch.chdir(tmp_path)
        line, payload = run_chain(CHAIN_SETS["fig8"], tmp_path, capsys)
        assert line == "S ≺ T ≺ C"
        assert payload["violations"] == []


def test_criterion_7_photon_number_monotonicity(cache):
    with criterion(7, "larger n majorizes smaller within each family, n=2..10"):
        for family, specs in MONOTONE_FAMILIES.items():
            for i, lo in enumerate(specs):
                for hi in specs[i + 1:]:
                    v = compare(cache.curve(hi), cache.curve(lo))
                    assert v.relation is Relation.MAJORIZES, (
                        f"{family}: {hi} should majorize {lo}, got {v.relation.value}")
        # the Hilbert-Schmidt extremal family is not monotone; report, don't assert
        hs_specs = [f"hs:n={n}" for n in range(2, 6)]
        observed = []
        for i, lo in enumerate(hs_specs):
            for hi in hs_specs[i + 1:]:
                v = compare(cache.curve(hi), cache.curve(lo))
                observed.append(f"{hi} vs {lo}: {v.relation.value}")
        print("hs family relations (most-unpolarized candidates, no monotonicity): "
              + "; ".join(observed))


def _relation_matrix(curves, tol):
    return [[compare(a, b, tol).relation for b in curves] for a in curves]


def test_criterion_8_stability(cache):
    with criterion(8, "criteria 1-6 verdicts stable under grid doubling and tol sweep"):
        for name, specs in CHAIN_SETS.items():
            base_curves = [cache.curve(s) for s in specs]
            doubled_curves = [cache.curve(s, DOUBLED_GRID) for s in specs]
            base = _relation_matrix(base_curves, DEFAULT_TOL)
            for curves in (base_curves, doubled_curves):
                for tol in (DEFAULT_TOL, *TOL_SWEEP):
                    got = _relation_matrix(curves, tol)
                    assert got == base, (
                        f"{name}: verdicts changed at tol={tol:g}, "
                        f"n_theta={curves[0].n ** 0.5:.0f}")


def test_criterion_9a_mixing_never_inverts():
    with criterion("9a", "10^4 random T-transform/permutation mixtures stay majorized"):
        gen = np.random.default_rng(990801)
        for trial in range(10_000):
            n = int(gen.integers(2, 17))
            p = DiscreteDistribution.from_weights(gen.random(n) + 1e-12)
            if trial % 2 == 0:
                i, j = gen.choice(n, size=2, replace=False)
                mixed = t_transform(p, int(i), int(j), float(gen.random()))
            else:
                nperm = int(gen.integers(1, 5))
                perms = [gen.permutation(n) for _ in range(nperm)]
                w = gen.random(nperm) + 1e-9
                mixed = permutation_mix(p, perms, w / w.sum())
            v = compare(lorenz(p), lorenz(mixed), tol=1e-12)
            assert v.relation in (Relation.MAJORIZES, Relation.EQUAL), (
                f"trial {trial}: mixing inverted majorization ({v.relation.value})")


def _measure_sweeps(dist):
    ks = [confidence_interval(dist, a) for a in ALPHA_SWEEP]
    rs = [renyi(dist, q) for q in RENYI_Q_SWEEP]
    return ks, rs


def test_criterion_9b_schur_consistency(cache):
    with criterion("9b", "K(alpha) and R_q orderings agree with every comparable pair"):
        pairs = set()
        for specs in CHAIN_SETS.values():
            for a in specs:
                for b in specs:
                    if a != b and compare(cache.curve(a), cache.curve(b)).relation \
                            is Relation.MAJORIZES:
                        pairs.add((a, b))
        for specs in MONOTONE_FAMILIES.values():
            for i, lo in enumerate(specs):
                for hi in specs[i + 1:]:
                    pairs.add((hi, lo))
        assert pairs
        sweeps = {}
        for spec in {s for pair in pairs for s in pair}:
            sweeps[spec] = _measure_sweeps(cache.dist(spec))
        for top, low in sorted(pairs):
            k_top, r_top = sweeps[top]
            k_low, r_low = sweeps[low]
            assert all(kl >= kt for kl, kt in zip(k_low, k_top)), (top, low, "K")
            assert all(rl >= rt - 1e-12 for rl, rt in zip(r_low, r_top)), (top, low, "R")


ROSTER = ([f"{fam}:n={n}" for fam in ("coherent", "phase", "noon") for n in range(2, 11)]
          + [f"squeezed:n={n}" for n in range(2, 11)]
          + [f"hs:n={n}" for n in range(2, 6)]
          + ["glauber:nbar=10", "thermal:nbar=10", "tmsv:nbar=10"])


def test_criterion_9c_raw_mass(cache):
    with criterion("9c", "raw_mass within [0.999, 1.001] for every built-in state"):
        for spec in ROSTER:
            raw = cache.dist(spec).raw_mass
            assert 0.999 <= raw <= 1.001, f"{spec}: raw_mass={raw}"


def test_criterion_9d_lieb_sampling(cache):
    with criterion("9d", "coherent state majorizes 200 Haar samples for each n=2..8"):
        counter_examples = []
        hs_report = {4: {"majorized_by": 0, "incomparable": 0, "other": 0},
                     5: {"majorized_by": 0, "incomparable": 0, "other": 0}}
        for n in range(2, 9):
            coherent_curve = cache.curve(f"coherent:n={n}")
            hs_curve = cache.curve(f"hs:n={n}") if n in hs_report else None
            for i in range(200):
                sample = random_pure(n, seed=1000 * n + i)
                sample_curve = lorenz(discretize_state(sample, DEFAULT_GRID))
                v = compare(coherent_curve, sample_curve)
                if v.relation not in (Relation.MAJORIZES, Relation.EQUAL):
                    counter_examples.append((n, i, v.relation.value))
                if hs_curve is not None:
                    rel = compare(hs_curve, sample_curve).relation
                    bucket = {Relation.MAJORIZED_BY: "majorized_by",
                              Relation.INCOMPARABLE: "incomparable"}.get(rel, "other")
                    hs_report[n][bucket] += 1
                    # the extremal state must never majorize a Haar sample
                    assert rel is not Relation.MAJORIZES, (n, i)
        assert not counter_examples, f"Lieb counterexamples found: {counter_examples}"
        for n, counts in hs_report.items():
            total = sum(counts.values())
            print(f"hs:n={n} vs {total} Haar samples: "
                  f"majorized by {counts['majorized_by']}, "
                  f"incomparable with {counts['incomparable']}, "
                  f"other {counts['other']}")
