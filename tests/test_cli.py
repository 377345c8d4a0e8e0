import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polmaj
from polmaj import (ALPHA_SWEEP, RENYI_Q_SWEEP, EvaluationError, GridSpec, Relation, Verdict,
                    band_thetas, confidence_interval, discretize_state, lorenz, renyi,
                    sector_phis)
from polmaj.cli import (FIGURES, GLYPHS_ASCII, GLYPHS_UNICODE, StateSpecError, _write,
                        assign_labels, main, make_parser, parse_state_spec, verdict_line)
from polmaj.states import AnalyticQFamily, PureFockState

from oracles import csv_text

SMALL = ["--n-theta", "100", "--n-phi", "100"]


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestParseStateSpec:
    def test_fock_families(self):
        for family in ("coherent", "phase", "noon"):
            ps = parse_state_spec(f"{family}:n=4")
            assert isinstance(ps.obj, PureFockState) and ps.obj.n == 4
        assert parse_state_spec("squeezed:n=5").obj.n == 5
        assert parse_state_spec("hs:n=4").obj.n == 4

    def test_analytic_families(self):
        ps = parse_state_spec("thermal:nbar=10")
        assert isinstance(ps.obj, AnalyticQFamily)
        assert ps.obj.kind == "thermal" and ps.obj.nbar == 10.0
        assert parse_state_spec("tmsv:nbar=2.5").obj.nbar == 2.5

    def test_negative_zero_nbar_reads_as_zero(self):
        ps = parse_state_spec("thermal:nbar=-0.0")
        assert ps.params == "nbar=0" and math.copysign(1.0, ps.obj.nbar) == 1.0
        parsed = [parse_state_spec(s) for s in ("thermal:nbar=-0.0", "thermal:nbar=1")]
        assert assign_labels(parsed, use_letter=True) == ["T(nbar=0)", "T(nbar=1)"]

    def test_random_seed_handling(self):
        a = parse_state_spec("random:n=4,seed=7")
        b = parse_state_spec("random:n=4,seed=7")
        assert np.array_equal(a.obj.amps, b.obj.amps)
        # seed= is the only seed channel, and without it the seed is 0
        c = parse_state_spec("random:n=4")
        assert c.params == "n=4,seed=0"
        assert np.array_equal(c.obj.amps, parse_state_spec("random:n=4,seed=0").obj.amps)
        assert not np.array_equal(a.obj.amps, c.obj.amps)

    @pytest.mark.parametrize("bad", [
        "coherent", "coherent:n=-1", "coherent:m=4", "coherent:n=x", "coherent:n=4,k=1",
        "unknown:n=4", "hs:n=7", "squeezed:n=1", "thermal:nbar=-2", "thermal",
        "random:seed=4", "noon:n=0", "coherent:n", "coherent:n=4,n=5",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(StateSpecError):
            parse_state_spec(bad)

    @pytest.mark.parametrize("bad", ["coherent:n=\n2", "coherent:n=2\r", "thermal:nbar=\t10",
                                     "random:n=4,seed=\n7"])
    def test_rejects_control_characters(self, bad):
        # int() and float() strip them, so the value alone would parse
        with pytest.raises(StateSpecError, match="control characters"):
            parse_state_spec(bad)

    def test_letters(self):
        assert parse_state_spec("coherent:n=2").letter == "C"
        assert parse_state_spec("tmsv:nbar=1").letter == "S"
        assert parse_state_spec("thermal:nbar=1").letter == "T"
        assert parse_state_spec("glauber:nbar=1").letter == "C"


class TestLabels:
    def test_unique_letters_stay_short(self):
        parsed = [parse_state_spec(s) for s in
                  ("noon:n=2", "squeezed:n=2", "phase:n=2", "coherent:n=2")]
        assert assign_labels(parsed, use_letter=True) == ["N", "S", "P", "C"]

    def test_collisions_get_params(self):
        parsed = [parse_state_spec(s) for s in ("coherent:n=2", "coherent:n=3")]
        assert assign_labels(parsed, use_letter=True) == ["C(n=2)", "C(n=3)"]
        assert assign_labels(parsed, use_letter=False) == ["coherent(n=2)", "coherent(n=3)"]

    def test_identical_specs_get_counters(self):
        parsed = [parse_state_spec(s) for s in ("coherent:n=3", "coherent:n=3")]
        assert assign_labels(parsed, use_letter=False) == ["coherent(n=3)#1", "coherent(n=3)#2"]


class TestVerdictLine:
    def test_mapping(self):
        g = GLYPHS_UNICODE
        assert verdict_line(Verdict(Relation.MAJORIZES), "a", "b", g) == "b ≺ a"
        assert verdict_line(Verdict(Relation.MAJORIZED_BY), "a", "b", g) == "a ≺ b"
        assert verdict_line(Verdict(Relation.EQUAL), "a", "b", g) == "a ≡ b"
        assert verdict_line(Verdict(Relation.INCOMPARABLE, (1, 2)), "a", "b", g) == "a ⋈ b"

    def test_ascii_fallback_glyphs(self):
        line = verdict_line(Verdict(Relation.INCOMPARABLE, (1, 2)), "a", "b", GLYPHS_ASCII)
        assert line == "a >< b"


class TestConfig:
    def test_unwritable_out_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["qdist", "coherent:n=1", "--n-theta", "4", "--n-phi", "4",
                   "--out", "missing_dir/q.csv"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_given_flag_wins_unset_keeps_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["qdist", "thermal:nbar=0", "--n-theta", "20", "--out", "q.csv"]) == 0
        comments, _, rows = read_csv(tmp_path / "q.csv")
        assert "n_theta=20" in comments      # the flag wins
        assert "n_phi=400" in comments       # an unset flag keeps its default
        assert len(rows) == 20 * 400

    def test_config_flag_is_unknown(self, tmp_path, monkeypatch, capsys):
        # flags are the one settings channel
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["qdist", "coherent:n=1", "--config", "cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", [["compare", "coherent:n=2", "phase:n=2"],
                                         ["chain", "coherent:n=2", "phase:n=2"],
                                         ["reproduce", "fig3"]], ids=lambda c: c[0])
    def test_bad_tol_rejected(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*command, *SMALL, "--tol", "0"]) == 2
        assert capsys.readouterr() == ("", "error: tol must be finite and > 0, got 0.0\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_flag_exits_2(self, tol, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "coherent:n=2", "phase:n=2", *SMALL, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be finite" in captured.err


# the error main reports when two inputs are bad: --tol is checked before any
# designator is read, and every designator before the grid
BAD_GRID = ["--n-theta", "0"]
BAD_SPEC_ERROR = "error: unknown state family 'bogus'\n"
BAD_TOL_ERROR = "error: tol must be finite and > 0, got nan\n"


@pytest.mark.parametrize("argv, err", [
    (["qdist", "bogus:n=1", *BAD_GRID], BAD_SPEC_ERROR),
    (["measures", "bogus:n=1", *BAD_GRID], BAD_SPEC_ERROR),
    (["compare", "coherent:n=2", "bogus:n=1", *BAD_GRID], BAD_SPEC_ERROR),
    (["chain", "coherent:n=2", "bogus:n=1", *BAD_GRID], BAD_SPEC_ERROR),
    (["reproduce", "fig3", *BAD_GRID], BAD_SPEC_ERROR),
    (["compare", "coherent:n=2", "bogus:n=1", "--tol", "nan"], BAD_TOL_ERROR),
    (["chain", "coherent:n=2", "bogus:n=1", "--tol", "nan", *BAD_GRID], BAD_TOL_ERROR),
    (["reproduce", "fig3", "--tol", "nan", *BAD_GRID], BAD_TOL_ERROR),
], ids=[f"{command}-{winner}" for command, winner in (
    ("qdist", "spec"), ("measures", "spec"), ("compare", "spec"), ("chain", "spec"),
    ("reproduce", "spec"), ("compare", "tol"), ("chain", "tol"), ("reproduce", "tol"))])
def test_error_order(argv, err, tmp_path, monkeypatch, capsys):
    import polmaj.cli as climod
    monkeypatch.setitem(climod.FIGURES, "fig3", ["coherent:n=2", "bogus:n=1"])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("char", ["\n", "\r", "\t"], ids=["lf", "cr", "tab"])
@pytest.mark.parametrize("command", [["compare", "coherent:n=3"], ["chain", "coherent:n=3"],
                                     ["qdist"], ["measures"]],
                         ids=["compare", "chain", "qdist", "measures"])
def test_control_character_in_a_value_exits_2(command, char, tmp_path, monkeypatch, capsys):
    # "# a=coherent:n=" and a bare "2" line would otherwise break the CSV
    monkeypatch.chdir(tmp_path)
    name, *rest = command
    for fmt in ("csv", "json"):
        assert main([name, f"coherent:n={char}2", *rest, "--format", fmt, *SMALL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "control characters" in captured.err
    assert os.listdir(tmp_path) == []


class TestQdist:
    def test_vacuum_thermal_uniform(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["qdist", "thermal:nbar=0", "--n-theta", "20", "--n-phi", "25"])
        assert rc == 0
        comments, header, rows = read_csv(tmp_path / "qdist.csv")
        assert header == ["j", "theta", "phi", "p"]
        p = np.array([float(r[3]) for r in rows])
        assert np.allclose(p, 1.0 / 500, rtol=1e-12)
        raw = float(next(c.split("=")[1] for c in comments if c.startswith("raw_mass")))
        assert raw == pytest.approx(1.0, abs=1e-12)

    def test_coherent_peak_at_north_pole(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["qdist", "coherent:n=2", *SMALL]) == 0
        _, _, rows = read_csv(tmp_path / "qdist.csv")
        thetas = np.array([float(r[1]) for r in rows])
        p = np.array([float(r[3]) for r in rows])
        assert thetas[np.argmax(p)] == thetas.min()

    def test_flat_ordering(self, tmp_path, monkeypatch):
        # j = n_phi (l - 1) + k: theta constant inside each band, phi cycling
        monkeypatch.chdir(tmp_path)
        assert main(["qdist", "random:n=2,seed=3", "--n-theta", "2", "--n-phi", "3",
                     "--format", "json"]) == 0
        pixels = json.loads((tmp_path / "qdist.json").read_text())["pixels"]
        grid = GridSpec(2, 3)
        assert pixels["theta"] == np.repeat(band_thetas(grid), 3).tolist()
        assert pixels["phi"] == np.tile(sector_phis(grid), 2).tolist()

    def test_malformed_spec_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["qdist", "coherent:n=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_non_finite_q_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def explode(obj, spec):
            raise EvaluationError("Q evaluator returned a non-finite value on the grid")

        import polmaj.cli as climod
        monkeypatch.setattr(climod, "discretize_state", explode)
        assert main(["qdist", "coherent:n=2", *SMALL]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_vanishing_q_exits_3(self, tmp_path, monkeypatch, capsys):
        # glauber nbar=1e9 underflows to zero on every pixel of a 4x4 grid
        monkeypatch.chdir(tmp_path)
        assert main(["qdist", "glauber:nbar=1e9", "--n-theta", "4", "--n-phi", "4"]) == 3
        assert "vanish" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        # only a StateSpecError means bad input; any other ValueError is a fault
        def fail(obj, spec):
            raise ValueError("internal fault")

        import polmaj.cli as climod
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(climod, "discretize_state", fail)
        with pytest.raises(ValueError, match="internal fault"):
            main(["qdist", "coherent:n=2", *SMALL])

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["qdist", "random:n=3,seed=9", "--n-theta", "30", "--n-phi", "30"]
        assert main([*argv, "--out", "a.csv"]) == 0
        assert main([*argv, "--out", "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_json_values_agree(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["qdist", "noon:n=3", "--n-theta", "15", "--n-phi", "15"]
        assert main([*argv, "--format", "csv", "--out", "q.csv"]) == 0
        assert main([*argv, "--format", "json", "--out", "q.json"]) == 0
        _, _, rows = read_csv(tmp_path / "q.csv")
        payload = json.loads((tmp_path / "q.json").read_text())
        for col, name in ((1, "theta"), (2, "phi"), (3, "p")):
            csv_vals = [float(r[col]) for r in rows]
            # repr round-trip makes the two encodings identical, not just close
            assert csv_vals == payload["pixels"][name]


class TestCompareCmd:
    def test_phase_below_coherent(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["compare", "coherent:n=2", "phase:n=2", *SMALL])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "phase ≺ coherent"

    def test_state_vs_itself_equal(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["compare", "coherent:n=3", "coherent:n=3", *SMALL])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert "≡" in out

    def test_lorenz_columns_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["compare", "coherent:n=2", "phase:n=2", *SMALL])
        comments, header, rows = read_csv(tmp_path / "compare.csv")
        assert header == ["k", "S_k_coherent", "S_k_phase"]
        assert len(rows) == 100 * 100
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)
        assert any(c.startswith("verdict=") for c in comments)

    def test_fine_grid_curves_end_at_one(self, tmp_path, monkeypatch):
        # a million pixels: the Lorenz endpoint must not drift past 1e-12
        monkeypatch.chdir(tmp_path)
        rc = main(["compare", "squeezed:n=4", "coherent:n=4", "--n-theta", "1000",
                   "--n-phi", "1000"])
        assert rc == 0

    def test_json_payload(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["compare", "coherent:n=2", "noon:n=6", *SMALL,
              "--format", "json", "--out", "cmp.json"])
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["verdict"]["relation"] == "incomparable"
        assert len(payload["verdict"]["witnesses"]) == 2
        assert set(payload["lorenz"]) == {"coherent", "noon"}


@pytest.mark.parametrize("argv", [
    ["compare", "hs:n=4", "noon:n=4"],
    ["chain", "hs:n=4", "squeezed:n=4", "noon:n=4", "phase:n=4"]])
def test_each_distribution_is_freed_before_the_next_is_built(tmp_path, monkeypatch, argv):
    # each state is discretized as partial_order reads it, and only its curve is kept
    import gc
    import weakref
    refs = []

    def tracked(obj, spec):
        gc.collect()
        assert all(r() is None for r in refs)
        d = discretize_state(obj, spec)
        refs.append(weakref.ref(d))
        return d

    monkeypatch.setattr("polmaj.cli.discretize_state", tracked)
    monkeypatch.chdir(tmp_path)
    assert main(argv + SMALL) == 0
    assert len(refs) == len(argv) - 1


class TestChainCmd:
    def test_n2_chain_letters(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["chain", "noon:n=2", "squeezed:n=2", "hs:n=2", "phase:n=2",
                   "coherent:n=2", *SMALL, "--format", "json"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "N≡S≡H ≺ P ≺ C"
        payload = json.loads((tmp_path / "chain.json").read_text())
        assert payload["chain"] == "N≡S≡H ≺ P ≺ C"
        assert payload["chain_ascii"] == "N==S==H < P < C"
        assert payload["verdict_matrix"][0][0]["relation"] == "equal"
        assert payload["violations"] == []
        assert set(payload["raw_masses"]) == {"N", "S", "H", "P", "C"}

    def test_single_state_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["chain", "coherent:n=2", *SMALL]) == 2
        assert "at least two states" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_csv_columns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["chain", "tmsv:nbar=10", "thermal:nbar=10", "glauber:nbar=10", *SMALL])
        _, header, rows = read_csv(tmp_path / "chain.csv")
        assert header == ["k", "S_k_S", "S_k_T", "S_k_C"]
        assert len(rows) == 10000


class TestReproduceCmd:
    def test_fig3_stable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["reproduce", "fig3", *SMALL])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "N≡S≡H ≺ P ≺ C"
        assert out[1] == "doubled-grid stability: PASS"
        payload = json.loads((tmp_path / "reproduce_fig3_verdicts.json").read_text())
        assert payload["stability"]["verdicts_unchanged"] is True
        assert payload["stability"]["grid_doubled"] == {"n_theta": 200, "n_phi": 200}
        assert (tmp_path / "reproduce_fig3_lorenz.csv").exists()

    def test_fig7_reports_crossing_witnesses(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["reproduce", "fig7", *SMALL])
        assert rc == 0
        payload = json.loads((tmp_path / "reproduce_fig7_verdicts.json").read_text())
        verdict = payload["verdict_matrix"][0][1]
        assert verdict["relation"] == "incomparable"
        k_a, k_b = verdict["witnesses"]
        assert 1 <= k_a <= 10000 and 1 <= k_b <= 10000 and k_a != k_b

    def test_lorenz_cells_are_float_reprs(self, tmp_path, monkeypatch):
        # each S_k cell is the shortest round-trip text of the library's value
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "fig7", "--n-theta", "20", "--n-phi", "20"]) == 0
        _, header, rows = read_csv(tmp_path / "reproduce_fig7_lorenz.csv")
        assert header == ["k", "S_k_C", "S_k_N"]
        assert [r[0] for r in rows] == [str(k) for k in range(1, 401)]
        for col, spec in ((1, "coherent:n=2"), (2, "noon:n=6")):
            s = lorenz(discretize_state(parse_state_spec(spec).obj, GridSpec(20, 20))).s
            assert [r[col] for r in rows] == [repr(v) for v in s.tolist()]

    def test_one_curve_per_distribution(self, tmp_path, monkeypatch):
        import polmaj.majorize as majmod
        import polmaj.sphere_grid as gridmod
        calls = {"lorenz": 0, "discretize_state": 0}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        # every polmaj module that bound either function calls the counted one
        for fn in (majmod.lorenz, gridmod.discretize_state):
            wrapper = counted(fn)
            for name, mod in list(sys.modules.items()):
                if name.startswith("polmaj") and getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, wrapper)
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "fig5", "--n-theta", "40", "--n-phi", "40"]) == 0
        assert calls["discretize_state"] == 10      # five states on two grids
        assert calls["lorenz"] == calls["discretize_state"]

    @pytest.mark.parametrize("figure, n, bound", [
        ("fig3", 200, 5.5), ("fig4", 200, 6.5), ("fig5", 200, 5.4), ("fig6", 200, 6.5),
        ("fig7", 200, 3.4), ("fig8", 200, 1.4), ("fig5", 400, 4.4), ("fig8", 400, 0.6)])
    def test_doubled_grid_check_keeps_curves_not_distributions(self, tmp_path, monkeypatch,
                                                               figure, n, bound):
        # the doubled grid runs first and its states stream through partial_order,
        # each freed once its curve exists, so the peak is the doubled grid's held
        # curves plus the last state's transient; a phi-independent state's curve holds
        # only its runs.  In doubled-grid curves, at 200^2: fig3 5.2, fig4 6.1, fig5 5.1,
        # fig6 6.1 (one complex block of Q at 400^2 is two curves), fig7 3.1 and fig8
        # 1.1; at 400^2: fig5 4.1, fig8 0.3
        monkeypatch.chdir(tmp_path)
        curve_bytes = 8 * (2 * n) ** 2
        tracemalloc.start()
        try:
            assert main(["reproduce", figure, "--n-theta", str(n), "--n-phi", str(n)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * curve_bytes

    def test_unknown_figure_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "fig99"])
        assert exc.value.code == 2


class TestMeasuresCmd:
    def test_uniform_state_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["measures", "thermal:nbar=0", "--n-theta", "40", "--n-phi", "40"])
        assert rc == 0
        assert capsys.readouterr().out == ""
        _, header, rows = read_csv(tmp_path / "measures.csv")
        assert header == ["measure", "param", "value"]
        renyi_rows = [r for r in rows if r[0] == "renyi"]
        for r in renyi_rows:
            assert float(r[2]) == pytest.approx(math.log(1600), abs=1e-9)
        ks = [int(r[2]) for r in rows if r[0] == "confidence"]
        assert ks == sorted(ks)

    def test_json_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["measures", "coherent:n=2", "--n-theta", "30", "--n-phi", "30",
              "--format", "json", "--out", "m.json"])
        payload = json.loads((tmp_path / "m.json").read_text())
        assert set(payload["renyi"]) == {"0.5", "1.0", "2.0", "5.0"}
        assert len(payload["confidence"]) == 19


def _dist(spec, grid):
    return discretize_state(parse_state_spec(spec).obj, grid)


def _lorenz_rows(specs, grid):
    return zip(range(1, grid.n_pixels + 1), *(lorenz(_dist(s, grid)).s.tolist() for s in specs))


def _qdist_rows(spec, grid):
    return zip(range(1, grid.n_pixels + 1), np.repeat(band_thetas(grid), grid.n_phi).tolist(),
               np.tile(sector_phis(grid), grid.n_theta).tolist(), _dist(spec, grid).p.tolist())


def _measures_rows(spec, grid):
    d = _dist(spec, grid)
    return ([("renyi", q, renyi(d, q)) for q in RENYI_Q_SWEEP]
            + [("confidence", a, confidence_interval(d, a)) for a in ALPHA_SWEEP])


class TestCsvWriter:
    # the block writer against the row-at-a-time rendering it replaced, byte for byte
    @pytest.mark.parametrize("n_rows", [1, 4095, 4096, 2 * 4096 + 5])
    def test_cells_are_str_of_each_value(self, n_rows, tmp_path, capsys):
        floats = np.random.default_rng(n_rows).uniform(0.0, 1.0, n_rows) ** 8
        floats[0], floats[-1] = 1.0, 1.2e-05
        names = tuple(("renyi", "confidence")[i % 2] for i in range(n_rows))
        ints = np.arange(n_rows) * 3
        header, comments = ["k", "measure", "x", "i"], ["state=coherent:n=2", "tol=0.001"]
        path = tmp_path / "t.csv"
        _write(path, "csv", comments, header,
               lambda: (range(1, n_rows + 1), names, floats, ints), None)
        text = path.read_bytes().decode("utf-8")
        assert text == csv_text(comments, header,
                                zip(range(1, n_rows + 1), names, floats.tolist(), ints.tolist()))
        assert len(text.splitlines()) == len(comments) + 1 + n_rows
        assert text.endswith(",1.2e-05,%d\n" % (3 * n_rows - 3))
        assert capsys.readouterr().err == f"wrote {path}\n"

    def test_unequal_columns_leave_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="one length"):
            _write(path, "csv", [], ["a", "b"], lambda: (range(3), np.zeros(2)), None)
        assert not path.exists()

    # SMALL is 100 x 100 = 10,000 rows: two full 4,096-row blocks and a partial one
    GRID = GridSpec(100, 100)

    @pytest.mark.parametrize("argv, name, rows", [
        (["reproduce", "fig7", "--out", "r"], "r_lorenz.csv",
         lambda g: _lorenz_rows(FIGURES["fig7"], g)),
        (["reproduce", "fig8", "--out", "r"], "r_lorenz.csv",
         lambda g: _lorenz_rows(FIGURES["fig8"], g)),
        (["compare", "squeezed:n=4", "coherent:n=4", "--out", "o.csv"], "o.csv",
         lambda g: _lorenz_rows(["squeezed:n=4", "coherent:n=4"], g)),
        (["chain", "noon:n=3", "random:n=3,seed=2", "coherent:n=3", "--out", "o.csv"], "o.csv",
         lambda g: _lorenz_rows(["noon:n=3", "random:n=3,seed=2", "coherent:n=3"], g)),
        (["qdist", "random:n=3,seed=5", "--out", "o.csv"], "o.csv",
         lambda g: _qdist_rows("random:n=3,seed=5", g)),
        (["measures", "random:n=5,seed=1", "--out", "o.csv"], "o.csv",
         lambda g: _measures_rows("random:n=5,seed=1", g)),
    ], ids=["reproduce-fig7", "reproduce-fig8", "compare", "chain", "qdist", "measures"])
    def test_subcommand_csv_matches_row_oracle(self, argv, name, rows, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, *SMALL]) == 0
        text = (tmp_path / name).read_bytes().decode("utf-8")
        comments, header, _ = read_csv(tmp_path / name)
        assert text == csv_text(comments, header, rows(self.GRID))
        if argv[0] == "qdist":
            assert "e-05" in text     # exponent-form cells round-trip as str writes them


class TestCsvJsonAgree:
    # the numbers each subcommand writes in both formats, as (CSV, JSON) lists
    @staticmethod
    def compare(meta, header, rows, payload):
        labels = list(payload["lorenz"])
        assert header == ["k"] + [f"S_k_{lab}" for lab in labels]
        assert meta["verdict"] == payload["verdict"]["relation"]
        return ([float(meta["raw_mass_a"]), float(meta["raw_mass_b"])]
                + [[float(r[col]) for r in rows] for col in (1, 2)],
                [s["raw_mass"] for s in payload["states"]]
                + [payload["lorenz"][lab] for lab in labels])

    @staticmethod
    def chain(meta, header, rows, payload):
        assert header == ["k"] + [f"S_k_{s['label']}" for s in payload["states"]]
        assert meta["states"] == " ".join(s["spec"] for s in payload["states"])
        assert meta["chain"] == payload["chain_ascii"]
        return [], []

    @staticmethod
    def measures(meta, header, rows, payload):
        json_rows = ([("renyi", float(q), v) for q, v in payload["renyi"].items()]
                     + [("confidence", float(a), k) for a, k in payload["confidence"].items()])
        return ([float(meta["raw_mass"])] + [(r[0], float(r[1]), float(r[2])) for r in rows],
                [payload["raw_mass"]] + json_rows)

    @pytest.mark.parametrize("argv", [["compare", "coherent:n=2", "noon:n=6", "--tol", "3e-4"],
                                      ["chain", "noon:n=2", "random:n=2,seed=3", "coherent:n=2",
                                       "--tol", "3e-4"],
                                      ["measures", "random:n=3,seed=4"]], ids=lambda a: a[0])
    def test_csv_json_values_agree(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--n-theta", "15", "--n-phi", "15"]
        assert main([*argv, "--format", "csv", "--out", "o.csv"]) == 0
        assert main([*argv, "--format", "json", "--out", "o.json"]) == 0
        comments, header, rows = read_csv(tmp_path / "o.csv")
        meta = dict(c.split("=", 1) for c in comments)
        payload = json.loads((tmp_path / "o.json").read_text())
        assert payload["command"] == argv[0]
        csv_vals, json_vals = getattr(self, argv[0])(meta, header, rows, payload)
        # repr round-trip makes the two encodings identical, not just close
        assert csv_vals == json_vals
        assert [int(meta["n_theta"]), int(meta["n_phi"])] == list(payload["grid"].values())
        if "tol" in payload:
            assert float(meta["tol"]) == payload["tol"] == 3e-4


class TestSubcommandInterface:
    @pytest.mark.parametrize("argv, positionals", [
        (["qdist", "coherent:n=1"], {"state": "coherent:n=1"}),
        (["measures", "coherent:n=1"], {"state": "coherent:n=1"}),
        (["compare", "coherent:n=1", "phase:n=2"], {"state_a": "coherent:n=1", "state_b": "phase:n=2"}),
        (["chain", "noon:n=2"], {"states": ["noon:n=2"]}),
        (["chain", "noon:n=2", "hs:n=2", "phase:n=2"], {"states": ["noon:n=2", "hs:n=2", "phase:n=2"]}),
        (["reproduce", "fig8"], {"figure": "fig8"}),
    ])
    def test_positionals(self, argv, positionals):
        tol = ["--tol", "0.01"] if argv[0] in ("compare", "chain", "reproduce") else []
        args = make_parser().parse_args([*argv, "--n-theta", "8", *tol])
        assert args.command == argv[0] and args.func.__name__ == f"cmd_{argv[0]}"
        assert {key: getattr(args, key) for key in positionals} == positionals
        # a given flag wins, an unset one reads its default, an absent one is not there
        assert (args.n_theta, args.n_phi, args.out) == (8, 400, None)
        assert getattr(args, "tol", None) == (0.01 if tol else None)
        assert getattr(args, "fmt", None) == (None if argv[0] == "reproduce" else "csv")

    @pytest.mark.parametrize("command, options", [
        ("qdist", ["--n-theta", "--n-phi", "--format", "--out"]),
        ("compare", ["--n-theta", "--n-phi", "--tol", "--format", "--out"]),
        ("chain", ["--n-theta", "--n-phi", "--tol", "--format", "--out"]),
        ("reproduce", ["--n-theta", "--n-phi", "--tol", "--out"]),
        ("measures", ["--n-theta", "--n-phi", "--format", "--out"]),
    ])
    def test_each_subcommand_takes_only_the_flags_it_reads(self, command, options):
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = [s for action in sub.choices[command]._actions for s in action.option_strings]
        assert flags == ["-h", "--help", *options]

    @pytest.mark.parametrize("argv, flag", [
        *[([*command, "--seed", "1"], "--seed") for command in (
            ["qdist", "coherent:n=2"], ["compare", "coherent:n=2", "phase:n=2"],
            ["chain", "coherent:n=2", "phase:n=2"], ["reproduce", "fig3"],
            ["measures", "coherent:n=2"])],
        (["reproduce", "fig3", "--format", "json"], "--format"),
        (["qdist", "coherent:n=2", "--tol", "0.01"], "--tol"),
        (["measures", "coherent:n=2", "--tol", "0.01"], "--tol"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_removed_flag_exits_2(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, *SMALL])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {flag} " in captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["qdist"], ["qdist", "coherent:n=1", "coherent:n=2"],
        ["measures"], ["measures", "coherent:n=1", "coherent:n=2"],
        ["compare", "coherent:n=1"], ["compare", "coherent:n=1", "phase:n=2", "noon:n=2"],
        ["chain"], ["reproduce"], ["reproduce", "fig9"], ["reproduce", "fig3", "fig4"],
    ])
    def test_wrong_count_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-theta", "4", "--n-phi", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: polmaj ")  # extra ones: top-level usage
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, usage", [
        ("qdist", "state"), ("measures", "state"), ("compare", "state_a state_b"),
        ("chain", "states [states ...]"), ("reproduce", "{fig3,fig4,fig5,fig6,fig7,fig8}"),
    ])
    def test_help_names_positionals(self, command, usage, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith(f"usage: polmaj {command} [-h] [--n-theta N_THETA]")
        assert first.endswith(f"[--out OUT] {usage}")


    @pytest.mark.parametrize("command", ["qdist", "compare", "chain", "measures", "reproduce"])
    def test_out_help_says_what_is_written(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.lstrip().startswith("--out OUT"))
        text = line.split("--out OUT", 1)[1].strip()
        if command == "reproduce":
            assert "writes BASE_lorenz.csv and BASE_verdicts.json" in text
        else:
            assert text == "output path"


class TestStdoutGlyphs:
    def test_ascii_terminal_falls_back(self, tmp_path, monkeypatch, capsys):
        import io
        import sys as _sys
        import polmaj.cli as climod
        monkeypatch.chdir(tmp_path)

        class AsciiOut(io.StringIO):
            encoding = "ascii"

        fake = AsciiOut()
        monkeypatch.setattr(_sys, "stdout", fake)
        rc = main(["compare", "coherent:n=2", "phase:n=2", "--n-theta", "60", "--n-phi", "60"])
        assert rc == 0
        assert fake.getvalue().strip() == "phase < coherent"


def test_import_leaves_scipy_out():
    src = str(Path(polmaj.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, polmaj, polmaj.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
