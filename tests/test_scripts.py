import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_fast(tmp_path, capsys):
    # fig3..fig8 on the 100x100 grid: one Lorenz CSV and one verdict JSON each
    assert load_script().main([str(tmp_path), "--fast"]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 12
    assert written == sorted(f"fig{i}_{kind}" for i in range(3, 9)
                             for kind in ("lorenz.csv", "verdicts.json"))
    assert "all stability checks passed" in capsys.readouterr().out


def test_unknown_option_exits_2_before_anything_is_created(tmp_path, monkeypatch, capsys):
    # a mistyped --fast is an error, not an output directory named "--fats"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--fats"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fats" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def load_bench_pairs():
    path = SCRIPT.parent / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = {"ops_per_s": {"name": "ops_per_s", "unit": "op/s", "better": "higher"},
           "peak_rss_mb": {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}}


def canned(ops, rss, failed=0, wall=40.0):
    """A run.py result object plus its wall time."""
    return {"correct": True, "attempted": 12, "failed": failed, "wall_s": wall,
            "metrics": {"ops_per_s": {"value": ops, "unit": "op/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_bench_pairs_quartiles_interpolate_linearly():
    bp = load_bench_pairs()
    # sorted 1, 2, 4, 8, 16: q1 at position 1 and q3 at position 3 exactly
    assert bp.quartiles([8.0, 1.0, 16.0, 2.0, 4.0]) == {
        "median": 4.0, "q1": 2.0, "q3": 8.0, "iqr": 6.0, "runs": [8.0, 1.0, 16.0, 2.0, 4.0]}
    # sorted 1, 2, 3, 4: q1 at position 0.75, q3 at 2.25
    q = bp.quartiles([4.0, 3.0, 2.0, 1.0])
    assert (q["median"], q["q1"], q["q3"], q["iqr"]) == (2.5, 1.75, 3.25, 1.5)
    assert bp.quartiles([7.0])["iqr"] == 0.0


def test_bench_pairs_summary_counts_wins_by_direction_and_ties_for_neither():
    bp = load_bench_pairs()
    parent = [canned(10.0, 50.0), canned(10.0, 50.0, wall=41.04), canned(12.0, 51.0)]
    change = [canned(11.0, 48.0, failed=1), canned(9.0, 50.0), canned(12.0, 49.0)]
    out = bp.summarize([1, 2, 3], [True, False, True], {"parent": parent, "change": change},
                       METRICS)
    assert out["seeds"] == [1, 2, 3] and out["pairs"] == 3
    assert out["parent_first"] == [True, False, True]
    # ops_per_s: higher wins, 11 > 10 once, 9 < 10, 12 == 12 a tie
    assert out["compare"]["ops_per_s"] == {"change_better_in": "1/3", "median_ratio": 1.1}
    # peak_rss_mb: lower wins, 48 < 50, 50 == 50 a tie, 49 < 51
    assert out["compare"]["peak_rss_mb"] == {"change_better_in": "2/3",
                                             "median_ratio": round(49.0 / 50.0, 4)}
    assert out["change"]["peak_rss_mb"]["unit"] == "MB"
    assert out["change"]["peak_rss_mb"]["runs"] == [48.0, 50.0, 49.0]
    assert out["change"]["failed"] == [1, 0, 0] and out["parent"]["correct"] == [True] * 3
    assert out["parent"]["wall_s"] == [40.0, 41.0, 40.0]
    assert list(out) == ["seeds", "pairs", "parent_first", "parent", "change", "compare"]
    assert list(out["parent"]) == ["ops_per_s", "peak_rss_mb", "correct", "attempted", "failed",
                                   "wall_s"]


def test_bench_pairs_parses_seed_ranges_and_lists():
    bp = load_bench_pairs()
    assert bp.parse_seeds("201-204") == [201, 202, 203, 204]
    assert bp.parse_seeds("3,5,8") == [3, 5, 8]
