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
