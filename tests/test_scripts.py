import importlib.util
from pathlib import Path

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
