#!/usr/bin/env python3
"""Regenerate all built-in figure datasets (fig3..fig8) into figure_data/.

Each figure produces a Lorenz-curve CSV (k, S_k per state) ready for plotting and
a verdict JSON with the chain, the pairwise verdict matrix and the doubled-grid
stability result.

Usage:
    python scripts/reproduce_figures.py [outdir] [--fast]

--fast uses a 100x100 grid (handy smoke run); default is the full 400x400.
"""

import argparse
import sys
from pathlib import Path

from polmaj.cli import FIGURES, main as polmaj_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the fig3..fig8 datasets.")
    parser.add_argument("outdir", nargs="?", type=Path, default=Path("figure_data"))
    parser.add_argument("--fast", action="store_true", help="100x100 grid instead of 400x400")
    args = parser.parse_args(argv)
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)

    grid_flags = ["--n-theta", "100", "--n-phi", "100"] if args.fast else []
    failures = []
    for figure in sorted(FIGURES):
        print(f"=== {figure}: {' '.join(FIGURES[figure])}")
        rc = polmaj_main(["reproduce", figure, "--out", str(outdir / figure), *grid_flags])
        if rc != 0:
            failures.append(figure)
    print(f"\ndatasets in {outdir}/")
    if failures:
        print(f"stability FAILED for: {', '.join(failures)}")
        return 1
    print("all stability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
