"""Alternating benchmark pairs of a parent and a change checkout, summarized as BENCH_*.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --seeds 201-210 \
        --workloads figures lieb-sweep --out BENCH_20.json --note "what the change does"

For each workload and seed it runs `perfbench/run.py --trace 0` once in each
checkout, one run at a time; the side that runs first alternates from pair to
pair, starting with the parent.  Metric names, units and directions come from
the change checkout's BENCHMARK.json, and so does the run length, the same on
both sides.  The output file is rewritten after every pair, so an interrupted
run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

METHOD = ("pairs of one parent run and one change run on the same seed, one workload at a "
          "time; the side that runs first alternates from pair to pair (parent_first per "
          "seed); each side runs in its own checkout; quartiles by linear interpolation; "
          "change_better_in counts pairs, ties for neither")
SIDES = ("parent", "change")


def quartiles(runs: list[float]) -> dict:
    """Median, first and third quartile (linear interpolation) and their distance."""
    if len(runs) == 1:
        q1 = med = q3 = runs[0]
    else:
        q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr": round(q3 - q1, 6), "runs": [round(r, 6) for r in runs]}


def side_summary(results: list[dict], metrics: dict[str, dict]) -> dict:
    """One side's runs: each metric's quartiles, then correct, attempted, failed and
    wall_s per run.  `results` are run.py's result objects with a wall_s key added."""
    out = {name: {"unit": spec["unit"],
                  **quartiles([r["metrics"][name]["value"] for r in results])}
           for name, spec in metrics.items()}
    for key in ("correct", "attempted", "failed"):
        out[key] = [r[key] for r in results]
    out["wall_s"] = [round(r["wall_s"], 1) for r in results]
    return out


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def summarize(seeds: list[int], parent_first: list[bool], results: dict[str, list[dict]],
              metrics: dict[str, dict]) -> dict:
    """The BENCH_*.json entry of one workload from the runs of both sides, in seed order."""
    out = {"seeds": seeds, "pairs": len(seeds), "parent_first": parent_first}
    out.update({side: side_summary(results[side], metrics) for side in SIDES})
    out["compare"] = {}
    for name, spec in metrics.items():
        p, c = out["parent"][name], out["change"][name]
        out["compare"][name] = {
            "change_better_in": f"{pairs_won(p['runs'], c['runs'], spec['better'])}/{len(seeds)}",
            "median_ratio": round(c["median"] / p["median"], 4)}
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `checkout`: run.py's result plus its wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "wall_s": wall}


def parse_seeds(text: str) -> list[int]:
    """"201-210" or "3,5,8" as a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def host() -> dict:
    import numpy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "201-210" or "3,5,8"')
    ap.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--note", default="", help="what the change does, for the output's header")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc = {"change": args.note,
           "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {seconds:g} --trace 0",
           "host": host(), "method": METHOD, "workloads": {}}
    for workload in workloads:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        parent_first: list[bool] = []
        for i, seed in enumerate(args.seeds):
            parent_first.append(i % 2 == 0)
            order = SIDES if parent_first[-1] else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                results[side].append(run_once(checkout, workload, seed, seconds))
            doc["workloads"][workload] = summarize(args.seeds[:i + 1], parent_first, results,
                                                   metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            line = ", ".join(f"{name} {results['parent'][-1]['metrics'][name]['value']:.4g} -> "
                             f"{results['change'][-1]['metrics'][name]['value']:.4g}"
                             for name in metrics)
            print(f"{workload} seed {seed}: {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
