"""polmaj benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {figures,lieb-sweep,fine-grid} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a polmaj checkout; polmaj is imported from the
checkout's src/ directory.  With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics (setup_s, ops_per_s, op_s_p50,
peak_rss_mb); with --trace 1 it holds the per-layer metrics from a traced run.
Every child interpreter runs with the BLAS and OpenMP pools pinned to one
thread.  Output files go to a fresh directory under .perfbench_out/, removed
at the end.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEADLINE_S = 170.0
IMPORTTIME_RUNS = 5
IMPORT = "import polmaj, polmaj.cli"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# traced functions reported as per-operation calls and self time
SPAN_METRICS = (
    "cli.main", "majorize.lorenz", "majorize.compare", "majorize.partial_order",
    "sphere_grid.discretize_state", "qfunction.q_on_grid",
    "measures.confidence_interval", "measures.renyi",
    "states.random_pure", "states.apply_su2",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def run_child(cmd: list[str], start: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout the whole group is killed."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=remaining(start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[1:3])} ran out of time") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds of -X importtime self time per family (numpy, scipy, polmaj, other).

    A module counts for the highest-ranked of scipy > numpy > polmaj among
    itself and the modules that imported it, so each family holds what loading
    it pulls in: the stdlib and numpy modules that scipy imports count as scipy,
    the stdlib modules polmaj imports itself count as polmaj."""
    stack: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _, raw = line.split("|", 2)
        depth = len(raw) - len(raw.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, raw.strip(), int(head.split(":")[1]), children))
    rank = {"other": 0, "polmaj": 1, "numpy": 2, "scipy": 3}
    totals = dict.fromkeys(rank, 0.0)

    def walk(node, family):
        _, name, self_us, children = node
        top = name.split(".")[0]
        if rank.get(top, 0) > rank[family]:
            family = top
        totals[family] += self_us / 1e6
        for child in children:
            walk(child, family)

    for node in stack:
        walk(node, "other")
    return totals


def setup_layers(start: float) -> dict[str, float]:
    runs = [import_breakdown(run_child([sys.executable, "-X", "importtime", "-c", IMPORT], start).stderr)
            for _ in range(IMPORTTIME_RUNS)]
    return {fam: statistics.median(r[fam] for r in runs) for fam in ("numpy", "scipy", "polmaj")}


def run_workload(args, out_dir: Path, start: float) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    proc = run_child(cmd, start)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload printed no result")
    return json.loads(lines[-1])


def end_to_end(res: dict) -> dict:
    times = res["op_times"]
    return {
        "setup_s": {"value": statistics.median(res["setup_samples"]), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "op/s"},
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res: dict, setup: dict[str, float]) -> dict:
    traced = res["traced_op_times"]
    n_ops = len(traced)
    spans = res["spans"]
    m = {
        "setup.numpy_import_s": (setup["numpy"], "s"),
        "setup.scipy_import_s": (setup["scipy"], "s"),
        "setup.polmaj_import_s": (setup["polmaj"], "s"),
    }
    for name in SPAN_METRICS:
        agg = spans.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (agg["calls"] / n_ops, "calls/op")
        m[f"{name}.self_s"] = (agg["self_s"] / n_ops, "s/op")
    n_dist = spans.get("sphere_grid.discretize_state", {}).get("calls", 0)
    n_lorenz = spans.get("majorize.lorenz", {}).get("calls", 0)
    m["majorize.lorenz.per_distribution"] = (n_lorenz / n_dist if n_dist else 0.0, "ratio")
    m["sphere_grid.pixels"] = (res["pixels"] / n_ops, "px/op")
    m["cli.bytes_written"] = (res["bytes_per_op"], "B/op")
    untraced_rate = len(res["op_times"]) / sum(res["op_times"])
    traced_rate = n_ops / sum(traced)
    m["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced_rate), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("figures", "lieb-sweep", "fine-grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "polmaj" / "__init__.py").is_file():
        print(f"error: no polmaj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results_dir = ROOT / ".perfbench_out"
    results_dir.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=results_dir))
    try:
        if args.trace:
            setup = setup_layers(start)
            res = run_workload(args, out_dir, start)
            metrics = per_layer(res, setup)
            shutil.move(out_dir / "spans.jsonl", results_dir / f"spans-{args.workload}.jsonl")
        else:
            res = run_workload(args, out_dir, start)
            metrics = end_to_end(res)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
