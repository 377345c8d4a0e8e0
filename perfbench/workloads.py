"""One benchmark workload in its own process: a closed loop of polmaj operations.

One caller runs one operation at a time, from a fixed list in a fixed order,
after one untimed warm-up operation.  Each operation is timed alone; its
output is checked after the clock stops.  The loop runs whole rounds of the
list until the timed operations add up to --seconds, so every run attempts
whole rounds.  The last stdout line is a JSON object with the op times,
counts, failures and peak memory; run.py turns it into metrics.

    PYTHONPATH=src python3 perfbench/workloads.py --workload lieb-sweep \
        --seed 1 --seconds 20 --trace 0 --out-dir .perfbench_out/x
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference as ref
from tracing import ROOT, Tracer

ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))
QS = (0.5, 1.0, 2.0, 5.0)
SETUP_SAMPLES = 9
IMPORT_TIMER = ("import time; t = time.perf_counter(); import polmaj, polmaj.cli; "
                "print(time.perf_counter() - t)")

# Faults of polmaj that make fine-grid operations fail every time.  An operation
# listed here fails with the given text in its error; any other failure marks
# the run incorrect.
KNOWN_FAULTS = {
    "squeezed:n=4": "S_N must equal 1",        # F1: cumsum drift in lorenz
    "squeezed:n=10": "S_N must equal 1",
    "glauber:nbar=10": "S_N must equal 1",
    "tmsv:nbar=1000": "S_N must equal 1",
    "thermal:nbar=1000": "from the closed form",  # F2: midpoint sampling under-resolves
}


def load_polmaj(root: Path):
    """Import polmaj from the checkout's src/ and nowhere else."""
    import polmaj
    import polmaj.cli

    src = (root / "src").resolve()
    if Path(polmaj.__file__).resolve().parent.parent != src:
        raise SystemExit(f"polmaj imported from {polmaj.__file__}, not from {src}")
    return polmaj, polmaj.cli


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


# ------------------------------------------------------------------- figures

def read_lorenz_csv(path: Path):
    comments: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            comments[key] = val
            line = fh.readline()
        header = line.strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return comments, header, data


class Figures:
    """`polmaj reproduce figN` for fig3..fig8 on the default 400^2 grid, through the CLI."""

    N_THETA = N_PHI = 400

    def __init__(self, pm, cli, seed: int, out_dir: Path):
        self.cli = cli
        self.out_dir = out_dir
        self.bytes_written: list[int] = []     # per checked operation
        exact_specs = {s for specs, _ in checks.FIGURES.values() for s in specs if ref.has_closed_form(s)}
        self.exact = {s: ref.ExactCurve.from_bands(ref.band_masses(s, self.N_THETA), self.N_PHI)
                      for s in exact_specs}
        self.ops = [self._op(fig) for fig in checks.FIGURES]

    def _op(self, fig: str) -> Op:
        base = self.out_dir / fig

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(["reproduce", fig, "--out", str(base)])
            return rc

        def check(rc):
            csv_path = base.with_name(base.name + "_lorenz.csv")
            json_path = base.with_name(base.name + "_verdicts.json")
            self.bytes_written.append(csv_path.stat().st_size + json_path.stat().st_size)
            payload = json.loads(json_path.read_text(encoding="utf-8"))
            comments, header, data = read_lorenz_csv(csv_path)
            problems = []
            if not np.array_equal(data[:, 0], np.arange(1, data.shape[0] + 1)):
                problems.append("CSV k column is not 1..N")
            return problems + checks.check_figure(fig, rc, payload, comments, header, data[:, 1:],
                                                  self.exact)

        return Op(fig, run, check)

    def warmup(self) -> Op:
        return self.ops[0]

    def round(self) -> list[Op]:
        return self.ops


# ---------------------------------------------------------------- lieb-sweep

class LiebSweep:
    """Haar-random pure states for n = 2..8 at 400^2, each compared with the pole
    coherent state of the same n and, for n = 4, 5, the Hilbert-Schmidt extremal
    state.  One sample in ten is a coherent state rotated to random Euler angles."""

    N_THETA = N_PHI = 400
    NS = range(2, 9)
    PER_N = 10
    SPOT_PIXELS = 4

    def __init__(self, pm, cli, seed: int, out_dir: Path):
        self.pm = pm
        self.grid = pm.GridSpec(self.N_THETA, self.N_PHI)
        self.rng = np.random.default_rng(seed)
        self.pole = {n: pm.make_coherent(n) for n in self.NS}
        self.coherent = {n: pm.lorenz(pm.discretize_state(self.pole[n], self.grid)) for n in self.NS}
        self.hs = {n: pm.lorenz(pm.discretize_state(pm.make_hs_extremal(n), self.grid)) for n in (4, 5)}

    def _op(self, n: int, rotated: bool) -> Op:
        pm, grid = self.pm, self.grid
        big_n = self.N_THETA * self.N_PHI
        pixels = [int(j) for j in self.rng.integers(1, big_n + 1, size=self.SPOT_PIXELS)]
        if rotated:
            alpha, gamma = (float(np.pi - 2.0 * np.pi * x) for x in self.rng.random(2))  # (-pi, pi]
            beta = float(np.pi * self.rng.random())
            rot = pm.EulerRotation(alpha, beta, gamma)
            label = f"rotated:n={n}"
            pixels.append(ref.pixel_near(beta, alpha, self.N_THETA, self.N_PHI))  # the peak

            def make():
                return pm.apply_su2(self.pole[n], rot)

            def q_ref(state, theta, phi):
                return checks.rotated_coherent_q(n, alpha, beta, theta, phi)
        else:
            sample_seed = int(self.rng.integers(2**63))
            label = f"random:n={n},seed={sample_seed}"

            def make():
                return pm.random_pure(n, sample_seed)

            def q_ref(state, theta, phi):
                return ref.q_point(state.amps, theta, phi)
        hs = self.hs.get(n)

        def run():
            state = make()
            dist = pm.discretize_state(state, grid)
            curve = pm.lorenz(dist)
            v_coh = pm.compare(self.coherent[n], curve)
            v_hs = pm.compare(hs, curve) if hs is not None else None
            return state, dist, curve, v_coh, v_hs

        def check(out):
            state, dist, curve, v_coh, v_hs = out
            problems = checks.check_lieb(n, rotated, curve.s, self.coherent[n].s, v_coh.relation.value,
                                         None if hs is None else hs.s,
                                         None if v_hs is None else v_hs.relation.value)
            return problems + checks.check_pixels(dist.p, dist.raw_mass, pixels,
                                                  lambda th, ph: q_ref(state, th, ph), n,
                                                  self.N_THETA, self.N_PHI)

        return Op(label, run, check)

    def warmup(self) -> Op:
        return self._op(2, False)

    def round(self) -> list[Op]:
        return [self._op(n, i == self.PER_N - 1) for n in self.NS for i in range(self.PER_N)]


# ----------------------------------------------------------------- fine-grid

class FineGrid:
    """phi-independent states at 1200^2: discretize, the K(alpha) and R_q sweeps,
    then lorenz last, so an operation that fails in lorenz has done the same work
    it will do once the fault is mended."""

    N_THETA = N_PHI = 1200
    SPECS = ("coherent:n=4", "coherent:n=100", "coherent:n=1000",
             "squeezed:n=4", "squeezed:n=10", "squeezed:n=200",
             "glauber:nbar=10", "glauber:nbar=1000",
             "thermal:nbar=10", "thermal:nbar=1000",
             "tmsv:nbar=10", "tmsv:nbar=1000")

    def __init__(self, pm, cli, seed: int, out_dir: Path):
        self.pm = pm
        self.grid = pm.GridSpec(self.N_THETA, self.N_PHI)
        self.ops = [self._op(spec, cli.parse_state_spec(spec).obj) for spec in self.SPECS]

    def _op(self, spec: str, state) -> Op:
        pm, grid = self.pm, self.grid
        exact = ref.ExactCurve.from_bands(ref.band_masses(spec, self.N_THETA), self.N_PHI)

        def run():
            dist = pm.discretize_state(state, grid)
            ks = [pm.confidence_interval(dist, a) for a in ALPHAS]
            rs = [pm.renyi(dist, q) for q in QS]
            return pm.lorenz(dist), ks, rs

        def check(out):
            curve, ks, rs = out
            return (checks.check_against_exact(spec, curve.s, exact)
                    + checks.check_measures(spec, ks, ALPHAS, rs, QS, exact))

        return Op(spec, run, check)

    def warmup(self) -> Op:
        return self.ops[0]

    def round(self) -> list[Op]:
        return self.ops


WORKLOADS = {"figures": Figures, "lieb-sweep": LiebSweep, "fine-grid": FineGrid}


# ---------------------------------------------------------------------- loop

def run_op(op: Op, tracer: Tracer | None) -> tuple[float, str | None]:
    """Time one operation, then check it.  Returns (seconds, problem or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span(ROOT):
                out = op.run()
    except Exception as exc:  # a raising operation is a counted failure
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    problems = op.check(out)
    return dt, "; ".join(problems) if problems else None


def time_import() -> float:
    """Seconds a fresh interpreter takes to import polmaj and polmaj.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    pm, cli = load_polmaj(root)
    out_dir = Path(args.out_dir)
    work = WORKLOADS[args.workload](pm, cli, args.seed, out_dir)

    time_import()                      # fills the bytecode cache; not counted
    run_op(work.warmup(), None)
    tracer = Tracer() if args.trace else None
    # untraced and, in traced mode, traced rounds alternate; each phase gets
    # half the run when tracing, all of it otherwise
    times = {False: [], True: []}
    failures: list[str] = []
    unknown: list[str] = []
    setup: list[float] = []
    budget = args.seconds / 2.0 if args.trace else args.seconds
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        if not args.trace:
            # import timings are spread over the run, between rounds, so that
            # setup_s and the op timings see the same stretch of machine time
            done = min(1.0, sum(times[False]) / budget)
            while len(setup) < math.ceil(SETUP_SAMPLES * done):
                setup.append(time_import())
        if sum(times[traced]) >= budget and (not args.trace or sum(times[not traced]) >= budget):
            break
        if traced:
            tracer.install()
        for op in work.round():
            dt, problem = run_op(op, tracer if traced else None)
            times[traced].append(dt)
            if problem is not None:
                failures.append(f"{op.label}: {problem}")
                if KNOWN_FAULTS.get(op.label, "\0") not in problem:
                    unknown.append(failures[-1])
        if traced:
            tracer.uninstall()
        r += 1

    result = {
        "attempted": len(times[False]) + len(times[True]),
        "failed": len(failures),
        "correct": not unknown,
        "op_times": times[False],
        "traced_op_times": times[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_samples": setup,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["pixels"] = tracer.pixels
        written = getattr(work, "bytes_written", [])
        result["bytes_per_op"] = sum(written) / len(written) if written else 0.0
        tracer.write(out_dir / "spans.jsonl")
    for line in sorted(set(unknown)):
        print(f"unexpected failure: {line}", file=sys.stderr)
    for line in sorted(set(failures) - set(unknown)):
        print(f"known fault: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
