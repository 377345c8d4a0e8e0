"""Command line for building, discretizing and comparing polarization distributions.

Subcommands: qdist (pixel table for one state), compare (two-state verdict plus
Lorenz columns), chain (verdict matrix and majorization chain over a state set),
reproduce (built-in figure datasets fig3..fig8 with a doubled-grid stability
check), measures (Renyi/confidence tables).

State designators: coherent:n=4 | phase:n=4 | squeezed:n=5 | noon:n=6 | hs:n=4 |
random:n=4,seed=7 | glauber:nbar=10 | thermal:nbar=10 | tmsv:nbar=10.

Exit codes: 0 success, 2 unparseable input or configuration, 3 non-finite,
negative or vanishing Q on the grid, 1 failed doubled-grid stability in
reproduce or an unwritable output file.  Any other error is a fault of polmaj
and propagates with its traceback.  Verdict lines go to stdout, diagnostics to
stderr; files are UTF-8.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .csvtext import block_text
from .majorize import (DEFAULT_TOL, GLYPHS_ASCII, GLYPHS_UNICODE, PartialOrderResult,
                       Relation, Verdict, partial_order, render_chain, summary_relations)
from .measures import ALPHA_SWEEP, RENYI_Q_SWEEP, confidence_interval, renyi
from .sphere_grid import (DEFAULT_GRID, EvaluationError, GridSpec, band_thetas, discretize_state,
                          sector_phis)
from .states import (ANALYTIC_KINDS, make_analytic, make_coherent, make_hs_extremal,
                     make_noon, make_phase, make_squeezed, random_pure)


class StateSpecError(ValueError):
    """A state designator or run configuration could not be parsed."""


@dataclass(frozen=True)
class ParsedState:
    text: str
    family: str
    params: str
    letter: str
    obj: object


_LETTERS = {"coherent": "C", "phase": "P", "squeezed": "S", "noon": "N", "hs": "H",
            "random": "R", "glauber": "C", "thermal": "T", "tmsv": "S"}
_INT_FAMILIES = {"coherent": make_coherent, "phase": make_phase,
                 "squeezed": make_squeezed, "noon": make_noon, "hs": make_hs_extremal}


def _parse_kwargs(argstr: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not argstr:
        return out
    for piece in argstr.split(","):
        key, sep, val = piece.partition("=")
        if not sep or not key or not val:
            raise StateSpecError(f"malformed argument {piece!r}; expected key=value")
        if key in out:
            raise StateSpecError(f"duplicate argument {key!r}")
        out[key] = val
    return out


def _take(kwargs: dict[str, str], key: str, spec: str, kind: type):
    """Pop kwargs[key] converted by `kind` (int or float)."""
    if key not in kwargs:
        raise StateSpecError(f"{spec!r} needs {key}=<{kind.__name__}>")
    try:
        return kind(kwargs.pop(key))
    except ValueError as exc:
        raise StateSpecError(f"{spec!r}: {key} must be {kind.__name__}") from exc


def parse_state_spec(text: str) -> ParsedState:
    """Turn a designator string into a state object (see module docstring grammar);
    a random designator without seed= takes seed 0."""
    if not text.isprintable():   # int() and float() would strip a newline or tab
        raise StateSpecError(f"{text!r}: designators must not hold control characters")
    family, _, argstr = text.partition(":")
    family = family.strip()
    kwargs = _parse_kwargs(argstr.strip())
    try:
        if family in _INT_FAMILIES:
            n = _take(kwargs, "n", text, int)
            obj = _INT_FAMILIES[family](n)
            params = f"n={n}"
        elif family == "random":
            n = _take(kwargs, "n", text, int)
            seed = _take(kwargs, "seed", text, int) if "seed" in kwargs else 0
            obj = random_pure(n, seed)
            params = f"n={n},seed={seed}"
        elif family in ANALYTIC_KINDS:
            nbar = _take(kwargs, "nbar", text, float)
            obj = make_analytic(family, nbar)
            params = f"nbar={obj.nbar:g}"
        else:
            raise StateSpecError(f"unknown state family {family!r}")
    except StateSpecError:
        raise
    except ValueError as exc:
        raise StateSpecError(f"{text!r}: {exc}") from exc
    if kwargs:
        raise StateSpecError(f"{text!r}: unexpected argument(s) {sorted(kwargs)}")
    return ParsedState(text=text, family=family, params=params,
                       letter=_LETTERS[family], obj=obj)


def assign_labels(parsed: Sequence[ParsedState], use_letter: bool) -> list[str]:
    """Short unique labels: single-letter family tags for chains, family names otherwise."""
    base = [p.letter if use_letter else p.family for p in parsed]
    labels = [b if base.count(b) == 1 else f"{b}({p.params})"
              for b, p in zip(base, parsed)]
    seen: dict[str, int] = {}
    out = []
    for lab in labels:
        if labels.count(lab) > 1:
            seen[lab] = seen.get(lab, 0) + 1
            lab = f"{lab}#{seen[lab]}"
        out.append(lab)
    return out


def _stdout_glyphs() -> dict[str, str]:
    encoding = getattr(sys.stdout, "encoding", None) or "ascii"
    try:
        "".join(GLYPHS_UNICODE.values()).encode(encoding)
        return GLYPHS_UNICODE
    except (UnicodeEncodeError, LookupError):
        return GLYPHS_ASCII


def verdict_line(verdict: Verdict, label_a: str, label_b: str, glyphs: dict[str, str]) -> str:
    """One-line rendering with the majorized state on the left of the order glyph."""
    rel = verdict.relation
    if rel is Relation.MAJORIZES:
        return f"{label_b} {glyphs['prec']} {label_a}"
    if rel is Relation.MAJORIZED_BY:
        return f"{label_a} {glyphs['prec']} {label_b}"
    if rel is Relation.EQUAL:
        return f"{label_a} {glyphs['equal']} {label_b}"
    return f"{label_a} {glyphs['join']} {label_b}"


# CSV tables are formatted and written this many rows at a time, so the text and
# temporaries of only one block of rows are alive at once
_CSV_BLOCK = 4096


def _write(path: Path, fmt: str, comments: Sequence[str], header: Sequence[str],
           columns: Optional[Callable[[], Sequence[Sequence]]],
           payload: Optional[Callable[[], dict]]) -> None:
    """Write `columns()` (ndarrays, ranges, tuples or Lorenz curves, of one length and
    read by slices) as CSV under `#` comment lines and a header, or `payload()` as
    indented JSON, and note the path on stderr.  Only the chosen format's data is
    built, and it is built and checked before the file is opened, so an error leaves
    no truncated file.  Each cell is written as str(value) (see csvtext), one block
    of rows per write call."""
    data = payload() if fmt == "json" else columns()
    if fmt == "csv" and len({len(col) for col in data}) != 1:
        raise ValueError("CSV columns must have one length")
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    else:
        with open(path, "wb") as fh:
            fh.write("".join([f"# {line}\n" for line in comments]
                             + [",".join(header) + "\n"]).encode("utf-8"))
            for start in range(0, len(data[0]), _CSV_BLOCK):
                fh.write(block_text([col[start:start + _CSV_BLOCK] for col in data]))
    print(f"wrote {path}", file=sys.stderr)


def _lorenz_table(result: PartialOrderResult) -> tuple[list[str], Callable[[], tuple]]:
    """Header and columns of the k,S_k_<name>... table: one column per curve, each
    read block by block, so a run curve never builds all N values."""
    return (["k"] + [f"S_k_{name}" for name in result.names],
            lambda: (range(1, result.curves[0].n + 1), *result.curves))


def _out_path(args: argparse.Namespace, default_stem: str) -> Path:
    return Path(args.out) if args.out else Path(f"{default_stem}.{args.fmt}")


def _grid(args: argparse.Namespace) -> GridSpec:
    """The --n-theta x --n-phi grid; a bad size is bad input."""
    try:
        return GridSpec(args.n_theta, args.n_phi)
    except ValueError as exc:
        raise StateSpecError(str(exc)) from exc


def _parse(specs: Sequence[str], use_letter: bool = False):
    """Parse and label the designators `specs`: (parsed states, labels)."""
    parsed = [parse_state_spec(s) for s in specs]
    return parsed, assign_labels(parsed, use_letter)


def _order(parsed, labels, grid: GridSpec, tol: float):
    """partial_order of the states discretized on `grid`, each built as it is read
    and freed once its curve exists: (result, the distributions' raw masses)."""
    raw_masses: list[float] = []

    def noted(dist):
        raw_masses.append(dist.raw_mass)
        return dist

    return partial_order(((lab, noted(discretize_state(p.obj, grid)))
                          for p, lab in zip(parsed, labels)), tol), raw_masses


def cmd_qdist(args: argparse.Namespace) -> int:
    state = parse_state_spec(args.state).obj
    grid = _grid(args)
    dist = discretize_state(state, grid)
    theta = np.repeat(band_thetas(grid), grid.n_phi)
    phi = np.tile(sector_phis(grid), grid.n_theta)
    n = grid.n_pixels
    _write(_out_path(args, "qdist"), args.fmt,
           [f"state={args.state}", f"n_theta={grid.n_theta}", f"n_phi={grid.n_phi}",
            f"raw_mass={dist.raw_mass!r}"],
           ["j", "theta", "phi", "p"],
           lambda: (range(1, n + 1), theta, phi, dist.p),
           lambda: {"command": "qdist", "state": args.state, "grid": asdict(grid),
                    "raw_mass": dist.raw_mass,
                    "pixels": {"j": list(range(1, n + 1)), "theta": theta.tolist(),
                               "phi": phi.tolist(), "p": dist.p.tolist()}})
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    parsed, labels = _parse([args.state_a, args.state_b])
    grid = _grid(args)
    result, raw_masses = _order(parsed, labels, grid, args.tol)
    verdict = result.matrix[0][1]
    print(verdict_line(verdict, labels[0], labels[1], _stdout_glyphs()))
    _write(_out_path(args, "compare"), args.fmt,
           [f"a={parsed[0].text}", f"b={parsed[1].text}",
            f"n_theta={grid.n_theta}", f"n_phi={grid.n_phi}", f"tol={args.tol!r}",
            f"verdict={verdict.relation.value}",
            f"raw_mass_a={raw_masses[0]!r}", f"raw_mass_b={raw_masses[1]!r}"],
           *_lorenz_table(result),
           lambda: {"command": "compare", "grid": asdict(grid), "tol": args.tol,
                    "states": [{"spec": p.text, "label": lab, "raw_mass": m}
                               for p, lab, m in zip(parsed, labels, raw_masses)],
                    "verdict": {"relation": verdict.relation.value,
                                "witnesses": list(verdict.witnesses) if verdict.witnesses else None,
                                "line": verdict_line(verdict, labels[0], labels[1], GLYPHS_ASCII)},
                    "lorenz": {lab: c.s.tolist() for lab, c in zip(labels, result.curves)}})
    return 0


def _chain_payload(result, parsed, labels, raw_masses, grid, tol) -> dict:
    return {
        "grid": asdict(grid), "tol": tol,
        "states": [{"spec": p.text, "label": lab} for p, lab in zip(parsed, labels)],
        "verdict_matrix": [[{"relation": v.relation.value,
                             "witnesses": list(v.witnesses) if v.witnesses else None}
                            for v in row] for row in result.matrix],
        "chain": result.chain,
        "chain_ascii": render_chain(result.layers, ascii_glyphs=True),
        "raw_masses": dict(zip(labels, raw_masses)),
        "violations": list(result.violations),
    }


def cmd_chain(args: argparse.Namespace) -> int:
    if len(args.states) < 2:
        raise StateSpecError("chain needs at least two states")
    parsed, labels = _parse(args.states, use_letter=True)
    grid = _grid(args)
    result, raw_masses = _order(parsed, labels, grid, args.tol)
    print(render_chain(result.layers, ascii_glyphs=_stdout_glyphs() is GLYPHS_ASCII))
    _write(_out_path(args, "chain"), args.fmt,
           [f"states={' '.join(p.text for p in parsed)}",
            f"n_theta={grid.n_theta}", f"n_phi={grid.n_phi}", f"tol={args.tol!r}",
            f"chain={render_chain(result.layers, ascii_glyphs=True)}"],
           *_lorenz_table(result),
           lambda: {"command": "chain",
                    **_chain_payload(result, parsed, labels, raw_masses, grid, args.tol)})
    return 0


FIGURES = {
    "fig3": ["noon:n=2", "squeezed:n=2", "hs:n=2", "phase:n=2", "coherent:n=2"],
    "fig4": ["noon:n=3", "hs:n=3", "squeezed:n=3", "phase:n=3", "coherent:n=3"],
    "fig5": ["hs:n=4", "squeezed:n=4", "noon:n=4", "phase:n=4", "coherent:n=4"],
    "fig6": ["hs:n=5", "noon:n=5", "squeezed:n=5", "phase:n=5", "coherent:n=5"],
    "fig7": ["coherent:n=2", "noon:n=6"],
    "fig8": ["tmsv:nbar=10", "thermal:nbar=10", "glauber:nbar=10"],
}


def _relations(result: PartialOrderResult) -> list[list[Relation]]:
    return [[v.relation for v in row] for row in result.matrix]


def cmd_reproduce(args: argparse.Namespace) -> int:
    specs = FIGURES[args.figure]
    parsed, labels = _parse(specs, use_letter=True)
    grid = _grid(args)
    # the doubled grid runs first and keeps only its relations.  They are read from a
    # few S_k of each curve, so one doubled-grid curve is alive at a time; only if
    # that leaves a pair open are its states ordered as the base grid's are
    doubled = GridSpec(2 * grid.n_theta, 2 * grid.n_phi)
    doubled_relations = summary_relations(
        (discretize_state(p.obj, doubled) for p in parsed), args.tol)
    if doubled_relations is None:
        doubled_relations = _relations(_order(parsed, labels, doubled, args.tol)[0])
    result, raw_masses = _order(parsed, labels, grid, args.tol)
    stable = _relations(result) == doubled_relations
    print(render_chain(result.layers, ascii_glyphs=_stdout_glyphs() is GLYPHS_ASCII))
    print(f"doubled-grid stability: {'PASS' if stable else 'FAIL'}")

    base = Path(args.out) if args.out else Path(f"reproduce_{args.figure}")
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    _write(base.with_name(base.name + "_lorenz.csv"), "csv",
           [f"figure={args.figure}", f"states={' '.join(specs)}",
            f"n_theta={grid.n_theta}", f"n_phi={grid.n_phi}", f"tol={args.tol!r}",
            f"chain={render_chain(result.layers, ascii_glyphs=True)}"],
           *_lorenz_table(result), None)
    _write(base.with_name(base.name + "_verdicts.json"), "json", (), (), None,
           lambda: {"command": "reproduce", "figure": args.figure,
                    **_chain_payload(result, parsed, labels, raw_masses, grid, args.tol),
                    "stability": {"grid_doubled": asdict(doubled),
                                  "verdicts_unchanged": stable}})
    return 0 if stable else 1


def cmd_measures(args: argparse.Namespace) -> int:
    state = parse_state_spec(args.state).obj
    grid = _grid(args)
    dist = discretize_state(state, grid)
    renyi_vals = [(q, renyi(dist, q)) for q in RENYI_Q_SWEEP]
    conf_vals = [(a, confidence_interval(dist, a)) for a in ALPHA_SWEEP]
    _write(_out_path(args, "measures"), args.fmt,
           [f"state={args.state}", f"n_theta={grid.n_theta}", f"n_phi={grid.n_phi}",
            f"raw_mass={dist.raw_mass!r}"],
           ["measure", "param", "value"],
           lambda: tuple(zip(*[("renyi", q, v) for q, v in renyi_vals],
                             *[("confidence", a, k) for a, k in conf_vals])),
           lambda: {"command": "measures", "state": args.state, "grid": asdict(grid),
                    "raw_mass": dist.raw_mass,
                    "renyi": {repr(q): v for q, v in renyi_vals},
                    "confidence": {repr(a): k for a, k in conf_vals}})
    return 0


# every flag in help order with its add_argument keywords
_FLAGS = {
    "--n-theta": dict(dest="n_theta", type=int, default=DEFAULT_GRID.n_theta,
                      help=f"cos(theta) bands (default {DEFAULT_GRID.n_theta})"),
    "--n-phi": dict(dest="n_phi", type=int, default=DEFAULT_GRID.n_phi,
                    help=f"azimuth sectors (default {DEFAULT_GRID.n_phi})"),
    "--tol": dict(type=float, default=DEFAULT_TOL,
                  help=f"comparison tolerance (default {DEFAULT_TOL:g})"),
    "--format": dict(dest="fmt", choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(help="output path"),
}
_REPRODUCE_OUT_HELP = ("writes BASE_lorenz.csv and BASE_verdicts.json for BASE = OUT without "
                       "a .csv or .json suffix (default BASE: reproduce_FIGURE)")

# name, help, positional arguments (name, add_argument keywords), the flags it reads
# besides --n-theta, --n-phi and --out, handler
_SUBCOMMANDS = (
    ("qdist", "discretized Q distribution of one state", [("state", {})], ("--format",),
     cmd_qdist),
    ("compare", "majorization verdict for two states",
     [("state_a", {}), ("state_b", {})], ("--tol", "--format"), cmd_compare),
    ("chain", "verdict matrix and chain over a state set",
     [("states", {"nargs": "+"})], ("--tol", "--format"), cmd_chain),
    ("reproduce", "built-in figure dataset with stability check",
     [("figure", {"choices": sorted(FIGURES)})], ("--tol",), cmd_reproduce),
    ("measures", "Renyi entropies and confidence intervals", [("state", {})], ("--format",),
     cmd_measures),
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polmaj",
        description="Majorization of SU(2) Husimi polarization distributions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, flags, func in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _FLAGS.items():
            if flag in ("--n-theta", "--n-phi", "--out") + flags:
                if (name, flag) == ("reproduce", "--out"):
                    kwargs = dict(kwargs, help=_REPRODUCE_OUT_HELP)
                p.add_argument(flag, **kwargs)
        for arg, kwargs in positionals:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    return parser


# the errors main reports, with their exit codes; any other exception propagates
_EXIT_CODES = {EvaluationError: 3, StateSpecError: 2, OSError: 1}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # tol is checked before any designator is read, so its error wins
        if "tol" in args and not 0.0 < args.tol < math.inf:
            raise StateSpecError(f"tol must be finite and > 0, got {args.tol!r}")
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
