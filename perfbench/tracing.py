"""Span tracer for the benchmark's traced mode.

The tracer replaces each traced polmaj function with a wrapper in every polmaj
module namespace that bound it, so calls that polmaj makes internally (for
example `partial_order` calling `lorenz`, or `cli.main` reaching
`discretize_state`) are caught too.  Spans (name, start, end, parent) stay in
memory until `write` is called.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = (
    ("polmaj.states", "random_pure"),
    ("polmaj.states", "apply_su2"),
    ("polmaj.qfunction", "q_on_grid"),
    ("polmaj.sphere_grid", "discretize_state"),
    ("polmaj.majorize", "lorenz"),
    ("polmaj.majorize", "compare"),
    ("polmaj.majorize", "partial_order"),
    ("polmaj.measures", "confidence_interval"),
    ("polmaj.measures", "renyi"),
    ("polmaj.cli", "main"),
)

ROOT = "bench.op"


def span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('polmaj.')}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.pixels = 0                # pixels discretized while installed
        self._stack: list[int] = []
        self._patched: list = []       # (module, attribute, original)

    def _wrap(self, name: str, fn):
        count_pixels = name == "sphere_grid.discretize_state"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_pixels:
                self.pixels += args[1].n_pixels if len(args) > 1 else kwargs["spec"].n_pixels
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def span(self, name: str):
        return _Span(self, name)

    def install(self) -> None:
        originals = {}
        for module, func in TRACED:
            fn = getattr(sys.modules[module], func)
            originals[id(fn)] = (fn, self._wrap(span_name(module, func), fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "polmaj" or modname.startswith("polmaj.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1] if t._stack else -1
        t.spans[self.index] = (self.name, self.start, end, parent)
        return False
