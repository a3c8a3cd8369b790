"""Outside-in span tracer for the crownfree layers.

Every public, non-generator function defined in a layer module is
wrapped once, and every name that binds it in a crownfree module (the
defining module, the modules that import it, the package) is rebound to
the wrapper.  Nested wrapped calls therefore form a span tree:
``find_crown`` calling ``find_crown_with_base`` splits into self and child
time.  No file under ``src/`` is edited.

Spans live in flat arrays while the program runs and are written out by
``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import time
from array import array
from contextlib import contextmanager

PACKAGE = "crownfree"
LAYERS = ("graphs", "canon", "crowns", "discharging", "lemmas", "search")
# Modules that may bind a layer function under their own name.
CALLERS = LAYERS + ("cli",)
ROOT = "bench.unit"

# Per-call values kept on the span, for counters that need the result.
_MEASURES = {
    "canon.canonical_edges": lambda r: len(r.auts),
    "crowns.find_crown_with_base": lambda r: int(r is not None),
}


def _p50_p99(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=100, method="inclusive")
    return q[49], q[98]


class Tracer:
    """Span recorder; ``install`` wraps the package, ``root`` opens a unit."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack = [-1]
        self._root_id = self._name_id(ROOT)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, fid: int) -> int:
        i = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0)
        self.stack.append(i)
        return i

    def _wrap(self, fn, name: str):
        fid = self._name_id(name)
        measure = _MEASURES.get(name)
        open_span, stack, start, end, value = self._open, self.stack, self.start, self.end, self.value
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = open_span(fid)
            start[i] = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                value[i] = measure(r)
            return r

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every layer function and rebind it at every crownfree name."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in CALLERS}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for mod in list(mods.values()) + [importlib.import_module(PACKAGE)]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    @contextmanager
    def root(self):
        """Span around one unit of benchmark work; yields its span index."""
        i = self._open(self._root_id)
        self.start[i] = time.perf_counter()
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def unit_metrics(self, root: int, nodes: int) -> dict[str, float]:
        """Per-layer metrics of the spans under the root span ``root``."""
        lo, hi = root, len(self.fid)
        names, fid, parent, start, end, value = (
            self.names, self.fid, self.parent, self.start, self.end, self.value,
        )
        child = [0.0] * (hi - lo)
        for i in range(lo + 1, hi):
            child[parent[i] - lo] += end[i] - start[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        fn_self: dict[str, float] = {}
        canon_ms: list[float] = []
        auts = hits = 0
        for i in range(lo + 1, hi):
            name = names[fid[i]]
            dur = end[i] - start[i]
            own = dur - child[i - lo]
            self_s[name.split(".", 1)[0]] += own
            calls[name] = calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + own
            if name == "canon.canonical_edges":
                canon_ms.append(dur * 1000.0)
                auts += value[i]
            elif name == "crowns.find_crown_with_base":
                hits += value[i]

        def count(prefix: str) -> int:
            return sum(c for n, c in calls.items() if n.startswith(prefix))

        wall = end[lo] - start[lo]
        n_canon = calls.get("canon.canonical_edges", 0)
        n_crowns = calls.get("crowns.find_crown_with_base", 0)
        p50, p99 = _p50_p99(canon_ms)
        return {
            "canon.calls": n_canon,
            "canon.self_s": self_s["canon"],
            "canon.call_p50_ms": p50,
            "canon.call_p99_ms": p99,
            "canon.max_call_s": max(canon_ms, default=0.0) / 1000.0,
            "canon.auts_returned": auts,
            "crowns.calls": n_crowns,
            "crowns.self_s": self_s["crowns"],
            "crowns.hit_ratio": hits / n_crowns if n_crowns else 0.0,
            "crowns.rainbow_calls": calls.get("crowns.find_rainbow_matching", 0),
            "crowns.greedy_self_s": fn_self.get("crowns.greedy_crown_642", 0.0),
            "crowns.oracle_calls": calls.get("crowns.crown_oracle", 0),
            "graphs.calls": count("graphs."),
            "graphs.self_s": self_s["graphs"],
            "search.nodes": nodes,
            "search.self_s": self_s["search"],
            "search.canon_per_node": n_canon / nodes if nodes else 0.0,
            "search.crown_checks_per_node": n_crowns / nodes if nodes else 0.0,
            "lemmas.self_s": self_s["lemmas"],
            "discharging.self_s": self_s["discharging"],
            "trace.wall_s": wall,
            "trace.coverage": sum(self_s.values()) / wall if wall > 0 else 0.0,
        }

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        names, fid, parent, start, end, value = (
            self.names, self.fid, self.parent, self.start, self.end, self.value,
        )
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(fid)):
                f.write(f"{i}\t{parent[i]}\t{names[fid[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\t{value[i]}\n")
