"""The harness's own span recorder.

Spans are recorded from here, around the layers' public callables, by
rebinding those callables in the loaded ``repro.*`` modules while a traced
section runs; nothing under ``src/`` reads a clock for the harness.  A
span is ``[name, start, end, parent, request, units]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``request`` the index of the
request being served (-1 during set-up), ``units`` an optional work count
taken from the call's arguments.  Spans stay in memory and are written
once, at exit.

A span's self time is its duration minus its children's.  Cyclic-GC
pauses are recorded as child spans too (``runtime.gc``, via
``gc.callbacks``), so a layer's self time excludes the collections that
happened to fire inside it and the self times of a tree add up to its
root exactly.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

NAME, START, END, PARENT, REQUEST, UNITS = range(6)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[list] = []
        self.request = -1

    def begin(self, name: str, units: int = 0) -> list:
        # Allocating the span may itself start a collection, whose own
        # span must close before this one's clock starts: stamp last.
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.request, units]
        self.spans.append(span)
        self._open.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    def finish(self) -> list[list]:
        """The spans with ``parent`` resolved to an index (-1 = root)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [*s[:PARENT], -1 if s[PARENT] is None else index[id(s[PARENT])], *s[REQUEST:]]
            for s in self.spans
        ]


def write_spans(spans: list[list], path: str) -> None:
    """One JSON array per line: id, then the six span fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps([i, *span]))
            fh.write("\n")


def _relation_rows(rel: Any, *_a: Any, **_k: Any) -> int:
    return len(rel)


#: span name -> (module, dotted attribute, units-from-arguments or None).
#: ``primitives.*`` is filled in from ``repro.mpc.primitives.__all__`` at
#: install time (only names the module defines itself: ``orderable`` and
#: ``coordinator_for`` are substrate re-exports called once per value).
TARGETS: dict[str, tuple[str, str, Callable[..., int] | None]] = {
    "parser.parse_query": ("repro.engine.parser", "parse_query", None),
    "engine.execute": ("repro.engine.session", "Engine.execute", None),
    "engine.prepare": ("repro.engine.session", "Engine.prepare", None),
    "engine.register": ("repro.engine.session", "Engine.register", None),
    "planner.price_fold_orders": ("repro.core.planner", "price_fold_orders", None),
    "core.run_join_algorithm": ("repro.core.runner", "run_join_algorithm", None),
    "core.run_aggregate_algorithm": ("repro.core.runner", "run_aggregate_algorithm", None),
    "core.binary_join": ("repro.core.binary_join", "binary_join", None),
    "core.local_hash_join": ("repro.core.common", "local_hash_join", None),
    "core.local_tree_join": ("repro.core.common", "local_tree_join", None),
    "core.align_to_schema": ("repro.core.common", "align_to_schema", None),
    "columns.from_rows": ("repro.data.columns", "ColumnBlock.from_rows", None),
    "distrel.distribute_relation": ("repro.mpc.distrel", "distribute_relation", _relation_rows),
    "substrate.sorted_run": ("repro.mpc.substrate", "sorted_run", None),
    "group.exchange": ("repro.mpc.group", "Group.exchange", None),
    "backend.run_ops": ("repro.mpc.backends.serial", "SerialBackend.run_ops", None),
    "plan.replay": ("repro.plan.executor", "Executor.replay", None),
}


def _wrap(rec: Recorder, name: str, fn: Callable, units: Callable[..., int] | None) -> Callable:
    if units is None:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            i = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(i)
    else:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            i = rec.begin(name, units(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(i)
    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Rebind every target to a recording wrapper; returns the undo."""
    import importlib

    targets = dict(TARGETS)
    prims = importlib.import_module("repro.mpc.primitives")
    for fname in prims.__all__:
        if getattr(getattr(prims, fname), "__module__", None) == prims.__name__:
            targets[f"primitives.{fname}"] = (prims.__name__, fname, None)

    undo: list[tuple[Any, str, Any]] = []

    def rebind(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    repro_modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]
    for name, (modname, dotted, units) in targets.items():
        module = importlib.import_module(modname)
        if "." in dotted:
            cls_name, attr = dotted.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                rebind(cls, attr, classmethod(_wrap(rec, name, raw.__func__, units)))
            else:
                rebind(cls, attr, _wrap(rec, name, raw, units))
            continue
        fn = getattr(module, dotted)
        wrapped = _wrap(rec, name, fn, units)
        # ``from x import f`` copied the reference into every importer.
        for m in repro_modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    rebind(m, attr, wrapped)

    gc_open: list[list] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            gc_open.append(rec.begin("runtime.gc", info["generation"]))
        elif gc_open:
            rec.end(gc_open.pop())

    gc.callbacks.append(on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(on_gc)
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


#: per-layer metric -> span names whose *self* time (ms) it sums.
SELF_MS = {
    "parser.self_ms": ("parser.parse_query",),
    "engine.self_ms": ("engine.execute", "engine.prepare", "engine.register"),
    "planner.self_ms": ("planner.price_fold_orders",),
    "core.self_ms": ("core.run_join_algorithm", "core.run_aggregate_algorithm"),
    # binary_join's cell joins are inline, so its self time belongs here.
    "core.localjoin_ms": ("core.local_hash_join", "core.local_tree_join", "core.binary_join"),
    "core.align_ms": ("core.align_to_schema",),
    "columns.from_rows_ms": ("columns.from_rows",),
    "distrel.self_ms": ("distrel.distribute_relation",),
    "primitives.self_ms": ("primitives.",),
    "substrate.self_ms": ("substrate.sorted_run",),
    "group.exchange_ms": ("group.exchange",),
    "backend.map_ms": ("backend.run_ops",),
    "runtime.gc_ms": ("runtime.gc",),
}
#: per-layer metric -> span names whose calls it counts.
CALLS = {
    "parser.calls": ("parser.parse_query",),
    "planner.calls": ("planner.price_fold_orders",),
    "columns.from_rows_calls": ("columns.from_rows",),
    "primitives.calls": ("primitives.",),
    "group.exchanges": ("group.exchange",),
    "backend.requests": ("backend.run_ops",),
}


def totals(spans: list[list], roots: tuple[str, ...]) -> tuple[dict[str, float], dict[str, int]]:
    """Self milliseconds and calls per span name, over the trees whose
    root span is named in ``roots``.

    A span's self time is its duration minus its children's.  Spans
    recorded outside any harness root (re-registration between a traced
    set-up and its pass) belong to no tree and are left out.
    """
    own = [s[END] - s[START] for s in spans]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):          # parents precede their children
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
            root[i] = root[s[PARENT]]
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if spans[root[i]][NAME] in roots:
            ms[s[NAME]] += own[i] * 1e3
            calls[s[NAME]] += 1
    return ms, calls


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def layer_table(spans: list[list], cycles: int, roots: tuple[str, ...]) -> dict[str, float]:
    """The span-derived per-layer metrics, per traced cycle.

    Besides ``SELF_MS`` and ``CALLS``: ``distrel.rows`` and
    ``runtime.gc_gen2`` (from span units) and ``trace.coverage``, the
    share of the root spans' time that falls inside some layer span (the
    rest is the harness's own loop).
    """
    ms, calls = totals(spans, roots)
    out: dict[str, float] = {}
    for metric, patterns in SELF_MS.items():
        out[metric] = sum(v for n, v in ms.items() if _matches(n, patterns)) / cycles
    for metric, patterns in CALLS.items():
        out[metric] = sum(v for n, v in calls.items() if _matches(n, patterns)) / cycles
    out["distrel.rows"] = sum(
        s[UNITS] for s in spans if s[NAME] == "distrel.distribute_relation"
    ) / cycles
    out["runtime.gc_gen2"] = sum(
        1 for s in spans if s[NAME] == "runtime.gc" and s[UNITS] == 2
    ) / cycles
    everything = sum(ms.values())
    out["trace.coverage"] = 1.0 - sum(ms[r] for r in roots) / everything if everything else 0.0
    return out
