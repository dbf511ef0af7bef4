"""Span-based tracing with a zero-cost disabled path.

A :class:`Tracer` mints root spans; a :class:`Span` times one operation
and emits a flat JSONL record into a :class:`SpanSink` when ended.  The
span tree for one traced query looks like::

    query                           (engine, Engine.execute)
      cold_execute                  (past the result cache)
        prim.<Kind>                 (one Section-2 primitive, nesting as the
                                     primitives nest; carries the ledger
                                     units/steps and wire bytes posted in
                                     it: repro.mpc.cluster.prim_span)
          backend.round             (one Backend.run_ops call; under the
                                     primitive that issued it, else
                                     directly under cold_execute)
            worker.round            (one worker's slice of that round;
                                     carries worker-reported decode/compute
                                     seconds shipped back over the IPC pipe)

Worker processes never write spans themselves: the coordinator sends
``(trace_id, span_id)`` alongside each ops request, workers measure their
own decode/compute time with ``perf_counter`` and return the timings in
the reply header, and the coordinator attaches them to the
``worker.round`` span it already holds.  A respawned worker simply
produces a fresh ``worker.round`` child under the same ``backend.round``
parent — trace continuity across chaos-injected deaths falls out of the
parenting, not of any worker-side state.

Untraced is ``None``, from the engine to the worker: an engine built
without a tracer holds ``tracer = None`` and hands ``None`` wherever a
span would go, so hot paths test ``span is None`` once and construct
nothing.

JSONL record schema (one object per line, validated by
``repro.obs.check``)::

    {"trace": str, "span": str, "parent": str|null, "name": str,
     "ts": float (unix epoch, span start), "dur": float (seconds),
     "attrs": {str: scalar}}
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any

__all__ = ["Span", "SpanSink", "Tracer"]

#: The JSONL record fields, in emission order (schema contract).
SPAN_FIELDS = ("trace", "span", "parent", "name", "ts", "dur", "attrs")

_ids = itertools.count(1)


def _new_id(prefix: str) -> str:
    return f"{prefix}{next(_ids):x}"


class SpanSink:
    """Bounded buffer of finished span records, optionally JSONL-backed.

    ``emit`` is thread-safe and never blocks on I/O unless the buffer is
    full.  With a ``path``, a full buffer flushes (appends) to the file;
    without one the sink is purely in-memory and drops its *oldest*
    records past ``capacity`` (``dropped`` counts the casualties) — a
    trace consumer that cares about completeness supplies a path.
    """

    def __init__(self, path: str | None = None, capacity: int = 8192) -> None:
        self.path = path
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._buf: deque[dict] = deque()
        self.emitted = 0
        self.dropped = 0

    def emit(self, record: dict) -> None:
        with self._lock:
            self._buf.append(record)
            self.emitted += 1
            if len(self._buf) >= self.capacity:
                if self.path is not None:
                    self._flush_locked()
                else:
                    self._buf.popleft()
                    self.dropped += 1

    def _flush_locked(self) -> None:
        if self.path is None or not self._buf:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            while self._buf:
                fh.write(json.dumps(self._buf.popleft(), default=str))
                fh.write("\n")

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def records(self) -> list[dict]:
        """The currently buffered (not yet flushed-to-file) records."""
        with self._lock:
            return list(self._buf)

    def close(self) -> None:
        self.flush()


class Span:
    """One timed operation.  End exactly once; usable as a context manager.

    ``ts`` is wall-clock (epoch) for cross-run correlation; ``dur`` is
    measured with ``perf_counter`` for precision.
    """

    __slots__ = (
        "_sink", "trace_id", "span_id", "parent_id", "name",
        "ts", "_t0", "attrs", "_ended",
    )

    def __init__(
        self, sink: SpanSink, name: str, trace_id: str,
        parent_id: str | None = None, attrs: dict | None = None,
    ) -> None:
        self._sink = sink
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id("s")
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self._ended = False
        self.ts = time.time()
        self._t0 = time.perf_counter()

    def child(self, name: str, **attrs: Any) -> "Span":
        return Span(self._sink, name, self.trace_id, self.span_id, attrs)

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def end(self, **attrs: Any) -> None:
        if self._ended:
            return
        self._ended = True
        dur = time.perf_counter() - self._t0
        if attrs:
            self.attrs.update(attrs)
        self._sink.emit({
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self.ts,
            "dur": dur,
            "attrs": self.attrs,
        })

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.end()


# Trace ids carry the coordinator pid so JSONL from concurrent processes
# appended to one file can never collide.
_TOKEN = f"{os.getpid():x}"


class Tracer:
    """Mints root spans into one :class:`SpanSink`."""

    def __init__(self, sink: SpanSink | None = None) -> None:
        self.sink = sink if sink is not None else SpanSink()

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self.sink, name, _new_id(f"t{_TOKEN}-"), None, attrs)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()
