"""Metrics registry: counters, gauges, histograms, and stat views.

One process-local :class:`MetricsRegistry` absorbs the repo's scattered
counters.  Three primitive instruments exist — :class:`Counter` (monotone),
:class:`Gauge` (set/inc), and :class:`Histogram` (fixed-bucket with
p50/p95/p99 estimation) — all label-aware and thread-safe under one shared
registry lock (instrument updates are per-query, never per-tuple, so a
single lock is cheap and keeps snapshots trivially consistent).

Existing counter families (``EngineStats``, ``Backend.wire_stats()``,
``Backend.fault_stats()``) do not migrate their storage: they register as
**views** — callables returning ``{metric_name: number}`` — and the
registry renders them as gauges in both output formats.  That keeps each
subsystem's counters where its locking discipline already lives, while
every exposition surface (``repro stats``, ``serve --metrics-out``) shows
one merged picture.

Two output formats: :meth:`MetricsRegistry.snapshot` (plain JSON-able
dicts) and :meth:`MetricsRegistry.render_prometheus` (the text exposition
format: ``# HELP``/``# TYPE`` comments, cumulative ``_bucket`` series with
``le`` labels, ``_sum``/``_count`` per histogram).

:class:`WireMeter` also lives here: the per-query attribution object for
shipped wire bytes (see its docstring for why deltas of the backend's
cumulative counters are wrong under concurrency).

None of this ever touches the :class:`~repro.mpc.cluster.LoadReport`
ledger — telemetry observes wall-clock and bytes; the ledger stays the
bit-identical correctness oracle (DESIGN.md section 9).
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WireMeter",
    "DEFAULT_LATENCY_BUCKETS",
    "percentiles",
]

#: Default histogram bucket upper bounds (seconds): 100us .. 10s, roughly
#: logarithmic — wide enough for cold multiprocess queries, fine enough
#: to resolve sub-millisecond result-cache hits.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def percentiles(samples: Iterable[float]) -> dict[str, float]:
    """Exact sample percentiles, linearly interpolated between order stats.

    Returns ``{"p50": ..., "p95": ..., "p99": ...}``; all zero when
    ``samples`` is empty.  :meth:`EngineStats.latency_percentiles` reports
    through it, so every percentile the engine reports is computed one way.
    """
    values = sorted(samples)
    n = len(values)
    qs = (50.0, 95.0, 99.0)
    out = {f"p{q:g}": 0.0 for q in qs}
    if not n:
        return out
    for q in qs:
        pos = (n - 1) * (q / 100.0)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out[f"p{q:g}"] = values[lo] * (1.0 - frac) + values[hi] * frac
    return out


class WireMeter:
    """Per-query attribution of wire traffic shipped by a backend.

    The backend's cumulative ``wire_stats()`` counters are shared by every
    caller of that backend (``get_backend(None)`` hands one backend to the
    whole process), so a before/after delta counts whatever another caller
    shipped in between.  A meter instead travels *with* the call —
    ``Cluster.wire_meter``, set by the engine's cold path and by the
    one-shot ``mpc_join``/``mpc_join_aggregate``, and the ``meter=``
    argument of :meth:`Backend.run_ops` — and is bumped exactly where a
    payload crosses the process boundary, so its totals are per-call by
    construction, whatever else the backend is serving meanwhile.

    Not locked: one query's rounds execute sequentially on the calling
    thread, so a single meter is only ever bumped by one thread at a
    time.
    """

    __slots__ = ("parts", "bytes")

    def __init__(self) -> None:
        self.parts = 0
        self.bytes = 0

    def add(self, nbytes: int) -> None:
        self.parts += 1
        self.bytes += nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WireMeter<parts={self.parts}, bytes={self.bytes}>"


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _fmt_value(value: float) -> str:
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _fmt_labels(labels: Mapping[str, Any], extra: str = "") -> str:
    parts = [
        f'{_sanitize(str(k))}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    """Base of all instruments: a name, a label set, the shared lock."""

    kind = "?"

    def __init__(
        self, name: str, labels: Mapping[str, Any], help: str,
        lock: threading.RLock,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.help = help
        self._lock = lock


class Counter(_Instrument):
    """A monotone counter.  ``inc`` only; decreasing is a bug."""

    kind = "counter"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can go anywhere: set absolutely or adjusted."""

    kind = "gauge"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed-bucket histogram with interpolated percentile estimation.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics) with
    an implicit ``+Inf`` overflow bucket.  :meth:`percentile` walks the
    cumulative counts to the target rank and interpolates linearly within
    the landing bucket (the overflow bucket reports the observed max) —
    the standard fixed-bucket estimator, exact at bucket edges and within
    one bucket's width elsewhere.
    """

    kind = "histogram"

    def __init__(
        self, name: str, labels: Mapping[str, Any], help: str,
        lock: threading.RLock, buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, labels, help, lock)
        bounds = tuple(sorted(buckets if buckets else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            i = 0
            bounds = self.buckets
            while i < len(bounds) and v > bounds[i]:
                i += 1
            self._counts[i] += 1
            self._sum += v
            if self._count == 0:
                self._min = self._max = v
            else:
                self._min = min(self._min, v)
                self._max = max(self._max, v)
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100])."""
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = (q / 100.0) * self._count
            cum = 0
            for i, c in enumerate(self._counts):
                prev = cum
                cum += c
                if cum >= rank and c:
                    if i >= len(self.buckets):  # overflow bucket
                        return self._max
                    lo = self.buckets[i - 1] if i else min(self._min, self.buckets[i])
                    hi = self.buckets[i]
                    frac = (rank - prev) / c
                    est = lo + frac * (hi - lo)
                    return min(max(est, self._min), self._max)
            return self._max  # pragma: no cover - rank beyond counts

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            cum = 0
            buckets = []
            for bound, c in zip(self.buckets, self._counts):
                cum += c
                buckets.append([bound, cum])
            buckets.append(["+Inf", cum + self._counts[-1]])
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
            }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class MetricsRegistry:
    """Create/fetch instruments by ``(name, labels)``; render snapshots.

    ``counter``/``gauge``/``histogram`` return the existing instrument for
    a key or create it (types must not conflict).  ``register_view``
    attaches a callable returning ``{metric_name: number}`` — rendered as
    gauges — so legacy counter families join the exposition without
    moving their storage.  All methods are thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: dict[tuple, _Instrument] = {}
        self._views: list[Callable[[], Mapping[str, float]]] = []

    # -- instruments ----------------------------------------------------
    def _get(
        self, cls: type, name: str, help: str, labels: Mapping[str, Any],
        **extra: Any,
    ) -> Any:
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, labels, help, self._lock, **extra)
                self._instruments[key] = inst
            elif type(inst) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"not {cls.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[float] | None = None, **labels: Any,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def register_view(self, fn: Callable[[], Mapping[str, float]]) -> None:
        with self._lock:
            self._views.append(fn)

    def reset(self) -> None:
        """Drop every instrument; registered views stay.

        A long-lived process serving several rounds (CLI ``serve
        --repeat``, test loops) resets between rounds so per-round
        percentiles come from per-round histograms instead of an
        ever-growing one.  Views survive because they are *windows onto
        external storage* (EngineStats, backend counters) — resetting the
        registry must not silently disconnect them; callers who want
        those at zero reset the owning objects.  Existing instrument
        handles held by callers keep working but stop being scraped; the
        next ``counter()``/``histogram()`` call re-creates a fresh one
        under the same key.
        """
        with self._lock:
            self._instruments.clear()

    # -- output ---------------------------------------------------------
    def _view_values(self) -> dict[str, float]:
        with self._lock:
            views = list(self._views)
        out: dict[str, float] = {}
        for fn in views:
            try:
                values = fn()
            except Exception:  # noqa: BLE001 - a broken view never breaks scrape
                continue
            for k, v in values.items():
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    continue
                out[_sanitize(str(k))] = out.get(_sanitize(str(k)), 0) + v
        return out

    def snapshot(self) -> dict[str, Any]:
        """Everything as plain JSON-able data (``repro stats --format json``)."""
        with self._lock:
            instruments = list(self._instruments.values())
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, Any] = {}
        for inst in instruments:
            key = _sanitize(inst.name) + _fmt_labels(inst.labels)
            if isinstance(inst, Counter):
                counters[key] = inst.value
            elif isinstance(inst, Gauge):
                gauges[key] = inst.value
            elif isinstance(inst, Histogram):
                histograms[key] = inst.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "views": dict(sorted(self._view_values().items())),
        }

    def render_prometheus(self) -> str:
        """The text exposition format (``serve --metrics-out``)."""
        with self._lock:
            instruments = list(self._instruments.values())
        by_name: dict[str, list[_Instrument]] = {}
        for inst in instruments:
            by_name.setdefault(_sanitize(inst.name), []).append(inst)
        lines: list[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            help_text = next((i.help for i in group if i.help), "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {group[0].kind}")
            for inst in group:
                if isinstance(inst, Histogram):
                    snap = inst.snapshot()
                    for bound, cum in snap["buckets"]:
                        le = bound if bound == "+Inf" else _fmt_value(bound)
                        labels = _fmt_labels(inst.labels, f'le="{le}"')
                        lines.append(f"{name}_bucket{labels} {cum}")
                    labels = _fmt_labels(inst.labels)
                    lines.append(f"{name}_sum{labels} {_fmt_value(snap['sum'])}")
                    lines.append(f"{name}_count{labels} {snap['count']}")
                else:
                    labels = _fmt_labels(inst.labels)
                    lines.append(f"{name}{labels} {_fmt_value(inst.value)}")
        for key, value in sorted(self._view_values().items()):
            lines.append(f"# TYPE {key} gauge")
            lines.append(f"{key} {_fmt_value(value)}")
        return "\n".join(lines) + "\n"
