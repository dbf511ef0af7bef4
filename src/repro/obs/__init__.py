"""Unified telemetry: metrics registry, span tracing, schema checkers.

See DESIGN.md section 9.  The package is dependency-free (stdlib only)
and import-cheap: every other layer (engine, mpc, backends, CLI,
benchmarks) imports from here, never the other way around.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WireMeter,
    percentiles,
)
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Span, SpanSink, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WireMeter",
    "DEFAULT_LATENCY_BUCKETS",
    "percentiles",
    "Span",
    "SpanSink",
    "Tracer",
    "NULL_SPAN",
    "NULL_TRACER",
]
