"""Unified telemetry layer: registry, spans, wire attribution, timings.

The observability contract under test is DESIGN.md section 9: telemetry
is a read-only side channel.  It never touches the LoadReport ledger
(parity is asserted wherever traced and untraced runs are compared), it
is near-free when disabled (``NULL_SPAN``), and span
trees stay well-formed across every backend — including chaos-injected
worker deaths, where a respawned worker's retry round appears as a fresh
``worker.round`` child under the same ``backend.round`` parent.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main as cli_main
from repro.data.generators import random_instance
from repro.data.relation import Relation
from repro.engine import Engine
from repro.mpc.backends import FaultInjectingBackend, MultiprocessBackend
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    SpanSink,
    Tracer,
    WireMeter,
    percentiles,
)
from repro.obs.check import validate_prometheus_text, validate_trace_lines
from repro.query import catalog
from tests.conftest import threaded_batch
from tests.test_plan import _top_level_units

BINARY = "Q(A,B,C) :- R1(A,B), R2(B,C)"
LINE3 = "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)"


def _binary_relations(seed: int = 7) -> dict[str, Relation]:
    inst = random_instance(catalog.binary_join(), 180, 20, seed=seed)
    return dict(inst.relations)


def _line3_relations(seed: int = 11) -> dict[str, Relation]:
    inst = random_instance(catalog.line_join(3), 200, 16, seed=seed)
    return dict(inst.relations)


def _engine(backend, relations: dict, **kwargs) -> Engine:
    eng = Engine(p=4, backend=backend, result_cache=False, **kwargs)
    for name, rel in relations.items():
        eng.register(rel, name=name)
    return eng


def _spans(sink: SpanSink) -> list[dict]:
    sink.flush()
    return sink.records()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", path="cold")
        b = reg.counter("hits_total", path="cold")
        c = reg.counter("hits_total", path="warm")
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3
        assert c.value == 0

    def test_histogram_percentiles_bracket_samples(self):
        h = MetricsRegistry().histogram("lat", buckets=DEFAULT_LATENCY_BUCKETS)
        for ms in (1, 2, 3, 4, 100):
            h.observe(ms / 1000.0)
        assert h.count == 5
        assert h.sum == pytest.approx(0.110)
        # interpolation stays clamped inside the observed range
        assert 0.0005 <= h.percentile(50.0) <= 0.01
        assert h.percentile(99.0) <= 10.0
        assert h.percentile(0.0) <= h.percentile(100.0)

    def test_histogram_overflow_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.001, 0.01))
        h.observe(5.0)  # beyond every finite bound -> +Inf bucket
        assert h.count == 1
        assert h.percentile(50.0) >= 0.01

    def test_views_render_as_gauges_and_broken_views_are_skipped(self):
        reg = MetricsRegistry()
        reg.register_view(lambda: {"live_queries": 2})
        reg.register_view(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        snap = reg.snapshot()
        assert snap["views"]["live_queries"] == 2
        assert "live_queries 2" in reg.render_prometheus()

    def test_prometheus_round_trip_validates(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", help="Queries.", path="cold").inc()
        reg.histogram("repro_query_seconds", path="cold").observe(0.003)
        reg.gauge("repro_live").set(1)
        text = reg.render_prometheus()
        assert validate_prometheus_text(text) == []
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{path="cold",le="+Inf"}' in text

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.histogram("h_seconds").observe(0.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "views"}
        (hist,) = snap["histograms"].values()
        assert {"count", "sum", "p50", "p95", "p99"} <= set(hist)

    def test_reset_drops_instruments_but_keeps_views(self):
        # The serve CLI resets between workload rounds so percentiles
        # are per-run; registered views are windows onto external state
        # (EngineStats, backends) and must survive the reset.
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.histogram("h_seconds").observe(0.5)
        reg.register_view(lambda: {"live": 1})
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}
        assert snap["views"] == {"live": 1}
        # Fresh instruments after the reset start from zero.
        reg.histogram("h_seconds").observe(0.1)
        (hist,) = reg.snapshot()["histograms"].values()
        assert hist["count"] == 1


class TestPercentiles:
    def test_percentiles_of_known_samples(self):
        got = percentiles([float(i) for i in range(1, 101)])
        assert got["p50"] == pytest.approx(50.5, abs=1.0)
        assert got["p95"] == pytest.approx(95.0, abs=1.5)
        assert got["p99"] == pytest.approx(99.0, abs=1.5)

    def test_empty_and_singleton(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert percentiles([0.25]) == {"p50": 0.25, "p95": 0.25, "p99": 0.25}

    def test_engine_stats_serve_latency(self):
        eng = _engine("serial", _binary_relations())
        for _ in range(3):
            eng.execute(BINARY)
        pcts = eng.stats().latency_percentiles()
        assert pcts["p50"] > 0
        assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]
        assert "latency_percentiles" in eng.stats().as_dict()


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------

class TestTracing:
    def test_null_tracer_is_a_recording_free_singleton(self):
        span = NULL_TRACER.span("query", q="x")
        assert span is NULL_SPAN
        assert span.recording is False
        assert span.trace_id is None
        assert span.child("inner", a=1) is span
        span.set(a=1)
        span.end()
        with span:
            pass
        assert span.attrs == {}

    def test_span_tree_emits_schema_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = SpanSink(path=str(path))
        tracer = Tracer(sink)
        with tracer.span("query", query="Q") as root:
            with root.child("cold_execute", algorithm="acyclic") as child:
                child.child("backend.round", backend="serial").end()
        tracer.close()
        lines = path.read_text().splitlines()
        assert validate_trace_lines(lines) == []
        recs = [json.loads(line) for line in lines]
        by_name = {r["name"]: r for r in recs}
        assert by_name["backend.round"]["parent"] == by_name["cold_execute"]["span"]
        assert by_name["cold_execute"]["parent"] == by_name["query"]["span"]
        assert by_name["query"]["parent"] is None
        assert len({r["trace"] for r in recs}) == 1

    def test_memory_sink_bounds_and_counts_drops(self):
        sink = SpanSink(capacity=4)
        tracer = Tracer(sink)
        for i in range(10):
            tracer.span("query", i=i).end()
        assert len(sink.records()) < 10
        assert sink.dropped > 0
        assert sink.emitted == 10

    def test_error_paths_tag_the_span(self, tmp_path):
        eng = Engine(p=4, backend="serial",
                     tracer=Tracer(SpanSink(path=str(tmp_path / "t.jsonl"))))
        with pytest.raises(Exception):
            eng.execute("Q(A,B) :- Nope(A,B)")
        eng.tracer.close()
        recs = [json.loads(line)
                for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert any("error" in r["attrs"] for r in recs)


# ----------------------------------------------------------------------
# Engine integration: trace ids, parity, wire attribution
# ----------------------------------------------------------------------

class TestEngineTracing:
    def test_metrics_carry_the_trace_id(self):
        sink = SpanSink()
        eng = _engine("serial", _binary_relations(), tracer=Tracer(sink))
        first = eng.execute(BINARY)
        second = eng.execute(BINARY)
        assert first.metrics.trace_id
        assert second.metrics.trace_id
        assert first.metrics.trace_id != second.metrics.trace_id
        traces = {r["trace"] for r in _spans(sink)}
        assert first.metrics.trace_id in traces

    def test_untraced_engine_reports_no_trace_id(self):
        eng = _engine("serial", _binary_relations())
        assert eng.execute(BINARY).metrics.trace_id is None

    def test_tracing_never_touches_the_ledger(self):
        rels = _binary_relations()
        plain = _engine("serial", rels)
        traced = _engine("serial", rels, tracer=Tracer(SpanSink()))
        want = plain.execute(BINARY)
        got = traced.execute(BINARY)
        assert sorted(got.rows()) == sorted(want.rows())
        assert got.report.as_dict() == want.report.as_dict()

    def test_registry_counts_serving_paths(self):
        eng = Engine(p=4, backend="serial")
        for name, rel in _binary_relations().items():
            eng.register(rel, name=name)
        eng.execute(BINARY)
        eng.execute(BINARY)  # result-cache hit
        snap = eng.metrics_snapshot()
        assert any("repro_queries_total" in k for k in snap["counters"])
        text = eng.metrics_text()
        assert validate_prometheus_text(text) == []
        assert 'repro_queries_total{path="cold"} 1' in text
        assert 'repro_queries_total{path="cached"} 1' in text


class TestWireAttribution:
    QUERIES = (BINARY, LINE3, "Q(B,C,D) :- R2(B,C), R3(C,D)")

    def _batch_wire(self, threads: int):
        """Per-query wire bytes + backend delta for one cold batch of
        concurrent executions from ``threads`` submitter threads.

        Pricing ships nothing, so the delta covers exactly the serving
        ships the meters attribute.
        """
        backend = MultiprocessBackend(workers=2, backoff_base=0.0)
        try:
            rels = _line3_relations()
            rels.update(_binary_relations())
            eng = _engine(backend, rels)
            for q in self.QUERIES:
                eng.prepare(q)
            before = backend.wire_stats()["bytes_shipped"]
            report = threaded_batch(eng, list(self.QUERIES), threads)
            assert all(r.ok for r in report.results)
            per_query = [r.metrics.wire_bytes for r in report.results]
            delta = backend.wire_stats()["bytes_shipped"] - before
            return per_query, delta
        finally:
            backend.close()

    def test_threaded_batch_wire_bytes_sum_to_backend_delta(self):
        """Regression: per-query wire_bytes under N submitter threads must
        attribute each shipped blob to exactly one query — the old
        thread-shared counter delta double-counted concurrent ships."""
        per_query, delta = self._batch_wire(threads=3)
        assert sum(per_query) == delta
        assert all(b > 0 for b in per_query)  # cold runs all shipped

    def test_attribution_is_independent_of_submitter_threads(self):
        serial_bytes, serial_delta = self._batch_wire(threads=1)
        threaded_bytes, threaded_delta = self._batch_wire(threads=3)
        assert serial_bytes == threaded_bytes
        assert serial_delta == threaded_delta == sum(serial_bytes)

    def test_one_shot_wire_bytes_are_the_calls_own(self):
        """``mpc_join``/``mpc_join_aggregate`` meter their own call: bytes
        another caller of a shared backend ships meanwhile are not theirs."""
        from repro.core.runner import mpc_join, mpc_join_aggregate
        from repro.mpc.backends.serial import SerialBackend
        from repro.semiring import COUNT

        class SharedSerial(SerialBackend):
            shipped = 0

            def run_ops(self, ops, meter=None, span=None):
                self.shipped += 1000  # another caller's ship, mid-call
                return super().run_ops(ops, meter=meter, span=span)

            def wire_stats(self):
                return {"bytes_shipped": self.shipped}

        inst = random_instance(catalog.binary_join(), 180, 20, seed=7)
        shared = SharedSerial()
        join = mpc_join(inst.query, inst, p=4, backend=shared)
        agg = mpc_join_aggregate(
            inst.query, ("B",), inst.with_uniform_annotations(COUNT), COUNT,
            p=4, backend=shared,
        )
        assert shared.shipped > 0
        assert join.meta["wire_bytes"] == agg.meta["wire_bytes"] == 0
        # Alone on a pool, the call's bytes are the backend's delta.
        pool = MultiprocessBackend(workers=2, backoff_base=0.0)
        try:
            res = mpc_join(inst.query, inst, p=4, backend=pool)
            assert res.meta["wire_bytes"] == pool.wire_stats()["bytes_shipped"] > 0
        finally:
            pool.close()

    def test_wire_meter_is_additive(self):
        meter = WireMeter()
        meter.add(10)
        meter.add(5)
        assert (meter.parts, meter.bytes) == (2, 15)


# ----------------------------------------------------------------------
# Span trees across live backends
# ----------------------------------------------------------------------

def _tree_checks(recs: list[dict]) -> None:
    """One root per trace; every parent resolves within its trace."""
    by_trace: dict[str, list[dict]] = {}
    for r in recs:
        by_trace.setdefault(r["trace"], []).append(r)
    for trace, spans in by_trace.items():
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1, f"trace {trace}: {len(roots)} roots"
        ids = {s["span"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                assert s["parent"] in ids, f"dangling parent in {trace}"


class TestBackendSpans:
    def test_multiprocess_rounds_report_worker_timings(self):
        backend = MultiprocessBackend(workers=2, backoff_base=0.0)
        sink = SpanSink()
        try:
            eng = _engine(backend, _binary_relations(), tracer=Tracer(sink))
            eng.execute(BINARY)
            recs = _spans(sink)
            _tree_checks(recs)
            rounds = [r for r in recs if r["name"] == "backend.round"]
            workers = [r for r in recs if r["name"] == "worker.round"]
            assert rounds and workers
            round_ids = {r["span"] for r in rounds}
            assert all(w["parent"] in round_ids for w in workers)
            assert any("compute_seconds" in w["attrs"] for w in workers)
        finally:
            backend.close()

    def test_chaos_respawn_keeps_the_span_tree_intact(self):
        """A killed worker's retry must appear as a fresh ``worker.round``
        child (``retry: true``) under the same ``backend.round`` parent —
        spans survive the respawn because the coordinator owns them."""
        backend = FaultInjectingBackend(
            inner=MultiprocessBackend(
                workers=2, round_timeout=2.0, backoff_base=0.0
            ),
            seed=1, rate=1.0, kinds=("kill",),
        )
        sink = SpanSink()
        try:
            eng = _engine(backend, _binary_relations(), tracer=Tracer(sink))
            res = eng.execute(BINARY)
            assert res.metrics.fault_events >= 1
            recs = _spans(sink)
            assert validate_trace_lines(
                [json.dumps(r) for r in recs]
            ) == []
            _tree_checks(recs)
            workers = [r for r in recs if r["name"] == "worker.round"]
            retries = [w for w in workers if w["attrs"].get("retry")]
            faulted = [w for w in workers if "fault" in w["attrs"]]
            assert faulted, "injected kill left no faulted worker span"
            assert retries, "respawn produced no retry worker.round span"
            round_ids = {
                r["span"] for r in recs if r["name"] == "backend.round"
            }
            assert all(w["parent"] in round_ids for w in retries)
            # a faulted attempt and its retry share a backend.round parent
            faulted_parents = {w["parent"] for w in faulted}
            assert any(w["parent"] in faulted_parents for w in retries)
        finally:
            backend.close()

    def test_redrive_spans_stay_well_nested(self):
        """A cold re-drive over warm caches (``result_cache=False``) runs
        synchronous ``run_ops`` rounds on a worker pool; its spans must
        close inside their parents."""
        backend = MultiprocessBackend(workers=2)
        sink = SpanSink()
        try:
            eng = _engine(backend, _line3_relations(), tracer=Tracer(sink))
            eng.execute(LINE3)          # cold
            eng.execute(LINE3)          # re-driven over the warm caches
            recs = _spans(sink)
            assert validate_trace_lines(
                [json.dumps(r) for r in recs]
            ) == []
            _tree_checks(recs)
            names = {r["name"] for r in recs}
            assert {"query", "backend.round"} <= names
            # children close inside their parents (well-nested intervals)
            by_id = {r["span"]: r for r in recs}
            for r in recs:
                parent = by_id.get(r["parent"] or "")
                if parent is not None:
                    assert r["ts"] >= parent["ts"] - 0.001
                    assert (r["ts"] + r["dur"]
                            <= parent["ts"] + parent["dur"] + 0.001)
        finally:
            backend.close()


# ----------------------------------------------------------------------
# explain --timings / CLI
# ----------------------------------------------------------------------

class TestExplainTimings:
    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    def test_explain_timings_render_per_primitive_wall(self, backend):
        eng = _engine(backend, _binary_relations())
        text = eng.explain(BINARY, timings=True)
        plain = eng.explain(BINARY)
        assert "wall=" not in plain
        assert re.search(r"^  \[SemiJoin\] .*  units=\d+  wall=", text, re.M)
        assert f"backend={backend}" in text and "backend=serial" in plain
        # The same run either way: the same units, line by line.
        assert _top_level_units(text) == _top_level_units(plain)

    def test_pool_rounds_show_under_their_primitive(self):
        backend = MultiprocessBackend(workers=2, backoff_base=0.0)
        try:
            eng = _engine(backend, _line3_relations())
            text = eng.explain(LINE3, algorithm="acyclic", timings=True)
        finally:
            backend.close()
        nested = re.findall(
            r"^    +backend\.round workers=2  wall=\S+ compute=", text, re.M
        )
        assert nested, text

    def test_explain_timings_leave_the_serving_ledger_alone(self):
        eng = _engine("serial", _binary_relations())
        want = eng.execute(BINARY)
        text = eng.explain(BINARY, timings=True)
        assert f"ledger: {want.report.total} units over {want.report.steps} steps" in text
        again = eng.execute(BINARY)
        assert again.report.as_dict() == want.report.as_dict()


class TestCli:
    def _write_workload(self, tmp_path):
        rels = _binary_relations()
        from repro.io import write_instance_dir
        from repro.data.instance import Instance

        inst = Instance(catalog.binary_join(), rels)
        data = tmp_path / "data"
        write_instance_dir(inst, data)
        queries = tmp_path / "queries.txt"
        queries.write_text(f"{BINARY}\n")
        return data, queries

    def test_stats_subcommand_emits_valid_prometheus(self, tmp_path, capsys):
        data, queries = self._write_workload(tmp_path)
        rc = cli_main([
            "stats", str(data), "-p", "4",
            "--queries", str(queries), "--format", "prom",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert validate_prometheus_text(out) == []
        assert 'repro_queries_total{path="cold"} 1' in out

    def test_stats_subcommand_json_snapshot(self, tmp_path, capsys):
        data, queries = self._write_workload(tmp_path)
        rc = cli_main([
            "stats", str(data), "-p", "4",
            "--queries", str(queries), "--format", "json",
        ])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert {"counters", "gauges", "histograms", "views"} <= set(snap)

    def test_serve_trace_artifacts_validate(self, tmp_path, capsys):
        data, queries = self._write_workload(tmp_path)
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        rc = cli_main([
            "serve", str(data), "-p", "4",
            "--queries", str(queries),
            "--trace", str(trace), "--metrics-out", str(prom),
        ])
        assert rc == 0
        assert validate_trace_lines(trace.read_text().splitlines()) == []
        assert validate_prometheus_text(prom.read_text()) == []

    def test_traced_serve_jsonl_holds_primitive_spans(self, tmp_path, capsys):
        """Primitive spans ride in the serve trace under ``cold_execute``,
        carry their ledger units, and keep the JSONL schema-valid."""
        data, queries = self._write_workload(tmp_path)
        trace = tmp_path / "trace.jsonl"
        assert cli_main([
            "serve", str(data), "-p", "4", "--queries", str(queries),
            "--trace", str(trace),
        ]) == 0
        lines = trace.read_text().splitlines()
        assert validate_trace_lines(lines) == []
        recs = [json.loads(line) for line in lines]
        by_id = {r["span"]: r for r in recs}
        prims = [r for r in recs if r["name"].startswith("prim.")]
        assert {"prim.SampleSort", "prim.SemiJoin"} <= {r["name"] for r in prims}
        for rec in prims:
            assert isinstance(rec["attrs"]["units"], int)
            parent = by_id[rec["parent"]]
            assert parent["name"] == "cold_execute" or parent["name"].startswith("prim.")

    def test_checker_cli_passes_on_real_artifacts(self, tmp_path, capsys):
        from repro.obs.check import main as check_main

        data, queries = self._write_workload(tmp_path)
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        assert cli_main([
            "serve", str(data), "-p", "4",
            "--queries", str(queries),
            "--trace", str(trace), "--metrics-out", str(prom),
        ]) == 0
        capsys.readouterr()
        assert check_main([str(trace), str(prom)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
