"""Front-door tests: routing, admission, batching, one record per request.

Every replica serves bit-identical results (the engine's conformance
story); these tests pin the door's *mechanisms*: text-hash routing
affinity, deterministic load-shed, and that every request the door
admits is parsed, bound and recorded by its replica engine's own request
body.  A replica is stalled by holding its engine's lock: its worker
takes the first request and waits there, so the backlog stays put.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import ExitStack

import pytest

from repro.data.generators import random_instance
from repro.engine import Engine
from repro.errors import AdmissionRejected, EngineError, ParseError
from repro.obs import SpanSink, Tracer
from repro.query import catalog
from repro.serve import Frontdoor

P = 6

QUERIES = [
    "Q(A,B,C) :- R1(A,B), R2(B,C)",
    "Q(B,C,D) :- R2(B,C), R3(C,D)",
    "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)",
    "Q(A; count) :- R1(A,B), R2(B,C)",
    "Q(; count) :- R1(A,B), R2(B,C), R3(C,D)",
]


def _relations():
    inst = random_instance(catalog.line3(), 150, 10, seed=23)
    return dict(inst.relations)


def _door(**kwargs) -> Frontdoor:
    kwargs.setdefault("p", P)
    kwargs.setdefault("replicas", 3)
    kwargs.setdefault("backend", "serial")
    kwargs.setdefault("result_cache", False)
    door = Frontdoor(**kwargs)
    for name, rel in _relations().items():
        door.register(rel, name=name)
    return door


def _stalled(door: Frontdoor) -> ExitStack:
    """Hold every replica engine's lock: admitted requests stay pending
    until the stack closes."""
    stack = ExitStack()
    for engine in door.engines:
        stack.enter_context(engine._lock)
    return stack


# ----------------------------------------------------------------------
# Routing + admission (stalled replicas: counts are deterministic)
# ----------------------------------------------------------------------

def test_routing_affinity_same_query_same_replica():
    with _door(shed_after=100) as door:
        with _stalled(door):
            futures = [door.submit(QUERIES[0]) for _ in range(4)]
            pending = door.pending()
        assert sorted(pending) == [0, 0, 4], pending
        assert all(f.result().ok for f in futures)
        assert door.pending() == (0, 0, 0)


def test_deterministic_shed():
    with _door(shed_after=2, replicas=1) as door:
        with _stalled(door):
            admitted = [door.submit(QUERIES[0]) for _ in range(2)]
            with pytest.raises(AdmissionRejected, match="shed_after=2"):
                door.submit(QUERIES[0])
        assert all(f.result().ok for f in admitted)
        s = door.stats()
        assert (s.admitted, s.shed) == (2, 1)
        # A shed request never reached the engine: two requests, two records.
        assert door.engines[0].stats().queries == 2


def test_parse_error_raises_at_the_door():
    with _door(replicas=1) as door:
        with pytest.raises(ParseError):
            door.execute("this is not a query (")


def test_a_request_that_fails_to_parse_or_bind_leaves_one_record():
    """The door parses and binds nothing: an unparsable request and one
    that binds an unregistered relation are each recorded once by the
    replica engine's request body -- a ``per_query`` entry, one
    ``repro_queries_total{path="failed"}`` and one ``query`` span -- and
    ``execute`` raises the engine's error."""
    sink = SpanSink()
    door = Frontdoor(p=4, replicas=1, backend="serial", tracer=Tracer(sink))
    try:
        for name, rel in _relations().items():
            door.register(rel, name=name)
        with pytest.raises(ParseError):
            door.execute("Q(A :- R1(A")
        with pytest.raises(EngineError, match="no registered relation 'Nope'"):
            door.execute("Q(A,B) :- Nope(A,B)")
        (engine,) = door.engines
        stats = engine.stats()
        assert stats.queries == stats.failures == 2
        assert re.search(
            r'^repro_queries_total\{path="failed"\} 2$', engine.metrics_text(), re.M
        )
        roots = [r for r in sink.records() if r["name"] == "query"]
        assert [r["attrs"]["path"] for r in roots] == ["failed", "failed"]
        assert [r["trace"] for r in roots] == [m.trace_id for m in stats.per_query]
    finally:
        door.close()


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

def test_results_match_single_engine_reference():
    relations = _relations()
    ref = Engine(p=P, backend="serial", result_cache=False)
    for name, rel in relations.items():
        ref.register(rel, name=name)
    expected = {q: ref.execute(q) for q in QUERIES}

    with _door() as door:
        for q in QUERIES * 3:
            res = door.execute(q)
            assert res.ok
            want = expected[q]
            assert res.scalar == want.scalar
            assert res.rows() == want.rows()
            assert res.report.as_dict() == want.report.as_dict()


def test_frontdoor_counters_surface_in_registry():
    with _door() as door:
        for q in QUERIES:
            door.execute(q)
        text = door.metrics_text()
    assert "repro_frontdoor_admitted 5" in text
    assert "repro_frontdoor_replicas 3" in text
    assert 'repro_frontdoor_replica_seconds_count{replica="' in text
    # All three replicas share one registry: engine views merge by sum.
    assert "repro_engine_plans_installed" in text


def test_an_escaping_error_fails_its_batch_not_the_worker(monkeypatch):
    """``submit_batch`` re-raises a non-``ReproError`` after recording it:
    the batch's futures carry it, and the replica keeps serving."""
    with _door(replicas=1) as door:
        (engine,) = door.engines

        def boom(texts):
            raise RuntimeError("escaped")

        monkeypatch.setattr(engine, "submit_batch", boom)
        with pytest.raises(RuntimeError, match="escaped"):
            door.submit(QUERIES[0]).result(timeout=10)
        monkeypatch.undo()
        assert door.submit(QUERIES[0]).result(timeout=10).ok
        assert door.pending() == (0,)


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def test_close_serves_queued_requests():
    """``close`` refuses new requests at once and serves the ones it
    admitted before: the stop sentinel queues behind them."""
    door = _door(replicas=1)
    stall = _stalled(door)
    try:
        futures = [door.submit(q) for q in QUERIES[:3]]
        closer = threading.Thread(target=door.close)
        closer.start()
        _wait_for(lambda: door._closed)
        with pytest.raises(EngineError, match="closed"):
            door.submit(QUERIES[0])
        assert closer.is_alive()  # waiting on the stalled replica
    finally:
        stall.close()
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert all(f.done() and f.result().ok for f in futures)
    assert door.pending() == (0,)
    assert door.engines[0].stats().queries == 3


def test_batch_window_coalesces_a_backlog_up_to_the_cap(monkeypatch):
    """Requests queued behind a busy replica reach its engine in one
    ``submit_batch`` of at most 16 texts."""
    with _door(replicas=1, batch_window=0.05) as door:
        (engine,) = door.engines
        sizes: list[int] = []
        submit_batch = engine.submit_batch

        def spy(texts):
            sizes.append(len(texts))
            return submit_batch(texts)

        monkeypatch.setattr(engine, "submit_batch", spy)
        with _stalled(door):
            futures = [door.submit(QUERIES[0])]
            _wait_for(lambda: sizes)  # the worker is inside the first batch
            futures += [door.submit(QUERIES[i % len(QUERIES)]) for i in range(17)]
        assert all(f.result(timeout=30).ok for f in futures)
        assert sizes == [1, 16, 1]
        s = door.stats()
        assert (s.admitted, s.batches, s.coalesced) == (18, 3, 15)


def test_closed_door_admits_nothing():
    door = _door()
    door.close()
    with pytest.raises(EngineError, match="closed"):
        door.submit(QUERIES[0])


def test_constructor_validation():
    with pytest.raises(EngineError, match="at least one replica"):
        Frontdoor(replicas=0)
    with pytest.raises(EngineError, match="shed_after"):
        Frontdoor(replicas=1, shed_after=0)


def test_removed_engine_options_fail_loudly():
    """The warm path has one value per former option; a stale caller
    must get a TypeError, not a silently ignored keyword."""
    with pytest.raises(TypeError, match="plan_replay"):
        Engine(p=P, backend="serial", plan_replay=False)
    with pytest.raises(TypeError, match="fusion"):
        Frontdoor(p=P, replicas=1, backend="serial", fusion=False)


@pytest.mark.parametrize(
    "option", ["spill_after", "ship_plans", "autostart", "registry", "batch_max"]
)
def test_removed_door_options_fail_loudly(option):
    with pytest.raises(TypeError, match=option):
        Frontdoor(p=P, replicas=1, backend="serial", **{option: None})
