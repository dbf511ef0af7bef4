"""Front-door tests: admission, routing, batching, plan shipping.

The serving tier's correctness story is in the conformance cells
(shipped replay bit-identical, tests/conformance/test_plan_ship.py);
these tests pin the door's *mechanisms*: canonical-form routing
affinity, deterministic load-shed, hot-key spill, partitioned-catalog
eligibility, the cross-replica plan index, and lifecycle semantics.
"""

from __future__ import annotations

import time

import pytest

from repro.data.generators import random_instance
from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import AdmissionRejected, EngineError, ParseError
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


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


# ----------------------------------------------------------------------
# Routing + admission (autostart=False: queues stay full, counts are
# deterministic)
# ----------------------------------------------------------------------

def test_routing_affinity_same_query_same_replica():
    door = _door(autostart=False, shed_after=100)
    try:
        for _ in range(4):
            door.submit(QUERIES[0])
        pending = door.pending()
        assert sorted(pending) == [0, 0, 4], pending
    finally:
        door.close()


def test_routing_is_canonical_form_aware():
    door = _door(autostart=False, shed_after=100)
    try:
        door.submit("Q(A,B,C) :- R1(A,B), R2(B,C)")
        # Same canonical query, different atom order and variable names.
        door.submit("Q(X,Y,Z) :- R2(Y,Z), R1(X,Y)")
        assert sorted(door.pending()) == [0, 0, 2]
    finally:
        door.close()


def test_deterministic_shed():
    door = _door(autostart=False, shed_after=2, spill_after=100, replicas=1)
    try:
        door.submit(QUERIES[0])
        door.submit(QUERIES[0])
        with pytest.raises(AdmissionRejected, match="shed_after=2"):
            door.submit(QUERIES[0])
        s = door.stats()
        assert (s.admitted, s.shed) == (2, 1)
    finally:
        door.close()


def test_hot_key_spills_to_least_loaded():
    door = _door(autostart=False, shed_after=100, spill_after=1)
    try:
        for _ in range(3):
            door.submit(QUERIES[0])
        # Home takes the first; the next two spill to the other replicas.
        assert sorted(door.pending()) == [1, 1, 1]
        assert door.stats().spilled == 2
    finally:
        door.close()


def test_partitioned_catalog_gates_eligibility():
    door = Frontdoor(
        p=P, replicas=2, backend="serial", autostart=False, result_cache=False
    )
    try:
        rels = _relations()
        door.register(rels["R1"], replicas=[0])
        door.register(rels["R2"], replicas=[1])
        with pytest.raises(EngineError, match="no replica holds"):
            door.submit(QUERIES[0])
        door.register(rels["R2"], replicas=[0])
        door.submit(QUERIES[0])  # now replica 0 holds both
        assert door.pending() == (1, 0)
        assert door.placement()["R2"] == (0, 1)
    finally:
        door.close()


def test_register_rejects_bad_replica_index():
    door = _door(autostart=False)
    try:
        with pytest.raises(EngineError, match="no such replica"):
            door.register(Relation("X", ("A",), [(1,)]), replicas=[7])
    finally:
        door.close()


def test_submit_many_best_effort_embeds_shed():
    door = _door(autostart=False, shed_after=1, spill_after=100, replicas=1)
    try:
        futures = door.submit_many([QUERIES[0]] * 3, best_effort=True)
        assert len(futures) == 3
        assert [f.exception() is not None for f in futures[1:]] == [True, True]
        assert isinstance(futures[1].exception(), AdmissionRejected)
        with pytest.raises(AdmissionRejected):
            door.submit_many([QUERIES[0]], best_effort=False)
    finally:
        door.close()


def test_close_before_start_fails_queued_futures():
    door = _door(autostart=False)
    fut = door.submit(QUERIES[0])
    door.close()
    assert isinstance(fut.exception(), EngineError)
    with pytest.raises(EngineError, match="closed"):
        door.submit(QUERIES[0])


def test_parse_error_raises_at_the_door():
    door = _door(autostart=False)
    try:
        with pytest.raises(ParseError):
            door.submit("this is not a query (")
    finally:
        door.close()


# ----------------------------------------------------------------------
# End to end: serving + plan shipping
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


def test_one_cold_trace_warms_the_whole_tier():
    with _door(batch_window=0.0) as door:
        first = [f.result() for f in door.submit_many(QUERIES)]
        assert all(r.ok for r in first)
        # Every distinct query traced cold exactly once, tier-wide.
        assert not any(r.metrics.plan_replayed for r in first)

        # Each cold plan ships to the 2 peer replicas.
        want = len(QUERIES) * (door.replicas - 1)
        assert _wait_for(lambda: door.stats().plans_shipped >= want)
        s = door.stats()
        assert (s.plans_shipped, s.plans_rejected) == (want, 0)
        assert sum(e.stats().plans_installed for e in door.engines) == want

        # Zero re-traces: the warm tier replays everywhere, including on
        # replicas that never executed the query themselves.
        second = [f.result() for f in door.submit_many(QUERIES * 2)]
        assert all(r.ok and r.metrics.plan_replayed for r in second)
        assert door.stats().plans_shipped == want  # nothing re-shipped


def test_reregister_invalidates_plan_index():
    relations = _relations()
    with _door(batch_window=0.0) as door:
        door.submit_many(QUERIES[:1])
        want = door.replicas - 1
        assert _wait_for(lambda: door.stats().plans_shipped >= want)

        # New data generation: the index entry drops, the next cold
        # trace ships a fresh digest instead of being deduped away.
        door.register(relations["R1"], name="R1")
        res = door.execute(QUERIES[0])
        assert res.ok and not res.metrics.plan_replayed
        assert _wait_for(lambda: door.stats().plans_shipped >= 2 * want)


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
