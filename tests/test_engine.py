"""Engine session behavior: caching, invalidation, batches, satellites."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.core import planner
from repro.core.line3 import is_line3
from repro.core.runner import ALGORITHMS, mpc_join, mpc_join_aggregate
from repro.data.generators import (
    add_dangling,
    line_trap_instance,
    matching_instance,
    random_instance,
)
from repro.data.relation import Relation
from repro.engine import Engine, parse_query
from repro.engine import session as session_module
from repro.errors import (
    DeadlineExceeded,
    EngineError,
    FaultError,
    MPCError,
    ParseError,
)
from repro.mpc import Cluster
from repro.mpc.backends import MultiprocessBackend, SerialBackend, get_backend
from repro.obs import SpanSink, Tracer
from repro.query import catalog
from repro.ram import group_by_count, join_size
from repro.ram.yannakakis import yannakakis as ram_yannakakis
from repro.semiring import COUNT
from tests.conftest import threaded_batch
from tests.test_plan import _refuse_spans


def _basic_engine(p: int = 4) -> Engine:
    eng = Engine(p=p)
    eng.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(40)]))
    eng.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(40)]))
    eng.register(Relation("R3", ("C", "D"), [(i % 7, i) for i in range(40)]))
    return eng


LINE3 = "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)"


def test_execute_matches_ram_oracle():
    eng = _basic_engine()
    res = eng.execute(LINE3)
    parsed = parse_query(LINE3)
    expected = set(ram_yannakakis(eng.instance_for(parsed)).rows)
    assert set(res.rows()) == expected
    assert res.prepared.query_class == "ACYCLIC"
    # ``auto`` ran the chooser's pick, which moves no more than the class's
    # paper algorithm (line3 here) on this data.
    instance = eng.instance_for(parsed)
    choice = planner.choose(parsed.query, instance, 4)
    assert res.metrics.algorithm == res.prepared.algorithm == choice.algorithm
    assert set(res.prepared.units) == set(planner.candidates(parsed.query))
    loads = {
        name: mpc_join(parsed.query, instance, 4, name, plan=choice.plan.order).report.load
        for name in choice.units
    }
    assert res.report.load == loads[choice.algorithm] <= loads["line3"]


def test_plan_cache_hit_on_second_execution():
    eng = _basic_engine()
    first = eng.execute(LINE3)
    second = eng.execute(LINE3)
    assert not first.metrics.cache_hit
    assert second.metrics.cache_hit
    # Equivalent text (different attr/edge order) hits the same entry.
    third = eng.execute("Q(D,C,B,A) :- R3(C,D), R2(B,C), R1(A,B)")
    assert third.metrics.cache_hit
    stats = eng.stats()
    assert stats.queries == 3
    assert stats.prepares == 1
    assert stats.cache_hits == 2 and stats.cache_misses == 1


def test_same_structure_different_binding_is_a_distinct_plan():
    """R(A,B) vs R(B,A) share a canonical hypergraph but not a binding."""
    eng = Engine(p=3)
    eng.register(Relation("R", ("X", "Y"), [(1, 2), (1, 3), (2, 3)]))
    eng.register(Relation("S", ("X", "Y"), [(2, 9), (3, 8)]))
    fwd = eng.execute("Q(A,B,C) :- R(A,B), S(B,C)")
    rev = eng.execute("Q(A,B,C) :- R(B,A), S(B,C)")
    assert not rev.metrics.cache_hit  # must not serve fwd's entry
    assert set(fwd.rows()) != set(rev.rows())


# ----------------------------------------------------------------------
# Plan validity across a register: an entry belongs to one version of the
# data it reads, so the next request after a register is a miss on a new
# entry, priced on the new data — whether or not the same order wins.
# ----------------------------------------------------------------------
def test_a_register_that_keeps_the_order_compiles_a_new_entry():
    eng = _basic_engine()
    first = eng.execute(LINE3)
    eng.register(Relation("R2", ("B", "C"), [(i % 4, i % 7) for i in range(40)]))
    res = eng.execute(LINE3)
    assert not res.metrics.cache_hit and res.prepared is not first.prepared
    instance = eng.instance_for(parse_query(LINE3))
    assert set(res.rows()) == set(ram_yannakakis(instance).rows)
    # The new entry describes the *new* data, exactly.
    choice, quality = planner.price_fold_orders(instance.query, instance, eng.p)
    assert res.prepared.plan_order == choice.order == first.prepared.plan_order
    assert res.metrics.plan_quality == res.prepared.plan_quality == quality
    assert quality != first.metrics.plan_quality
    assert eng.stats().prepares == 2


def test_plan_gaps_report_the_newest_pricing_of_a_query():
    eng = _basic_engine()
    first = eng.execute(LINE3)
    eng.register(Relation("R2", ("B", "C"), [(i % 3, i % 11) for i in range(80)]))
    res = eng.execute(LINE3)
    assert not res.metrics.cache_hit
    newest = res.metrics.plan_quality
    assert newest != first.metrics.plan_quality
    stats = eng.stats()
    gap = stats.plan_gaps()[LINE3]
    assert (gap["best"], gap["worst"]) == (newest["best"], newest["worst"])
    assert f"(best {newest['best']} / worst {newest['worst']} " in stats.summary()


def test_a_deadline_missed_before_execution_prices_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(
        session_module, "choose",
        lambda *a: calls.append(a) or planner.choose(*a),
    )
    eng = _basic_engine()
    with pytest.raises(DeadlineExceeded):
        eng.execute(LINE3, deadline=0)
    assert calls == []
    failed = eng.stats().per_query[-1]
    assert failed.failed and failed.algorithm == "auto"
    assert failed.plan_quality is None
    eng.execute(LINE3)
    assert len(calls) == 1


def test_a_register_that_flips_the_order_compiles_a_new_entry():
    forward = line_trap_instance(3, 300, 3000, direction="forward")
    backward = line_trap_instance(3, 300, 3000, direction="backward")
    text = "Q(X0,X1,X2,X3) :- R1(X0,X1), R2(X1,X2), R3(X2,X3)"
    eng = Engine(p=4, result_cache=False)
    for rel in forward.relations.values():
        eng.register(rel)
    first = eng.execute(text, algorithm="yannakakis")
    assert first.prepared.plan_order == ("R2", "R3", "R1")
    for rel in backward.relations.values():
        eng.register(rel)
    res = eng.execute(text, algorithm="yannakakis")
    assert not res.metrics.cache_hit and res.prepared is not first.prepared
    assert res.prepared.plan_order == ("R1", "R2", "R3")
    assert eng.stats().prepares == 2
    # The re-planned execution is the one-shot run under the new plan.
    instance = eng.instance_for(res.prepared.parsed)
    assert set(res.rows()) == set(ram_yannakakis(instance).rows)
    one_shot = mpc_join(
        instance.query, instance, p=4, algorithm="yannakakis",
        plan=res.prepared.plan_order,
    )
    assert res.report.as_dict() == one_shot.report.as_dict()
    assert res.relation.parts == one_shot.relation.parts
    # Settled: the next execution is a plain hit on the new entry.
    again = eng.execute(text, algorithm="yannakakis")
    assert again.metrics.cache_hit and again.prepared is res.prepared


# ----------------------------------------------------------------------
# A sort is paid once per *execution*.  The engine keeps distributed
# relations — and the sorted runs on them — across queries, so which
# queries ran before, in which order, and how they ended must never show
# in a query's ledger: every cold LoadReport equals the one-shot run's.
# ----------------------------------------------------------------------
BINARY = "Q(A,B,C) :- R1(A,B), R2(B,C)"
SHARING = (  # serve_churn's shapes, so each base relation serves several;
    (LINE3, "auto"),  # ``binhc`` sorts its inputs as they are, the others
    (BINARY, "auto"),  # reduce them first and sort the survivors.
    ("Q(B,C,D) :- R2(B,C), R3(C,D)", "binhc"),
    ("Q(A; count) :- R1(A,B), R2(B,C)", "auto"),
    (LINE3, "binhc"),
    ("Q(; count) :- R1(A,B), R2(B,C), R3(C,D)", "auto"),
    (BINARY, "binhc"),
)


def _sharing_engine(backend="serial") -> Engine:
    eng = Engine(p=4, backend=backend, result_cache=False)
    eng.register(Relation("R1", ("A", "B"), [(i, i * i % 11) for i in range(160)]))
    eng.register(Relation("R2", ("B", "C"), [(i % 11, i % 7) for i in range(120)]))
    eng.register(Relation("R3", ("C", "D"), [(i * i % 7, i) for i in range(90)]))
    return eng


def _one_shot_ledger(eng: Engine, res, backend="serial") -> dict:
    parsed, entry = res.prepared.parsed, res.prepared
    instance = eng.instance_for(parsed)
    if parsed.kind == "join":
        return mpc_join(
            parsed.query, instance, p=eng.p, algorithm=entry.algorithm,
            plan=entry.plan_order, backend=backend,
        ).report.as_dict()
    return mpc_join_aggregate(
        parsed.query, parsed.output_attrs, instance.with_uniform_annotations(COUNT),
        COUNT, p=eng.p, algorithm=entry.algorithm, backend=backend,
    ).report.as_dict()


def _forget_plans(eng: Engine) -> None:
    """``clear_caches`` minus the distributed relations: the next execution
    is cold again, on relations that still carry their sorted runs."""
    eng._plans.clear()
    eng._recordings.clear()
    eng._recording_bytes = 0


def _carried_runs(eng: Engine) -> int:
    """Arrangements the cached base relations hold from earlier executions."""
    return sum(len(d._substrate.get("paid", ())) for d in eng._dist_cache.values())


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_a_query_ledger_does_not_depend_on_what_ran_before(backend):
    want: dict[tuple, dict] = {}
    for order in (SHARING, SHARING[::-1]):
        eng = _sharing_engine(backend)
        for round_ in range(2):
            for query in order:
                res = eng.execute(query[0], algorithm=query[1])
                assert not res.metrics.cache_hit
                if query not in want:
                    want[query] = _one_shot_ledger(eng, res, backend)
                assert res.report.as_dict() == want[query], (query, order[0], round_)
            # R1[B], R2[B], R2[C], R3[C], and the count-annotated R1[B] and
            # R2[B] that the aggregates' fold sorts: sorted by one query,
            # read by the next.
            assert _carried_runs(eng) == 6
            _forget_plans(eng)


class _FaultAtRound(SerialBackend):
    """Serial backend whose ``fail_at``-th compute round raises a fault."""

    fail_at = 0

    def run_ops(self, ops, meter=None, span=None):
        self.fail_at -= 1
        if self.fail_at == 0:
            raise FaultError("injected")
        return super().run_ops(ops, meter=meter, span=span)


def test_a_miss_or_a_fault_mid_execution_leaves_no_sort_half_paid(monkeypatch):
    clean = _sharing_engine()
    want = {q: clean.execute(q[0], algorithm=q[1]).report.as_dict() for q in SHARING}
    victim = (LINE3, "binhc")

    # A deadline that fires halfway down the line-3's ledger, after it has
    # paid for runs on the base relations ...
    real = Cluster.check_deadline

    def miss_halfway(self):
        if self.deadline is not None and self._steps >= want[victim]["steps"] // 2:
            raise DeadlineExceeded("injected")
        real(self)

    eng = _sharing_engine()
    monkeypatch.setattr(Cluster, "check_deadline", miss_halfway)
    with pytest.raises(DeadlineExceeded):
        eng.execute(victim[0], algorithm=victim[1], deadline=3600.0)
    monkeypatch.setattr(Cluster, "check_deadline", real)
    assert _carried_runs(eng) >= 2
    # ... and the retry, on the same relations, is the fault-free run.
    assert eng.execute(victim[0], algorithm=victim[1]).report.as_dict() == want[victim]

    # The same for a backend fault in its third sort: the query fails,
    # the others read the relations it had sorted and paid for.
    backend = _FaultAtRound()
    backend.fail_at = 3
    eng = _sharing_engine(backend)
    with pytest.raises(FaultError):
        eng.execute(victim[0], algorithm=victim[1])
    assert _carried_runs(eng) >= 2
    for query in SHARING:
        if query != victim:
            res = eng.execute(query[0], algorithm=query[1])
            assert res.report.as_dict() == want[query], query


class _WorkerRaises(SerialBackend):
    """Serial backend whose rounds fail the way a pool's worker error does."""

    def run_ops(self, ops, meter=None, span=None):
        raise MPCError("map_parts failed in worker 0: ValueError('boom')")


def test_a_non_fault_error_from_a_cold_execution_is_recorded_failed():
    eng = _sharing_engine(_WorkerRaises())
    with pytest.raises(MPCError, match="worker 0"):
        eng.execute(LINE3)
    stats = eng.stats()
    assert (stats.queries, stats.failures) == (1, 1)
    assert 'repro_queries_total{path="failed"} 1' in eng.metrics_text()


# ----------------------------------------------------------------------
# One record per request: every failure is recorded once, by _finish
# ----------------------------------------------------------------------
def _miss_mid_run(monkeypatch) -> None:
    """A deadline that expires after the run's first ledger step."""
    real = Cluster.check_deadline

    def miss(self):
        if self.deadline is not None and self._steps >= 1:
            raise DeadlineExceeded("injected")
        real(self)

    monkeypatch.setattr(Cluster, "check_deadline", miss)


def _pinned(eng: Engine, algorithm: str):
    """A prepared statement for BINARY whose algorithm request is
    ``algorithm`` (``prepare`` refuses an unknown one, a batch takes it)."""
    entry = eng.prepare(BINARY)
    return dataclasses.replace(entry, key=(*entry.key[:2], algorithm))


#: kind -> (request builder, deadline, exception type, message).  The
#: messages are the ones a direct ``execute`` raised before failures were
#: recorded in one place; they must not change.
FAILURES = {
    "unparsable": (lambda eng: "Q(A :- R1(A", None, ParseError,
                   "bad rule head 'Q(A'"),
    "unknown-relation": (lambda eng: "Q(A,B) :- Nope(A,B)", None, EngineError,
                         "no registered relation 'Nope'; registered: ['R1', 'R2']"),
    "unknown-algorithm": (lambda eng: _pinned(eng, "quantum"), None, EngineError,
                          f"unknown algorithm 'quantum'; pick from {ALGORITHMS}"),
    "arity-mismatch": (lambda eng: "Q(A) :- R1(A)", None, EngineError,
                       "atom R1(A) has arity 1 but relation 'R1' has columns "
                       "('A', 'B')"),
    "deadline-zero": (lambda eng: BINARY, 0, DeadlineExceeded,
                      "deadline expired before execution began"),
    "deadline-mid-run": (lambda eng: BINARY, 3600.0, DeadlineExceeded, "injected"),
}


def _binary_engine(**kwargs) -> Engine:
    eng = Engine(p=4, backend="serial", **kwargs)
    eng.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(40)]))
    eng.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(40)]))
    return eng


def _failed_count(eng: Engine) -> int:
    found = re.search(
        r'^repro_queries_total\{path="failed"\} (\d+)', eng.metrics_text(), re.M
    )
    return int(found.group(1)) if found else 0


@pytest.mark.parametrize("kind", list(FAILURES))
def test_a_failed_request_leaves_one_record(monkeypatch, kind):
    """Whatever fails -- parse, bind, algorithm, deadline before or during
    the run -- ``execute`` raises what it always raised, and the request
    leaves one record: the session's ``per_query`` entry, one more
    ``repro_queries_total{path="failed"}`` and one ``query`` span with
    ``path="failed"`` and the error.  ``submit_batch`` embeds that same
    record."""
    build, deadline, exc_type, message = FAILURES[kind]
    if kind == "deadline-mid-run":
        _miss_mid_run(monkeypatch)
    sink = SpanSink()
    eng = _binary_engine(tracer=Tracer(sink))
    request = build(eng)

    with pytest.raises(exc_type) as info:
        eng.execute(request, deadline=deadline)
    assert str(info.value) == message
    record = eng.stats().per_query[-1]
    assert (eng.stats().queries, eng.stats().failures) == (1, 1)
    assert record.failed and record.error == f"{exc_type.__name__}: {message}"
    assert record.deadline_exceeded == (exc_type is DeadlineExceeded)
    assert (record.load, record.steps, record.wire_bytes) == (0, 0, 0)
    assert _failed_count(eng) == 1
    roots = [r for r in sink.records() if r["name"] == "query"]
    assert len(roots) == 1 and roots[0]["trace"] == record.trace_id
    assert roots[0]["attrs"]["path"] == "failed"
    assert roots[0]["attrs"]["error"] == record.error

    report = eng.submit_batch([request], budget=deadline)
    (res,) = report.results
    assert not res.ok and type(res.error) is exc_type
    assert res.metrics is eng.stats().per_query[-1]
    assert res.metrics.error == record.error
    assert res.metrics.text == record.text and res.metrics.kind == record.kind
    assert res.metrics.algorithm == record.algorithm
    assert eng.stats().queries == 2 and _failed_count(eng) == 2
    assert len([r for r in sink.records() if r["name"] == "query"]) == 2

    # Untraced, the same failures construct no span.
    _refuse_spans(monkeypatch)
    if kind == "deadline-mid-run":
        _miss_mid_run(monkeypatch)
    plain = _binary_engine()
    request = build(plain)
    with pytest.raises(exc_type):
        plain.execute(request, deadline=deadline)
    assert not plain.submit_batch([request], budget=deadline).results[0].ok
    assert plain.stats().failures == 2 and _failed_count(plain) == 2


def test_a_failed_cold_run_reports_what_it_shipped(monkeypatch):
    """A cold run that fails mid-execution on a pool still reports the
    bytes its meter counted and the backend requests it made."""
    backend = MultiprocessBackend(workers=1)
    try:
        eng = Engine(p=4, backend=backend)
        eng.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(40)]))
        eng.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(40)]))
        shipped = backend.wire_stats()["bytes_shipped"]
        requests = backend.requests

        def miss(self):  # once the pool has served the run a round
            if self.deadline is not None and backend.requests > requests:
                raise DeadlineExceeded("injected")

        monkeypatch.setattr(Cluster, "check_deadline", miss)
        with pytest.raises(DeadlineExceeded, match="injected"):
            eng.execute(BINARY, deadline=3600.0)
        record = eng.stats().per_query[-1]
        assert record.failed and record.wire_bytes > 0
        assert record.wire_bytes == backend.wire_stats()["bytes_shipped"] - shipped
        assert record.backend_requests == backend.requests - requests > 0
        assert eng.stats().total_wire_bytes == record.wire_bytes
    finally:
        backend.close()


def test_a_non_repro_error_escapes_the_batch_once_recorded(monkeypatch):
    """A cold run that raises something other than a ``ReproError`` (a
    bug, not a query's failure) is recorded failed and escapes
    ``submit_batch``; the batch does not swallow it."""

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(session_module, "run_join_algorithm", broken)
    eng = _basic_engine()
    with pytest.raises(ValueError, match="boom"):
        eng.submit_batch([BINARY, LINE3])
    stats = eng.stats()
    assert (stats.queries, stats.failures) == (1, 1)
    assert stats.per_query[-1].error == "ValueError: boom"
    assert _failed_count(eng) == 1


def _count_pricing(monkeypatch) -> list:
    """Record every pricing call the engine makes."""
    calls = []
    for name in ("price_fold_orders", "choose"):
        real = getattr(planner, name)
        monkeypatch.setattr(
            session_module, name,
            lambda *a, real=real, **k: calls.append(a) or real(*a, **k),
        )
    return calls


@pytest.mark.parametrize(
    "text, algorithm, pricings",
    [
        (LINE3, "auto", 1),
        (LINE3, "yannakakis", 1),
        ("Q(A,B,C) :- R1(A,B), R2(B,C), R3(C,A)", "auto", 0),
        (LINE3, "acyclic", 0),
        ("Q(B; count) :- R1(A,B), R2(B,C)", "auto", 0),
    ],
    ids=["auto", "yannakakis", "cyclic", "acyclic", "grouped-count"],
)
def test_the_first_execute_after_a_register_prices_what_it_reads(
    monkeypatch, text, algorithm, pricings
):
    eng = _basic_engine()
    eng.execute(text, algorithm=algorithm)
    calls = _count_pricing(monkeypatch)
    eng.register(Relation("R2", ("B", "C"), [(i % 3, i % 11) for i in range(80)]))
    res = eng.execute(text, algorithm=algorithm)
    assert not (res.metrics.cache_hit or res.metrics.result_cached)
    assert len(calls) == pricings
    eng.execute(text, algorithm=algorithm)
    assert len(calls) == pricings


def test_a_prepare_after_a_register_prices_nothing(monkeypatch):
    eng = _basic_engine()
    eng.execute(LINE3)
    calls = _count_pricing(monkeypatch)
    eng.register(Relation("R2", ("B", "C"), [(i % 3, i % 11) for i in range(80)]))
    entry = eng.prepare(LINE3)
    assert calls == []
    assert eng.execute(LINE3).prepared is entry
    assert len(calls) == 1


def test_cyclic_query_is_never_repriced(monkeypatch):
    inst = random_instance(catalog.triangle(), 30, 6, seed=5)
    eng = Engine(p=4)
    for rel in inst.relations.values():
        eng.register(rel)
    calls = _count_pricing(monkeypatch)
    text = "Q(A,B,C) :- R1(B,C), R2(A,C), R3(A,B)"
    first = eng.execute(text)
    assert first.prepared.plan_quality is None
    other = random_instance(catalog.triangle(), 50, 5, seed=6)
    eng.register(other.relations["R2"])
    res = eng.execute(text)
    assert not res.metrics.cache_hit and res.prepared is not first.prepared
    fresh = eng.instance_for(res.prepared.parsed)
    assert set(res.rows()) == mpc_join(fresh.query, fresh, p=4).row_set()
    assert calls == []
    # The wrapper does see acyclic pricing (the monkeypatch is live): a
    # prepared entry prices its decision when it is first read.
    entry = eng.prepare(LINE3.replace("R3(C,D)", "R3(A,D)"))
    assert calls == []
    entry.algorithm
    assert len(calls) == 1


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_pricing_issues_no_backend_round(backend):
    """``prepare`` and a re-pricing ``execute`` price in RAM: neither sends
    the backend a request for it."""
    backend_obj = get_backend(backend)
    eng = Engine(p=4, backend=backend_obj)
    eng.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(40)]))
    eng.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(40)]))
    eng.register(Relation("R3", ("C", "D"), [(i % 7, i) for i in range(40)]))
    before = backend_obj.requests
    entry = eng.prepare(LINE3, algorithm="yannakakis")
    assert entry.plan_quality is not None
    assert backend_obj.requests == before
    cold = eng.execute(LINE3, algorithm="yannakakis")
    eng.register(Relation("R2", ("B", "C"), [(i % 3, i % 11) for i in range(80)]))
    before = backend_obj.requests
    res = eng.execute(LINE3, algorithm="yannakakis")
    assert not res.metrics.cache_hit
    # Every request since the swap belongs to the execution itself.
    assert backend_obj.requests - before == res.metrics.backend_requests
    assert res.metrics.backend_requests == cold.metrics.backend_requests


def test_result_cache_replays_and_invalidates():
    eng = _basic_engine()
    first = eng.execute(LINE3)
    assert not first.metrics.result_cached
    hit = eng.execute(LINE3)
    assert hit.metrics.result_cached
    assert hit.report.as_dict() == first.report.as_dict()
    assert set(hit.rows()) == set(first.rows())
    assert eng.stats().result_hits == 1
    # Any registered update unservables the recording.
    eng.register(Relation("R3", ("C", "D"), [(i % 7, i + 1) for i in range(40)]))
    fresh = eng.execute(LINE3)
    assert not fresh.metrics.result_cached
    expected = set(ram_yannakakis(eng.instance_for(parse_query(LINE3))).rows)
    assert set(fresh.rows()) == expected


def test_result_cache_can_be_disabled():
    eng = Engine(p=3, result_cache=False)
    eng.register(Relation("R", ("A", "B"), [(0, 1), (1, 2)]))
    eng.execute("Q(A,B) :- R(A,B)")
    again = eng.execute("Q(A,B) :- R(A,B)")
    assert again.metrics.cache_hit and not again.metrics.result_cached
    assert eng.stats().result_hits == 0


def test_stale_plan_never_serves_stale_data():
    """The same order still wins on the new rows: a new entry, fresh data."""
    eng = Engine(p=3)
    eng.register(Relation("R", ("A", "B"), [(0, 1), (1, 2)]))
    eng.register(Relation("S", ("B", "C"), [(1, 7), (2, 8)]))
    text = "Q(A,B,C) :- R(A,B), S(B,C)"
    first = eng.execute(text)
    assert set(first.rows()) == {(0, 1, 7), (1, 2, 8)}
    # Shifted values: identical sizes and degree profiles, different rows.
    eng.register(Relation("S", ("B", "C"), [(1, 70), (2, 80)]))
    second = eng.execute(text)
    assert not second.metrics.cache_hit and second.prepared is not first.prepared
    assert set(second.rows()) == {(0, 1, 70), (1, 2, 80)}


def test_prepare_yannakakis_prices_a_plan():
    eng = _basic_engine()
    entry = eng.prepare(LINE3, algorithm="yannakakis")
    assert entry.algorithm == "yannakakis"
    assert len(entry.plan_order) == 3
    assert entry.plan_quality is not None
    assert entry.plan_quality["best"] <= entry.plan_quality["worst"]
    res = eng.execute(LINE3, algorithm="yannakakis")
    assert res.metrics.cache_hit  # prepare seeded the cache
    expected = set(ram_yannakakis(eng.instance_for(parse_query(LINE3))).rows)
    assert set(res.rows()) == expected


def test_plan_quality_surfaced_in_stats():
    eng = _basic_engine()
    eng.execute(LINE3)
    stats = eng.stats()
    assert stats.per_query[0].plan_quality is not None
    gaps = stats.plan_gaps()
    assert LINE3 in gaps
    assert gaps[LINE3]["gap"] >= 1.0
    assert "plan gap" in stats.summary()


def test_aggregate_and_scalar_paths():
    eng = _basic_engine()
    grouped = eng.execute("Q(B; count) :- R1(A,B), R2(B,C)")
    assert grouped.relation is not None and grouped.scalar is None
    total = eng.execute("Q(; count) :- R1(A,B), R2(B,C)")
    assert total.relation is None
    assert total.scalar == sum(
        w for _row, w in zip(grouped.relation.rows, grouped.relation.annotations)
    )


def test_stored_annotations_are_read_only_in_their_own_semiring():
    """Relations annotated in SUM_PRODUCT keep their weights for a ``sum``
    query; a projection or a ``count`` over them annotates every row with
    its own semiring's ``one`` instead."""
    from repro.semiring import SUM_PRODUCT

    eng = Engine(p=4)
    eng.register(Relation(
        "W", ("A", "B"), [(1, 10), (1, 20), (2, 10)],
        annotations=[2.0, 3.0, 5.0], semiring=SUM_PRODUCT,
    ))
    eng.register(Relation(
        "V", ("B",), [(10,), (20,)], annotations=[4.0, 0.0], semiring=SUM_PRODUCT,
    ))

    def result(text):
        res = eng.execute(text)
        return dict(zip(res.relation.rows, res.relation.annotations))

    project = result("Q(A) :- W(A,B), V(B)")
    assert project == {(1,): True, (2,): True}
    assert all(w is True for w in project.values())
    count = result("Q(A; count) :- W(A,B), V(B)")
    assert count == {(1,): 2, (2,): 1}
    assert all(type(w) is int for w in count.values())
    assert result("Q(A; sum) :- W(A,B), V(B)") == {(1,): 8.0, (2,): 20.0}


def test_submit_batch_serial_and_threaded_agree():
    eng = _basic_engine()
    workload = [
        LINE3,
        "Q(B; count) :- R1(A,B), R2(B,C)",
        "Q(A,B,C) :- R1(A,B), R2(B,C)",
        LINE3,
    ]
    serial = eng.submit_batch(workload)
    threaded = threaded_batch(eng, workload, threads=4)
    assert serial.stats.queries == threaded.stats.queries == 4
    for a, b in zip(serial.results, threaded.results):
        assert set(a.rows()) == set(b.rows())
        assert a.report.as_dict() == b.report.as_dict()
    # Second batch is fully warm.
    assert threaded.stats.cache_hits == 4
    assert all(r.metrics.cache_hit for r in threaded.results)


def test_threaded_warm_replays_on_a_pool_match_their_cold_reports():
    backend = MultiprocessBackend(workers=2)
    try:
        eng = Engine(p=4, backend=backend, result_cache=False)
        eng.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(60)]))
        eng.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(60)]))
        queries = [
            "Q(A,B,C) :- R1(A,B), R2(B,C)",
            "Q(A,B) :- R1(A,B), R2(B,C)",
            "Q(B,C) :- R1(A,B), R2(B,C)",
        ]
        cold = eng.submit_batch(queries)
        # result_cache=False: every one of these re-drives cold over the
        # warm dist caches and worker memos, three submitters at a time.
        warm = threaded_batch(eng, queries * 2, threads=3)
        assert all(r.ok for r in warm.results)
        assert not any(r.metrics.result_cached for r in warm.results)
        for r_cold, r_warm in zip(cold.results * 2, warm.results):
            assert r_warm.report.as_dict() == r_cold.report.as_dict()
    finally:
        backend.close()


def test_submit_batch_empty_rejected():
    with pytest.raises(EngineError):
        _basic_engine().submit_batch([])


def test_unknown_relation_suggests_registered_name():
    eng = _basic_engine()
    with pytest.raises(EngineError, match="R1"):
        eng.execute("Q(A,B) :- R1x(A,B)")


def test_unknown_relation_on_empty_catalog_says_so():
    # Near-miss suggestions need candidates; with nothing registered the
    # message must say *why* there are none, not list an empty set.
    with pytest.raises(EngineError, match="catalog is empty"):
        Engine(p=4).execute("Q(A,B) :- R1(A,B), R2(B,C)")


def test_arity_mismatch_rejected():
    eng = _basic_engine()
    with pytest.raises(EngineError, match="arity"):
        eng.execute("Q(A,B,C) :- R1(A,B,C)")


def test_self_join_binds_one_relation_twice():
    eng = Engine(p=3)
    eng.register(Relation("E", ("X", "Y"), [(1, 2), (2, 3), (3, 4)]))
    res = eng.execute("Q(A,B,C) :- E(A,B), E(B,C)")
    assert set(res.rows()) == {(1, 2, 3), (2, 3, 4)}


def test_catalog_queries_execute_by_name():
    eng = _basic_engine()
    res = eng.execute("line3")
    direct = eng.execute(LINE3)
    assert set(res.rows()) == set(direct.rows())


# ----------------------------------------------------------------------
# Satellites: public is_line3
# ----------------------------------------------------------------------
def test_is_line3_public_and_deprecated_alias():
    assert is_line3(catalog.line3()) == ("R1", "R2", "R3")
    assert is_line3(catalog.triangle()) is None
    from repro.core import is_line3 as exported

    assert exported is is_line3


def test_cold_wall_seconds_includes_the_recording(monkeypatch):
    """Encoding and sizing the result blocks is part of a cold request:
    slowing ``_recording_nbytes`` must show in ``wall_seconds`` and in the
    engine's latency percentiles."""
    import time

    eng = _basic_engine()
    sizer = Engine._recording_nbytes
    delay = 0.2

    def slow_sizer(self, stored):
        time.sleep(delay)
        return sizer(self, stored)

    monkeypatch.setattr(Engine, "_recording_nbytes", slow_sizer)
    res = eng.execute(LINE3)
    assert not res.metrics.result_cached
    assert res.metrics.wall_seconds >= delay
    assert eng.stats().latency_percentiles()["p50"] >= delay


# ----------------------------------------------------------------------
# The column fence: what may and may not encode columns
# ----------------------------------------------------------------------
def _count_encodes(monkeypatch) -> list[int]:
    """Record ``len(values)`` of every ``encode_column`` call from here on."""
    from repro.data import columns
    from repro.mpc import distrel

    seen: list[int] = []
    encode = columns.encode_column

    def counting(values):
        seen.append(len(values))
        return encode(values)

    monkeypatch.setattr(columns, "encode_column", counting)
    monkeypatch.setattr(distrel, "encode_column", counting)
    return seen


def test_set_up_path_encodes_no_column(monkeypatch):
    """Read, register, prepare: the path ``setup_s`` times builds no typed
    column (relations encode lazily, on their first cold use)."""
    from pathlib import Path

    from repro.io import read_relation_csv

    seen = _count_encodes(monkeypatch)
    workload = Path(__file__).resolve().parents[1] / "examples" / "serve_workload"
    eng = Engine(8, "serial")
    for path in sorted(workload.glob("R*.csv")):
        eng.register(read_relation_csv(path, name=path.stem))
    queries = [
        line for line in (workload / "queries.txt").read_text().splitlines()
        if line.startswith("Q(")
    ]
    assert len(queries) == 5
    for text in queries:
        eng.prepare(text)
    assert seen == []


def test_cold_join_encodes_inbox_sides_never_the_result(monkeypatch):
    """One cold OUT >> IN binary join encodes O(p x arity) columns, each no
    longer than what one server received; nothing of result size."""
    inst = random_instance(catalog.binary_join(), 150, {"A": 900, "B": 4, "C": 900}, seed=7)
    p = 8
    eng = Engine(p, "serial")
    for name, rel in inst.relations.items():
        eng.register(Relation(name, rel.attrs, [tuple(map(str, r)) for r in rel.rows]))
    seen = _count_encodes(monkeypatch)
    res = eng.execute("Q(A,B,C) :- R1(A,B), R2(B,C)", algorithm="yannakakis")
    assert not res.metrics.result_cached
    assert res.output_size > 10 * inst.input_size
    base = max(len(rel) for rel in inst.relations.values())
    assert seen and max(seen) <= max(base, res.report.max_step_load)
    assert max(seen) * 10 < res.output_size
    # Two base relations (2 columns each) + two inbox sides per server.
    assert len(seen) <= 4 + p * 4
    assert len(res.rows()) == res.output_size
    assert len(seen) <= 4 + p * 4           # reading rows encodes nothing


def _deck_shaped(instance) -> tuple[list[Relation], str]:
    """An instance's relations with string cells, as the harness decks
    register them, and the full join over all of them."""
    rels = [
        Relation(name, rel.attrs, [tuple(map(str, r)) for r in rel.rows])
        for name, rel in sorted(instance.relations.items())
    ]
    head = ",".join(sorted({a for r in rels for a in r.attrs}))
    body = ", ".join(f"{r.name}({','.join(r.attrs)})" for r in rels)
    return rels, f"Q({head}) :- {body}"


_LINE = add_dangling(random_instance(catalog.line3(), 40, 14, seed=3), 30, seed=5)
_FORK = random_instance(
    catalog.fork_join(), 40, {"A": 400, "B": 6, "C": 6, "D": 400, "E": 400}, seed=17
)
_HIER = random_instance(
    catalog.q2_r_hierarchical(), 40,
    {"x1": 14, "x2": 400, "x3": 6, "x4": 400, "x5": 6}, seed=11,
)


@pytest.mark.parametrize("instance, algorithm, aggregate", [
    (_LINE, "yannakakis", ""),
    (_LINE, "line3", ""),
    (_LINE, "acyclic", ""),
    (_FORK, "acyclic", ""),
    (_HIER, "rhierarchical", ""),
    (matching_instance(catalog.star_join(3), 40), "binhc", ""),
    (_LINE, "auto", "B; count"),
    (_LINE, "auto", "; count"),
], ids=[
    "line-yannakakis", "line-line3", "line-acyclic", "fork-acyclic",
    "hier-rhierarchical", "star-binhc", "line-groupby-count", "line-count",
])
def test_cold_path_never_reads_relation_columns(monkeypatch, instance, algorithm, aggregate):
    """Base relations enter the cluster as row slices: a cold execute of
    every algorithm, aggregates included, never encodes one."""
    rels, text = _deck_shaped(instance)
    if aggregate:
        text = f"Q({aggregate}) :- {text.split(' :- ')[1]}"
    eng = Engine(8, "serial")
    for rel in rels:
        eng.register(rel)

    def refuse(self):
        raise AssertionError(f"{self.name}.columns read on the cold path")

    monkeypatch.setattr(Relation, "columns", property(refuse))
    res = eng.execute(text, algorithm=algorithm)
    monkeypatch.undo()
    assert not res.metrics.result_cached
    assert all(dist.column_parts is None for dist in eng._dist_cache.values())
    inst = eng.instance_for(parse_query(text))
    if aggregate == "; count":
        assert res.scalar == join_size(inst)
    elif aggregate:
        assert dict(zip(res.relation.rows, res.relation.annotations)) == (
            group_by_count(inst, ("B",))
        )
    else:
        assert sorted(res.rows()) == sorted(ram_yannakakis(inst).rows)


def test_aggregate_recording_is_charged_as_the_rows_it_holds():
    """Sizing an aggregate recording encodes nothing: the recorded
    relation keeps no columnar copy, and its charge covers its rows."""
    import sys

    eng = _basic_engine()
    res = eng.execute("Q(B; count) :- R1(A,B), R2(B,C)")
    recording, stored_bytes = eng._recordings[res.prepared.key]
    rel = recording.relation
    assert isinstance(rel, Relation) and len(rel) == 5
    assert rel._cols is None
    assert stored_bytes >= sys.getsizeof(rel.rows) + sum(
        map(sys.getsizeof, rel.rows)
    )
