"""Unit tests for the physical plan layer (IR, trace, timed replay), the
recording LRU, and the fence that keeps tracing off the serving path."""

from __future__ import annotations

import pytest

from repro.data.relation import Relation
from repro.engine import Engine, session
from repro.mpc import Cluster, distribute_relation
from repro.mpc.backends import get_backend
from repro.mpc.cluster import kind_split
from repro.mpc.primitives import attach_degrees, count_by_key, semi_join
from repro.plan import Broadcast, Charge, Executor, TraceRecorder


def _traced_primitives(p: int = 6):
    """Trace a mixed primitive run; return (plan, report, outputs)."""
    rel_ram = Relation("R", ("A", "B"), [((i * 7) % 13, i % 5) for i in range(150)])
    flt_ram = Relation("S", ("B", "C"), [(i % 5, i) for i in range(40)])
    cluster = Cluster(p, backend="serial")
    group = cluster.root_group()
    rel = distribute_relation(rel_ram, group)
    flt = distribute_relation(flt_ram, group)
    rec = TraceRecorder()
    cluster.recorder = rec
    outs = (
        attach_degrees(group, rel, ("B",), "deg"),
        count_by_key(group, rel, ("A",), "cnt"),
        semi_join(group, rel, flt, "sj").parts,
    )
    cluster.recorder = None
    plan = rec.finish("prims", "join", "none", p, "serial")
    return plan, cluster.snapshot(), outs


class TestTrace:
    def test_charges_account_for_every_ledger_unit(self):
        plan, report, _ = _traced_primitives()
        assert plan.charged_units() == report.total
        assert len(plan.charges()) == report.steps

    def test_primitive_vocabulary_is_recorded(self):
        plan, _, _ = _traced_primitives()
        counts = plan.op_counts()
        for kind in ("AttachDegrees", "FoldByKey", "SemiJoin", "SampleSort"):
            assert counts.get(kind, 0) >= 1, counts
        assert counts.get("MapParts", 0) >= 1
        assert counts.get("Broadcast", 0) >= 1

    def test_spans_scope_their_steps(self):
        plan, _, _ = _traced_primitives()
        span = next(op for op in plan.ops if op.kind == "AttachDegrees")
        inner = plan.ops[span.start : span.end]
        assert any(op.kind == "SampleSort" for op in inner)
        assert all(
            op.path and op.path[0] == "AttachDegrees" for op in inner
        )

    def test_broadcast_charges_are_tagged(self):
        plan, _, _ = _traced_primitives()
        broadcasts = [op for op in plan.ops if isinstance(op, Broadcast)]
        assert broadcasts and all("splitters" in b.label or "bcast" in b.label
                                  for b in broadcasts)

    def test_recording_is_pure_observation(self):
        """Tracing must not change outputs or the ledger."""
        rel_ram = Relation("R", ("A", "B"), [(i % 9, i % 4) for i in range(120)])
        ref_cluster = Cluster(5, backend="serial")
        ref_group = ref_cluster.root_group()
        ref = count_by_key(ref_group, distribute_relation(rel_ram, ref_group), ("A",), "c")
        traced_cluster = Cluster(5, backend="serial")
        traced_cluster.recorder = TraceRecorder()
        traced_group = traced_cluster.root_group()
        got = count_by_key(
            traced_group, distribute_relation(rel_ram, traced_group), ("A",), "c"
        )
        traced_cluster.recorder = None
        assert got == ref
        assert traced_cluster.snapshot().as_dict() == ref_cluster.snapshot().as_dict()


class TestExecutor:
    def test_replay_ledger_is_bit_identical(self):
        plan, report, _ = _traced_primitives()
        fresh = Cluster(plan.p, backend="serial")
        stats = Executor(fresh).replay(plan)
        assert fresh.snapshot().as_dict() == report.as_dict()
        # One timed round per worker-local op, and a timing per op.
        n_map = plan.op_counts()["MapParts"]
        assert stats["map_ops"] == stats["backend_requests"] == n_map > 1
        timed = {i for i, op in enumerate(plan.ops) if op.kind == "MapParts"}
        timed |= {i for i, op in enumerate(plan.ops) if isinstance(op, Charge)}
        assert set(stats["op_timings"]) == timed

    def test_explain_mentions_ops_and_units(self):
        plan, _, _ = _traced_primitives()
        text = plan.explain()
        assert "SampleSort" in text and "MapParts" in text
        assert "units" in text
        assert "replay" not in text

    def test_explain_says_where_the_load_went(self):
        """The ledger line and ``LoadReport.summary`` carry one five-way
        split; a run already paid for in the execution reads ``reused``."""
        cluster = Cluster(6, backend="serial")
        group = cluster.root_group()
        rel = distribute_relation(
            Relation("R", ("A", "B"), [(i % 13, i % 5) for i in range(150)]), group
        )
        cluster.recorder = rec = TraceRecorder()
        attach_degrees(group, rel, ("B",), "deg")
        count_by_key(group, rel, ("B",), "cnt")
        cluster.recorder = None
        report = cluster.snapshot()
        text = rec.finish("prims", "join", "none", 6, "serial").explain()
        split = kind_split(report.by_label.items())
        assert f"charge steps: {split}" in text
        assert split in report.summary()
        assert split.split()[3] == "boundary=20"  # two stitch trips of p - 1 each way
        assert sum(int(kv.split("=")[1]) for kv in split.split()) == report.total
        assert "[SampleSort] run R[B] deg/count  units=" in text
        assert "[SampleSort] run R[B] cnt  reused" in text and "units=0" not in text


class TestRunOps:
    def test_run_ops_matches_map_parts_loop(self):
        from tests.test_backends import _len_part, _sort_part

        parts = [[(3, 1), (2, 2)], [(5, 0)], []]
        ops = [(_sort_part, parts, None, None), (_len_part, parts, "x", None)]
        for name in ("serial", "multiprocess"):
            backend = get_backend(name)
            got = backend.run_ops(ops)
            assert got == [
                backend.map_parts(_sort_part, parts),
                backend.map_parts(_len_part, parts, "x"),
            ], name

    def test_run_ops_counts_one_request_round(self):
        from tests.test_backends import _sort_part

        parts = [[(2, 1)], [(1, 9)]]
        for name in ("serial", "multiprocess"):
            backend = get_backend(name)
            before = backend.requests
            backend.run_ops([(_sort_part, parts, None, None)] * 3)
            assert backend.requests == before + 1, name

class TestEngineExplain:
    def _engine(self, **kwargs) -> Engine:
        eng = Engine(p=4, **kwargs)
        eng.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(60)]))
        eng.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(60)]))
        return eng

    Q = "Q(A,B,C) :- R1(A,B), R2(B,C)"

    def test_trace_plan_and_explain(self):
        eng = self._engine()
        plan = eng.trace_plan(self.Q)
        assert plan.charged_units() > 0
        assert plan.op_counts().get("MapParts", 0) >= 1
        text = eng.explain(self.Q)
        assert "physical plan" in text and "SampleSort" in text
        # The trace is taken on a scratch cluster: it charges what a cold
        # execution charges and leaves the serving session untouched.
        assert eng.stats().queries == 0
        res = eng.execute(self.Q)
        assert plan.charged_units() == res.report.total


class TestRecordingLRU:
    def _engine(self) -> Engine:
        eng = Engine(p=3)
        eng.register(Relation("R", ("A", "B"), [(i, i % 4) for i in range(40)]))
        eng.register(Relation("S", ("B", "C"), [(i % 4, i) for i in range(40)]))
        return eng

    def test_entry_bound_evicts_least_recent(self, monkeypatch):
        monkeypatch.setattr(session, "RESULT_CACHE_ENTRIES", 1)
        eng = self._engine()
        q1 = "Q(A,B) :- R(A,B)"
        q2 = "Q(B,C) :- S(B,C)"
        first = eng.execute(q1)
        eng.execute(q2)  # evicts q1's recording
        assert len(eng._recordings) == 1
        again = eng.execute(q1)  # falls back to a cold (re-recording) drive
        assert not again.metrics.result_cached
        assert again.report.as_dict() == first.report.as_dict()
        assert eng.execute(q1).metrics.result_cached  # re-recorded

    def test_byte_bound_is_enforced(self, monkeypatch):
        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", 1)  # nothing fits
        eng = self._engine()
        q = "Q(A,B,C) :- R(A,B), S(B,C)"
        eng.execute(q)
        assert len(eng._recordings) == 0
        again = eng.execute(q)
        assert not again.metrics.result_cached

    def test_dictionary_values_count_toward_the_recording_charge(self, monkeypatch):
        """Regression: pricing a dictionary column by its code array alone
        admitted a recording whose dictionary held a few large values
        (KBs of string/bytes per distinct value) at a tiny fraction of
        its resident size and blew the RESULT_CACHE_BYTES cap.  The
        charge is resident bytes -- code arrays plus the dictionary
        values the columns reference -- so the cap must reject such a
        recording outright."""
        import random

        rng = random.Random(11)
        blobs = [rng.randbytes(10_000) for _ in range(4)]  # incompressible
        rows = [(i, blobs[i % 4]) for i in range(100)]
        q = "Q(A,B) :- R(A,B)"

        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", 20_000)
        capped = Engine(p=3)
        capped.register(Relation("R", ("A", "B"), rows))
        capped.execute(q)
        # Resident size is ~40 KB of dictionary values over ~800 bytes of
        # code arrays.  The cap must hold.
        assert len(capped._recordings) == 0
        assert capped._recording_bytes == 0

        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", None)
        unbounded = Engine(p=3)
        unbounded.register(Relation("R", ("A", "B"), rows))
        unbounded.execute(q)
        assert unbounded._recording_bytes > 30_000  # dictionaries counted

    def test_charge_is_the_resident_size_of_emit_heavy_results(self, monkeypatch):
        """For OUT >> IN results (the ``cold_emit`` shapes: string cells,
        small join domains) the charge is within [1.0x, 1.25x] of what
        the recording holds: itemsize x length of every typed array plus
        ``sys.getsizeof`` of the dictionary values it references."""
        import sys

        from repro.data.generators import random_instance
        from repro.query import catalog

        wide = 900
        fork = random_instance(
            catalog.fork_join(), 90,
            {"A": wide, "B": 6, "C": 6, "D": wide, "E": wide}, seed=17,
        )
        pair = random_instance(
            catalog.binary_join(), 150, {"A": wide, "B": 5, "C": wide}, seed=7
        )
        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", None)
        eng = Engine(p=8)
        for prefix, inst in (("F", fork), ("S", pair)):
            for i, name in enumerate(sorted(inst.relations), 1):
                rel = inst.relations[name]
                eng.register(Relation(
                    f"{prefix}{i}", rel.attrs, [tuple(map(str, r)) for r in rel.rows]
                ))
        queries = (
            "Q(A,B,C,D,E) :- F1(A,B), F2(B,C), F3(C,D), F4(C,E)",
            "Q(A,B,C) :- S1(A,B), S2(B,C)",
            "Q(A,B,C,D) :- F1(A,B), F2(B,C), F3(C,D)",
            "Q(B,C,D,E) :- F2(B,C), F3(C,D), F4(C,E)",
        )
        for text in queries:
            res = eng.execute(text)
            assert res.output_size > 1000
            recording = eng._recordings[res.prepared.key]
            arrays, dictionaries = {}, {}
            for block in recording.relation.column_parts:
                for col in block.columns:
                    assert col.kind == "d" or not len(col)  # an empty part
                    arrays[id(col.data)] = col.data.itemsize * len(col.data)
                    dictionaries[id(col.dictionary)] = sum(
                        map(sys.getsizeof, col.dictionary or ())
                    )
            resident = sum(arrays.values()) + sum(dictionaries.values())
            assert resident <= recording.stored_bytes <= 1.25 * resident, text

    def test_unbounded_when_none(self, monkeypatch):
        monkeypatch.setattr(session, "RESULT_CACHE_ENTRIES", None)
        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", None)
        eng = self._engine()
        for q in ("Q(A,B) :- R(A,B)", "Q(B,C) :- S(B,C)", "Q(A,B,C) :- R(A,B), S(B,C)"):
            eng.execute(q)
        assert len(eng._recordings) == 3
        assert eng._recording_bytes > 0

    def test_oversized_recording_does_not_flush_the_cache(self, monkeypatch):
        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", 10_000)
        eng = self._engine()
        small = "Q(A,B) :- R(A,B)"
        eng.execute(small)

        def recorded() -> set[str]:
            return {e.parsed.text for e in eng.prepared_queries()
                    if e.key in eng._recordings}

        assert small in recorded()
        # Shrink the budget so the next (larger) recording alone exceeds
        # it: the small query's recording must survive untouched.
        monkeypatch.setattr(session, "RESULT_CACHE_BYTES", 1)
        eng.execute("Q(A,B,C) :- R(A,B), S(B,C)")
        kept = recorded()
        assert small in kept
        assert "Q(A,B,C) :- R(A,B), S(B,C)" not in kept

    def test_register_drops_stale_recordings(self):
        eng = self._engine()
        q = "Q(A,B) :- R(A,B)"
        eng.execute(q)
        entry = next(e for e in eng.prepared_queries() if e.parsed.text == q)
        assert entry.key in eng._recordings
        eng.register(Relation("R", ("A", "B"), [(i, i % 3) for i in range(50)]))
        assert entry.key not in eng._recordings

    def test_clear_caches_resets_the_lru(self):
        eng = self._engine()
        eng.execute("Q(A,B) :- R(A,B)")
        eng.clear_caches()
        assert len(eng._recordings) == 0 and eng._recording_bytes == 0


def test_cli_explain_smoke(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "R1.csv").write_text("A,B\n1,2\n2,3\n")
    (tmp_path / "R2.csv").write_text("B,C\n2,5\n3,6\n")
    rc = main([
        "explain", "Q(A,B,C) :- R1(A,B), R2(B,C)", str(tmp_path), "-p", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "physical plan" in out
    assert "MapParts" in out and "units" in out


# ----------------------------------------------------------------------
# The serving fence: no path that serves a request records a trace
# ----------------------------------------------------------------------

def _refuse_tracing(monkeypatch):
    def refuse(self):
        raise AssertionError("a trace was recorded")

    monkeypatch.setattr(TraceRecorder, "__init__", refuse)


@pytest.mark.parametrize(
    "workload", ["cold_emit", "cold_reduce", "paper_hard", "serve_churn"]
)
def test_serving_path_never_records_a_trace(monkeypatch, workload):
    """register, prepare, a cold execute, a cached hit and a
    ``result_cache=False`` re-drive on every harness deck stay off the
    trace recorder; ``explain`` still traces once the fence is down."""
    from tests.conformance.test_golden_plans import _decks_module

    deck = _decks_module().build_deck(workload, small=True)
    _refuse_tracing(monkeypatch)
    engine = Engine(deck.p, "serial")
    for name, (attrs, variants) in deck.relations.items():
        engine.register(Relation(name, attrs, variants[0]), name=name)
    for query in deck.queries:
        engine.prepare(query)
    cold = {q: engine.execute(q).report.as_dict() for q in deck.queries}
    for query in deck.queries:
        hit = engine.execute(query)
        assert hit.metrics.result_cached and hit.report.as_dict() == cold[query]
    engine.result_cache = False
    for query in deck.queries:
        redrive = engine.execute(query)
        assert not redrive.metrics.result_cached
        assert redrive.report.as_dict() == cold[query]
    # The fence is live: explain does reach it ...
    with pytest.raises(AssertionError, match="trace was recorded"):
        engine.explain(deck.queries[0])
    # ... and renders once it is down.
    monkeypatch.undo()
    assert "physical plan" in engine.explain(deck.queries[0])
    assert "wall=" in engine.explain(deck.queries[0], timings=True)


def test_a_fault_the_pool_absorbs_never_records_a_trace(monkeypatch):
    """The pool's inline rerun after a chaos-injected kill serves untraced."""
    from repro.mpc.backends import FaultInjectingBackend, MultiprocessBackend

    _refuse_tracing(monkeypatch)
    chaos = FaultInjectingBackend(
        inner=MultiprocessBackend(workers=1, retry_budget=0, backoff_base=0.0),
        seed=3, rate=1.0, kinds=("kill",),
    )
    try:
        engine = Engine(p=4, backend=chaos)
        engine.register(Relation("R1", ("A", "B"), [(i, i % 5) for i in range(60)]))
        engine.register(Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(60)]))
        res = engine.execute("Q(A,B,C) :- R1(A,B), R2(B,C)")
        assert res.ok and res.metrics.fault_events > 0
        assert chaos.fault_stats()["inline_degradations"] > 0
    finally:
        chaos.close()
