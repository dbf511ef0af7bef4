"""The one record of an execution: primitive spans and ``explain``; the
backend's ``run_ops``; the recording LRU; and the fence that keeps an
untraced execution from opening any span."""

from __future__ import annotations

import re

import pytest

from repro.data.relation import Relation
from repro.engine import Engine, session
from repro.engine.explain import render
from repro.mpc import Cluster, distribute_relation
from repro.mpc.backends import get_backend
from repro.mpc.cluster import kind_split
from repro.mpc.primitives import attach_degrees, count_by_key, semi_join
from repro.obs import Span, SpanSink, Tracer
from tests.conformance.conftest import GRID


def _traced(run, p: int = 6):
    """``run(group)`` on a fresh serial cluster under a collecting tracer;
    returns (outputs, span records, report)."""
    cluster = Cluster(p, backend="serial")
    group = cluster.root_group()
    sink = SpanSink(capacity=1 << 16)
    with Tracer(sink).span("explain", query="prims", wire=0) as root:
        cluster.obs_span = root
        out = run(group)
    cluster.obs_span = None
    return out, sink.records(), cluster.snapshot()


def _mixed(group):
    rel = distribute_relation(
        Relation("R", ("A", "B"), [((i * 7) % 13, i % 5) for i in range(150)]), group
    )
    flt = distribute_relation(
        Relation("S", ("B", "C"), [(i % 5, i) for i in range(40)]), group
    )
    return (
        attach_degrees(group, rel, ("B",), "deg"),
        count_by_key(group, rel, ("A",), "cnt"),
        semi_join(group, rel, flt, "sj").parts,
    )


def _children(records, parent):
    return [r for r in records if r["parent"] == parent["span"]]


def _root(records):
    return next(r for r in records if r["parent"] is None)


def _top_level_units(text: str) -> list[int]:
    """The units of explain's top-level lines (a ``reused`` run posts 0)."""
    return [
        int(units or 0)
        for units in re.findall(r"^  [\[(].*?(?:  units=(\d+)|  reused)", text, re.M)
    ]


class TestPrimitiveSpans:
    def test_spans_account_for_every_ledger_unit(self):
        _, records, report = _traced(_mixed)
        top = _children(records, _root(records))
        assert top and all(r["name"].startswith("prim.") for r in top)
        assert sum(r["attrs"]["units"] for r in top) == report.total
        assert sum(r["attrs"]["steps"] for r in top) == report.steps

    def test_primitive_vocabulary_is_recorded(self):
        _, records, _ = _traced(_mixed)
        names = {r["name"] for r in records}
        for kind in ("AttachDegrees", "FoldByKey", "SemiJoin", "MatchKeys", "SampleSort"):
            assert f"prim.{kind}" in names, names

    def test_spans_nest_and_parents_hold_their_children(self):
        _, records, _ = _traced(_mixed)
        deg = next(r for r in records if r["name"] == "prim.AttachDegrees")
        assert any(c["name"] == "prim.SampleSort" for c in _children(records, deg))
        for rec in records:
            if rec["name"].startswith("prim."):
                inner = _children(records, rec)
                assert sum(c["attrs"]["units"] for c in inner) <= rec["attrs"]["units"]

    def test_tracing_is_pure_observation(self):
        """A traced run posts the ledger and returns the outputs an
        untraced one does."""
        cluster = Cluster(6, backend="serial")
        want = _mixed(cluster.root_group())
        got, _, report = _traced(_mixed)
        assert got == want
        assert report.as_dict() == cluster.snapshot().as_dict()

    def test_explain_says_where_the_load_went(self):
        """The ledger line and ``LoadReport.summary`` carry one five-way
        split; a run already paid for in the execution reads ``reused``."""

        def run(group):
            rel = distribute_relation(
                Relation("R", ("A", "B"), [(i % 13, i % 5) for i in range(150)]), group
            )
            attach_degrees(group, rel, ("B",), "deg")
            count_by_key(group, rel, ("B",), "cnt")

        _, records, report = _traced(run)
        text = render(records, report, "head", timings=False)
        split = kind_split(report.by_label.items())
        assert f"  ledger: {report.total} units over {report.steps} steps: {split}" in text
        assert split in report.summary()
        assert split.split()[3] == "boundary=20"  # two stitch trips of p - 1 each way
        assert sum(int(kv.split("=")[1]) for kv in split.split()) == report.total
        assert "[SampleSort] run R[B] deg/count  units=" in text
        assert "[SampleSort] run R[B] cnt  reused" in text
        # Every unit is posted inside a primitive, and no line but the
        # outside one reads ``units=0`` (a reused run prints once).
        zero = [line for line in text.splitlines() if "units=0" in line]
        assert zero == ["  (outside primitives)  units=0"]
        assert sum(_top_level_units(text)) == report.total
        assert "wall=" not in text


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

    def test_explain_runs_on_a_scratch_cluster(self):
        eng = self._engine()
        text = eng.explain(self.Q)
        assert text.startswith(f"explain: {self.Q}") and "[SampleSort]" in text
        # The run is on a scratch cluster: it posts what a cold execution
        # posts and leaves the serving session untouched.
        assert eng.stats().queries == 0
        res = eng.execute(self.Q)
        assert sum(_top_level_units(text)) == res.report.total
        assert f"  ledger: {res.report.total} units over {res.report.steps} steps" in text


def _grid_query(cell):
    """An engine, query text and algorithm that run ``cell``'s instance."""
    query, instance, extra = cell.build(1)
    body = ", ".join(
        f"{name}({','.join(rel.attrs)})" for name, rel in instance.relations.items()
    )
    if cell.kind == "join":
        head, algorithm = f"Q({','.join(sorted(query.attributes))})", extra
    elif cell.kind == "aggregate":
        head, algorithm = f"Q({','.join(extra[0])}; count)", "auto"
    else:
        head, algorithm = f"Q({','.join(extra)})", "auto"
    engine = Engine(p=cell.p, result_cache=False)
    for name, rel in instance.relations.items():
        engine.register(rel, name=name)
    return engine, f"{head} :- {body}", algorithm


@pytest.mark.parametrize("cell", GRID, ids=[c.name for c in GRID])
def test_explain_top_level_units_sum_to_the_report(cell, monkeypatch):
    """On every algorithm of the conformance grid, explain's top-level
    lines (primitives and the units posted outside them) sum to the
    ledger total of an execution of the same query, and the outside
    line's split by label is what the traced run posted while no
    primitive span was open."""
    engine, text, algorithm = _grid_query(cell)
    posted_outside: dict[str, int] = {}
    tally = Cluster.tally_members

    def spy(self, members, counts, label):
        span = self.obs_span
        if span is not None and not span.name.startswith("prim."):
            units = sum(counts) * len(members)
            posted_outside[label] = posted_outside.get(label, 0) + units
        tally(self, members, counts, label)

    monkeypatch.setattr(Cluster, "tally_members", spy)
    explained = engine.explain(text, algorithm)
    monkeypatch.undo()
    report = engine.execute(text, algorithm).report
    assert sum(_top_level_units(explained)) == report.total, explained
    assert f"  ledger: {report.total} units over {report.steps} steps" in explained
    rendered = {
        label: int(units)
        for label, units in re.findall(r"^    ([^\s\[]\S*)  units=(-?\d+)$", explained, re.M)
    }
    assert rendered == {k: v for k, v in posted_outside.items() if v}, explained
    outside = re.search(r"^  \(outside primitives\)  units=(\d+)", explained, re.M)
    assert int(outside.group(1)) == sum(posted_outside.values())


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
    assert out.startswith("explain: Q(A,B,C) :- R1(A,B), R2(B,C)")
    assert "[SampleSort]" in out and "(outside primitives)  units=" in out


# ----------------------------------------------------------------------
# The serving fence: an untraced execution opens no span
# ----------------------------------------------------------------------

def _refuse_spans(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a span was opened")

    monkeypatch.setattr(Span, "__init__", refuse)


@pytest.mark.parametrize(
    "workload", ["cold_emit", "cold_reduce", "paper_hard", "serve_churn"]
)
def test_untraced_serving_opens_no_span(monkeypatch, workload):
    """register, prepare, a cold execute, a cached hit and a
    ``result_cache=False`` re-drive on every harness deck open no span on
    an untraced engine; ``explain`` opens its own once the fence is down."""
    from tests.conformance.test_golden_plans import _decks_module

    deck = _decks_module().build_deck(workload, small=True)
    _refuse_spans(monkeypatch)
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
    with pytest.raises(AssertionError, match="span was opened"):
        engine.explain(deck.queries[0])
    # ... and renders once it is down.
    monkeypatch.undo()
    assert engine.explain(deck.queries[0]).startswith("explain: ")
    assert "wall=" in engine.explain(deck.queries[0], timings=True)


def test_a_fault_the_pool_absorbs_opens_no_span(monkeypatch):
    """The pool's inline rerun after a chaos-injected kill serves untraced."""
    from repro.mpc.backends import FaultInjectingBackend, MultiprocessBackend

    _refuse_spans(monkeypatch)
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
