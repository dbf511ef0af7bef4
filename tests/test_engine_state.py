"""The engine as a state machine.

``register``'s one validity rule, the plan cache with its undecided
picks, the recordings LRU and the distributed-relation cache interact;
hypothesis walks them together.  Steps register data (the rows a relation
already holds, new rows, or the line trap that flips ``auto``'s pick off
``yannakakis``), execute the line-3 join, a two-atom join and a grouped
count under three algorithm requests and a two-component join (one row,
three or none in its lone ``R4``) under ``auto`` and ``yannakakis``, miss
a deadline, clear the caches and bound the recordings LRU to one entry.
After every execution:

* the rows equal the RAM oracle on the engine's current data;
* the ledger equals a one-shot run of the algorithm and plan the entry
  holds (a state leak shows as an under-charge);
* the fold order and the pick the entry holds are those the planner
  prices on the current data;
* a served recording never follows a ``register`` of a relation it read
  unless a cold run of the same request came in between;
* the first request after a ``register`` of a relation it reads is a
  plan-cache miss on a new entry.

A ``register`` drops the plan entry and the recording of every request
that reads the relation, and leaves every other entry and recording as
it was.

After every step, every recording lives under a plan entry's key, and
right after a ``register`` the distributed-relation cache holds nothing
of the registered relation.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.planner import choose, price_fold_orders
from repro.core.runner import mpc_join, mpc_join_aggregate
from repro.data.generators import line_trap_instance, random_instance
from repro.data.relation import Relation
from repro.engine import Engine, parse_query, session
from repro.errors import DeadlineExceeded
from repro.ram import group_by_count
from repro.ram.yannakakis import yannakakis as ram_yannakakis
from repro.semiring import COUNT

P = 8
TRAP = line_trap_instance(3, 600, 6000, doubled=True)
#: ``R4(A)`` is a component of its own: one row, three, or none.
LONE = {"uniform": [(1,)], "shifted": [(1,), (2,), (3,)], "trap": []}
DATA = {
    "uniform": random_instance(TRAP.query, 200, 40, seed=3),
    "shifted": random_instance(TRAP.query, 200, 40, seed=4),
    "trap": TRAP,
}
DISCONNECTED = "Q(X0,X1,X2,X9) :- R1(X0,X1), R2(X1,X2), R4(X9)"
QUERIES = (
    "Q(X0,X1,X2,X3) :- R1(X0,X1), R2(X1,X2), R3(X2,X3)",
    "Q(X0,X1,X2) :- R1(X0,X1), R2(X1,X2)",
    "Q(X1; count) :- R1(X0,X1), R2(X1,X2)",
    DISCONNECTED,
)
ALGORITHMS = ("auto", "yannakakis", "acyclic")
REQUESTS = tuple(
    (text, alg) for text in QUERIES for alg in ALGORITHMS
    if text != DISCONNECTED or alg != "acyclic"
)
BOUND = session.RESULT_CACHE_ENTRIES
PARSED = {text: parse_query(text) for text in QUERIES}
READS = {text: {b.relation for b in PARSED[text].bindings} for text in QUERIES}


def _relation(name: str, data: str) -> Relation:
    if name == "R4":
        return Relation("R4", ("A",), LONE[data])
    rel = DATA[data].relations[name]
    return Relation(name, rel.attrs, rel.rows)


class EngineMachine(RuleBasedStateMachine):
    @initialize()
    def start(self) -> None:
        self.engine = Engine(p=P, backend="serial")
        #: (text, algorithm) requests whose data moved since their last
        #: cold run: none of them may be served from a recording.
        self.stale: set[tuple[str, str]] = set()
        #: Requests a ``register`` touched, mapped to the plan entry they
        #: had before it (or ``None``): the next one must not be served it.
        self.dropped: dict[tuple[str, str], object] = {}
        self.register(("R1", "R2", "R3", "R4"), "uniform")
        self.last = (QUERIES[0], "auto")

    @rule(
        names=st.sampled_from(
            [("R1",), ("R2",), ("R3",), ("R4",), ("R1", "R2", "R3", "R4")]
        ),
        data=st.sampled_from(sorted(DATA)),
    )
    def register(self, names: tuple[str, ...], data: str) -> None:
        """The same rows when ``names`` hold ``data`` already, new rows
        otherwise; R1-R3 from ``trap`` flip the pick."""
        touched = {r for r in REQUESTS if READS[r[0]] & set(names)}
        entries = {r: self._entry(*r) for r in REQUESTS}
        recorded = {r for r in REQUESTS if self._key(*r) in self.engine._recordings}
        for request in touched:
            self.dropped.setdefault(request, entries[request])
        for name in names:
            self.engine.register(_relation(name, data))
            assert not any(k[0] == name for k in self.engine._dist_cache)
        for request in REQUESTS:
            key = self._key(*request)
            if request in touched:
                assert key not in self.engine._plans
                assert key not in self.engine._recordings
            else:
                assert self._entry(*request) is entries[request]
                assert (key in self.engine._recordings) == (request in recorded)
        self.stale |= touched

    def _key(self, text: str, algorithm: str):
        return self.engine._plan_key(PARSED[text], algorithm)

    def _entry(self, text: str, algorithm: str):
        """The plan entry the engine holds for a request, if any."""
        return self.engine._plans.get(self._key(text, algorithm))

    @rule(request=st.sampled_from([r for r in REQUESTS if r[0] != DISCONNECTED]))
    def run(self, request: tuple[str, str]) -> None:
        self.execute(*request)

    @rule(algorithm=st.sampled_from(["auto", "yannakakis"]))
    def run_disconnected(self, algorithm: str) -> None:
        self.execute(DISCONNECTED, algorithm)

    @rule(algorithm=st.sampled_from(["auto", "yannakakis"]), data=st.sampled_from(sorted(LONE)))
    def swap_lone(self, algorithm: str, data: str) -> None:
        """Serve the two-component join, then register its lone ``R4``:
        that entry and its recording go, entries not reading R4 stay."""
        self.execute(DISCONNECTED, algorithm)
        assert self._entry(DISCONNECTED, algorithm) is not None
        self.register(("R4",), data)

    def execute(self, text: str, algorithm: str) -> None:
        self.last = (text, algorithm)
        res = self.engine.execute(text, algorithm=algorithm)
        parsed, entry = res.prepared.parsed, res.prepared
        if (text, algorithm) in self.dropped:
            old = self.dropped.pop((text, algorithm))
            assert not res.metrics.cache_hit and entry is not old
        instance = self.engine.instance_for(parsed)
        if parsed.kind == "join":
            assert sorted(res.rows()) == sorted(ram_yannakakis(instance).rows)
            one_shot = mpc_join(
                parsed.query, instance, P, entry.algorithm, plan=entry.plan_order
            )
        else:
            assert dict(zip(res.relation.rows, res.relation.annotations)) == (
                group_by_count(instance, parsed.output_attrs)
            )
            one_shot = mpc_join_aggregate(
                parsed.query, parsed.output_attrs,
                instance.with_uniform_annotations(COUNT), COUNT, P,
                algorithm=entry.algorithm,
            )
        assert res.report.as_dict() == one_shot.report.as_dict()
        if entry.plan_order is not None:
            fold, quality = price_fold_orders(parsed.query, instance, P)
            assert (entry.plan_order, entry.plan_quality) == (fold.order, quality)
        if parsed.kind == "join" and algorithm == "auto":
            choice = choose(parsed.query, instance, P)
            assert (entry.algorithm, entry.units) == (choice.algorithm, choice.units)
        if res.metrics.result_cached:
            assert (text, algorithm) not in self.stale
        else:
            self.stale.discard((text, algorithm))

    @rule()
    def repeat(self) -> None:
        """The last request again: after a ``register`` it compiles a new
        entry."""
        self.execute(*self.last)

    @rule(text=st.sampled_from(QUERIES))
    def miss_deadline(self, text: str) -> None:
        failures = self.engine.stats().failures
        with pytest.raises(DeadlineExceeded):
            self.engine.execute(text, deadline=0)
        assert self.engine.stats().failures == failures + 1
        # The failed call compiled its entry before it missed.
        if (text, "auto") in self.dropped:
            assert self._entry(text, "auto") is not self.dropped.pop((text, "auto"))

    @rule()
    def clear_caches(self) -> None:
        self.engine.clear_caches()

    @invariant()
    def recordings_live_under_plan_keys(self) -> None:
        assert set(self.engine._recordings) <= set(self.engine._plans)

    @rule(entries=st.sampled_from([1, BOUND]))
    def bound_recordings(self, entries: int) -> None:
        """With one entry, every recording evicts the one before it."""
        session.RESULT_CACHE_ENTRIES = entries

    def teardown(self) -> None:
        session.RESULT_CACHE_ENTRIES = BOUND


TestEngineState = EngineMachine.TestCase
TestEngineState.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None, derandomize=True
)
