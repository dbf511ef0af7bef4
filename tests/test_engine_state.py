"""The engine as a state machine.

Catalog versions, the plan cache with its undecided picks, the recordings
LRU and the distributed-relation cache interact; hypothesis walks them
together.  Steps register data (the rows a relation already holds, new
rows, or the line trap that flips ``auto``'s pick off ``yannakakis``),
execute the line-3 join, a two-atom join and a grouped count under three
algorithm requests, miss a deadline, clear the caches and bound the
recordings LRU to one entry.  After every execution:

* the rows equal the RAM oracle on the engine's current data;
* the ledger equals a one-shot run of the algorithm and plan the entry
  holds (a state leak shows as an under-charge);
* the fold order and the pick the entry holds are those the planner
  prices on the current data;
* a served recording never follows a ``register`` of a relation it read
  unless a cold run of the same request came in between.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

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
DATA = {
    "uniform": random_instance(TRAP.query, 200, 40, seed=3),
    "shifted": random_instance(TRAP.query, 200, 40, seed=4),
    "trap": TRAP,
}
QUERIES = (
    "Q(X0,X1,X2,X3) :- R1(X0,X1), R2(X1,X2), R3(X2,X3)",
    "Q(X0,X1,X2) :- R1(X0,X1), R2(X1,X2)",
    "Q(X1; count) :- R1(X0,X1), R2(X1,X2)",
)
ALGORITHMS = ("auto", "yannakakis", "acyclic")
BOUND = session.RESULT_CACHE_ENTRIES
READS = {text: {b.relation for b in parse_query(text).bindings} for text in QUERIES}


class EngineMachine(RuleBasedStateMachine):
    @initialize()
    def start(self) -> None:
        self.engine = Engine(p=P, backend="serial")
        #: (text, algorithm) requests whose data moved since their last
        #: cold run: none of them may be served from a recording.
        self.stale: set[tuple[str, str]] = set()
        self.register(("R1", "R2", "R3"), "uniform")
        self.last = (QUERIES[0], "auto")

    @rule(
        names=st.sampled_from([("R1",), ("R2",), ("R3",), ("R1", "R2", "R3")]),
        data=st.sampled_from(sorted(DATA)),
    )
    def register(self, names: tuple[str, ...], data: str) -> None:
        """The same rows when ``names`` hold ``data`` already, new rows
        otherwise; all three from ``trap`` flip the pick."""
        for name in names:
            rel = DATA[data].relations[name]
            self.engine.register(Relation(name, rel.attrs, rel.rows))
        self.stale |= {
            (text, alg) for text in QUERIES for alg in ALGORITHMS
            if READS[text] & set(names)
        }

    @rule(text=st.sampled_from(QUERIES), algorithm=st.sampled_from(ALGORITHMS))
    def execute(self, text: str, algorithm: str) -> None:
        self.last = (text, algorithm)
        res = self.engine.execute(text, algorithm=algorithm)
        parsed, entry = res.prepared.parsed, res.prepared
        instance = self.engine.instance_for(parsed)
        if parsed.kind == "join":
            assert sorted(res.rows()) == sorted(ram_yannakakis(instance).rows)
            one_shot = mpc_join(
                parsed.query, instance, P, entry.algorithm, plan=entry.plan
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
            fold, quality = price_fold_orders(parsed.query, instance)
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
        """The last request again: after a ``register`` it revalidates."""
        self.execute(*self.last)

    @rule(text=st.sampled_from(QUERIES))
    def miss_deadline(self, text: str) -> None:
        failures = self.engine.stats().failures
        with pytest.raises(DeadlineExceeded):
            self.engine.execute(text, deadline=0)
        assert self.engine.stats().failures == failures + 1

    @rule()
    def clear_caches(self) -> None:
        self.engine.clear_caches()

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
