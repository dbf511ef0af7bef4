"""``auto`` runs the candidate with the least predicted load.

:func:`repro.core.planner.choose` prices every applicable algorithm in RAM
and picks the cheapest.  Here each pick is held against measured ledgers:
on every full join of the four harness decks (full size), the Section 4.1
traps and the grid's ``binary/uniform/auto`` cell, every candidate runs,
and the chosen one must move no more than the class's paper algorithm
(what ``auto`` ran before it priced) and at most 5 % more than the best.

The pricer's placement rules were fitted on those cases, so the same
check also runs on held-out ones: the grid's other acyclic join cells, the
traps the fitted set leaves out, and seeded random instances at ``p = 4``.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

from repro.core import planner
from repro.core.planner import candidates, choose
from repro.core.runner import auto_algorithm, mpc_join
from repro.data.generators import line_trap_instance, random_instance
from repro.engine import Engine, parse_query, session
from repro.query import catalog
from tests.conformance import conftest as grid
from tests.conformance import test_golden_plans as golden


def _deck_full_joins() -> list[str]:
    cases = []
    for workload in golden.WORKLOADS:
        deck, _engine = golden._deck_engine(workload, "full")
        cases += [
            f"deck/{workload}/full/{i}"
            for i, text in enumerate(deck.queries) if text in deck.full_joins
        ]
    return cases


DOUBLED_TRAPS = ("trap/line3-doubled", "trap/line4-doubled", "trap/yannakakis-doubled")
CASES = (*_deck_full_joins(), *DOUBLED_TRAPS, "grid/binary/uniform/auto")

#: Seeded random instances at p = 4: (query, rows per relation, domain).
RANDOM_SHAPES = {
    "line3": (catalog.line3, 400, 30),
    "star3": (lambda: catalog.star_join(3), 300, 25),
    "fork": (catalog.fork_join, 200, 10),
    "q2": (catalog.q2_r_hierarchical, 200, 15),
}
HELD_OUT = (
    *(
        f"grid/{cell.name}" for cell in grid.GRID
        if cell.kind == "join" and cell.name != "binary/uniform/auto"
    ),
    "trap/line3-forward",
    "trap/line3-backward",
    "trap/broom-embed-line3",
    *(f"random/{shape}/{seed}" for seed in (1, 2) for shape in RANDOM_SHAPES),
)
#: Held-out cases where the pick moves more than 5 % above the least
#: measured load, with that ratio: the pricer's known misses.  Pinned, so
#: that a pricer change which mends or worsens one shows here.  None at
#: present: ``grid/line3/trap/line3`` (1.154x) picks the least since the
#: binary join sorts once.
KNOWN_MISSES: dict[str, float] = {}


def _build(name: str) -> tuple:
    """``(query, instance, p)`` for a case name."""
    family, _, rest = name.partition("/")
    if family == "random":
        shape, seed = rest.split("/")
        make, rows, domain = RANDOM_SHAPES[shape]
        query = make()
        return query, random_instance(query, rows, domain, seed=int(seed)), 4
    query, instance = golden.build_case(name)
    if family == "deck":
        return query, instance, golden._deck_engine(rest.split("/")[0], "full")[0].p
    if family == "grid":
        return query, instance, next(c.p for c in grid.GRID if c.name == rest)
    return query, instance, 8


@functools.lru_cache(maxsize=None)
def _measured(name: str) -> tuple:
    query, instance, p = _build(name)
    choice = choose(query, instance, p)
    loads = {
        algo: mpc_join(query, instance, p, algo, plan=choice.plan.order).report.load
        for algo in candidates(query)
    }
    return query, choice, loads


def test_the_cases_are_the_decks_fourteen_full_joins():
    assert len(CASES) == 14 + 4


@pytest.mark.parametrize("name", CASES)
def test_choice_moves_no_more_than_the_class_pick_and_near_the_least(name):
    query, choice, loads = _measured(name)
    assert set(choice.units) == set(loads)
    chosen = loads[choice.algorithm]
    assert chosen <= loads[auto_algorithm(query)]
    assert chosen <= 1.05 * min(loads.values())


@pytest.mark.parametrize("name", DOUBLED_TRAPS)
def test_the_figure_3_crossover_survives(name):
    """On the doubled traps every fold order shuffles an OUT-sized
    intermediate: the heavy/light algorithms win, not Yannakakis."""
    _query, choice, _loads = _measured(name)
    assert choice.algorithm in ("line3", "acyclic")


@pytest.mark.parametrize("name", HELD_OUT)
def test_held_out_choice_is_near_the_least(name):
    query, choice, loads = _measured(name)
    chosen = loads[choice.algorithm]
    ratio = chosen / min(loads.values())
    if name in KNOWN_MISSES:
        assert ratio == pytest.approx(KNOWN_MISSES[name], abs=5e-4)
    else:
        assert chosen <= loads[auto_algorithm(query)]
        assert ratio <= 1.05


def _engine_on(instance, p: int = 8) -> Engine:
    engine = Engine(p=p)
    for rel in instance.relations.values():
        engine.register(rel)
    return engine


TEXT = "Q(X0,X1,X2,X3) :- R1(X0,X1), R2(X1,X2), R3(X2,X3)"


def _uniform():
    trap = line_trap_instance(3, 600, 6000, doubled=True)
    return random_instance(trap.query, 200, 40, seed=3)


@pytest.mark.parametrize(
    "build, winner",
    [(_uniform, "yannakakis"), (lambda: line_trap_instance(3, 600, 6000, doubled=True), "line3")],
    ids=["yannakakis-wins", "line3-wins"],
)
def test_engine_and_one_shot_run_the_same_choice(build, winner):
    instance = build()
    engine = _engine_on(instance)
    served = engine.execute(TEXT)
    parsed = parse_query(TEXT)
    one_shot = mpc_join(parsed.query, engine.instance_for(parsed), 8, "auto")
    assert served.prepared.algorithm == one_shot.meta["algorithm"] == winner
    assert served.report.as_dict() == one_shot.report.as_dict()
    assert served.relation.parts == one_shot.relation.parts


def test_a_register_that_flips_the_choice_compiles_a_new_entry():
    engine = _engine_on(_uniform(), p=8)
    first = engine.execute(TEXT)
    assert first.prepared.algorithm == "yannakakis"
    for rel in line_trap_instance(3, 600, 6000, doubled=True).relations.values():
        engine.register(rel)
    res = engine.execute(TEXT)
    assert not res.metrics.cache_hit and res.prepared is not first.prepared
    assert res.prepared.algorithm == "line3"
    # A register that keeps the choice is a miss on a new entry too.
    engine.register(line_trap_instance(3, 600, 6000, doubled=True).relations["R2"])
    again = engine.execute(TEXT)
    assert not again.metrics.cache_hit and again.prepared is not res.prepared
    assert again.prepared.algorithm == "line3"


def test_concurrent_readers_take_a_pending_choice_once(monkeypatch):
    """A prepared entry's pick is taken on first read; readers racing for
    it (outside the engine lock) share one pricing."""
    calls = []

    def slow_choose(*args):
        calls.append(args)
        time.sleep(0.05)
        return planner.choose(*args)

    monkeypatch.setattr(session, "choose", slow_choose)
    entry = _engine_on(_uniform()).prepare(TEXT)
    assert calls == []
    picks = []
    readers = [threading.Thread(target=lambda: picks.append(entry.algorithm)) for _ in range(4)]
    for t in readers:
        t.start()
    for t in readers:
        t.join()
    assert picks == ["yannakakis"] * 4
    assert len(calls) == 1
    assert entry.units == entry.choice.units
