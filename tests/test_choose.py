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
from repro.core.planner import candidates, choose, enumerate_fold_orders
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
#: that a pricer change which mends or worsens one shows here.  Empty since
#: the pricer places rows where the algorithms put them: the grid's two
#: fork cells, the last misses, priced their last join's light rows (an
#: intermediate's) as a full move, 1127 units where 322 are measured.
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
    query, _instance, _p = _build(name)
    choice = _choice(name)
    loads = {algo: _run(name, algo, choice.plan.order).load for algo in candidates(query)}
    return query, choice, loads


@functools.lru_cache(maxsize=None)
def _choice(name: str):
    return choose(*_build(name))


@functools.lru_cache(maxsize=None)
def _run(name: str, algo: str, order: tuple[str, ...] | None):
    """The measured ``LoadReport`` of ``algo`` (Yannakakis along
    ``order``) on a case."""
    query, instance, p = _build(name)
    return mpc_join(query, instance, p, algo, plan=order).report


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
    intermediate: no fold order beats the heavy/light algorithms by more
    than 2 %, and the pick is the least measured load over every candidate
    and fold order.  On the two line traps that is a heavy/light
    algorithm.  On the Yannakakis trap at this size it is Yannakakis at
    R2 R3 R1, 843 against ``line3``'s 859 (its other orders measure 850 to
    865): the crossover is a tie there, and ``auto`` takes the least."""
    _query, choice, loads = _measured(name)
    least = _least_over_orders(name)
    assert loads[choice.algorithm] == least
    assert min(loads[a] for a in ("line3", "acyclic") if a in loads) <= 1.02 * least
    if name != "trap/yannakakis-doubled":
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


def test_the_picks_sum_no_higher_than_when_light_groups_stayed_put():
    """The picks' measured loads over every case: 30,026 while light
    groups went to ``gid % p``, 27,934 once they stayed on the server the
    sort put them on, 26,809 once the pricer places rows where the
    algorithms put them and ranks fold orders by predicted load (the least
    over every candidate and fold order is 26,453)."""
    picked = [loads[choice.algorithm] for _q, choice, loads in map(_measured, CASES + HELD_OUT)]
    assert len(picked) == 37
    assert sum(picked) <= 26_809

#: The order oracle: per case, the pick's measured load and the least
#: measured load over every candidate, Yannakakis at every enumerated fold
#: order.  ``test_choice_moves_no_more_than_the_class_pick_and_near_the_least``
#: measures the candidates at the priced order only, so an order the pricer
#: ranks wrongly shows here and nowhere else.  Pinned: a pricer change that
#: mends or worsens a case moves its pair.  In all, 26,809 against 26,453
#: (27,934 when orders were ranked by their largest intermediate).
ORDER_ORACLE: dict[str, tuple[int, int]] = {
    "deck/cold_emit/full/0": (1350, 1350),
    "deck/cold_emit/full/1": (389, 372),
    "deck/cold_emit/full/2": (851, 628),
    "deck/cold_emit/full/3": (413, 412),
    "deck/cold_reduce/full/0": (1470, 1457),
    "deck/cold_reduce/full/1": (663, 661),
    "deck/cold_reduce/full/2": (788, 788),
    "deck/paper_hard/full/0": (613, 613),
    "deck/paper_hard/full/1": (650, 646),
    "deck/paper_hard/full/2": (971, 957),
    "deck/paper_hard/full/3": (186, 186),
    "deck/serve_churn/full/0": (226, 226),
    "deck/serve_churn/full/1": (237, 237),
    "deck/serve_churn/full/2": (540, 537),
    "trap/line3-doubled": (2106, 2106),
    "trap/line4-doubled": (2534, 2534),
    "trap/yannakakis-doubled": (843, 843),
    "grid/binary/uniform/auto": (107, 107),
    "grid/binary/controlled/binhc": (91, 91),
    "grid/line3/uniform/line3": (264, 264),
    "grid/line3/trap/line3": (393, 393),
    "grid/line3/hard/acyclic": (206, 186),
    "grid/acyclic/uniform/acyclic": (599, 590),
    "grid/acyclic/uniform/yannakakis": (551, 551),
    "grid/rhier/skewed/rhierarchical": (153, 138),
    "grid/star/dangling/binhc-multiround": (140, 135),
    "trap/line3-forward": (868, 868),
    "trap/line3-backward": (997, 997),
    "trap/broom-embed-line3": (990, 960),
    "random/line3/1": (1342, 1342),
    "random/star3/1": (476, 476),
    "random/fork/1": (1020, 1020),
    "random/q2/1": (375, 375),
    "random/line3/2": (1399, 1399),
    "random/star3/2": (524, 524),
    "random/fork/2": (1077, 1077),
    "random/q2/2": (407, 407),
}


@functools.lru_cache(maxsize=None)
def _least_over_orders(name: str) -> int:
    query, _instance, _p = _build(name)
    return min(
        _run(name, algo, order).load
        for algo in candidates(query)
        for order in (enumerate_fold_orders(query) if algo == "yannakakis" else [None])
    )


def test_the_order_oracle_covers_every_case():
    assert sorted(ORDER_ORACLE) == sorted(CASES + HELD_OUT)


@pytest.mark.parametrize("name", CASES + HELD_OUT)
def test_the_pick_against_the_order_oracle(name):
    _query, choice, loads = _measured(name)
    assert (loads[choice.algorithm], _least_over_orders(name)) == ORDER_ORACLE[name]


#: Cases whose predicted cell shuffles sit outside the band, with the
#: predicted and measured units: the doubled line-3 trap's Yannakakis at
#: its priced order (not the pick) prices its second join's heavy
#: rectangles at about three times what they move.
SHUFFLE_OUTLIERS: dict[str, tuple[int, int]] = {"trap/line3-doubled": (3737, 1144)}


@pytest.mark.parametrize("name", CASES + HELD_OUT)
def test_join_shuffle_predictions_sit_in_a_band(name):
    """Yannakakis at the priced order: the cell shuffles the pricer
    predicts (``_Pricer.shuffles``) against ``yannakakis/join*/shuffle``,
    within 60 % of the measured units plus ``8 p``."""
    query, instance, p = _build(name)
    order = _choice(name).plan.order
    pricer = planner._Pricer(planner.Statistics(query, instance), p)
    pricer.yannakakis(order)
    predicted = round(sum(pricer.shuffles))
    measured = sum(
        units for label, units in _run(name, "yannakakis", order).by_label.items()
        if label.startswith("yannakakis/join") and label.count("/") == 2
        and label.endswith("/shuffle")
    )
    if name in SHUFFLE_OUTLIERS:
        assert (predicted, measured) == SHUFFLE_OUTLIERS[name]
    else:
        assert abs(predicted - measured) <= 0.6 * (measured + 8 * p)


@pytest.mark.parametrize("order", enumerate_fold_orders(golden.build_case("deck/cold_emit/full/0")[0]))
def test_the_fork_prices_every_order_near_its_measured_total(order):
    """``cold_emit``'s fork at each of its 8 fold orders: Yannakakis's
    predicted total within 6 % of the measured one (at F1 F2 F3 F4 it was
    priced 20,200 against 7,344 while an intermediate's light rows were
    priced as a full move)."""
    query, instance, p = _build("deck/cold_emit/full/0")
    pricer = planner._Pricer(planner.Statistics(query, instance), p)
    pricer.yannakakis(order)
    measured = _run("deck/cold_emit/full/0", "yannakakis", order).total
    assert abs(pricer.units - measured) <= 0.06 * measured

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
