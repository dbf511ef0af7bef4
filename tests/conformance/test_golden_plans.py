"""Golden plans: the fold-order pricer pinned *across commits*.

``golden_plans.json`` freezes what ``price_fold_orders`` returns — the
chosen order, every prefix size along it, and the best/worst
quality spread — on every conformance-grid instance (quick size), on every
query of the four harness decks at smoke and full size, and on the
Section 4.1 trap constructions, each priced on its own ``p``
(:func:`case_p`).  The prefix sizes were first generated by the MPC
pricer (``remove_dangling`` plus one ``mpc_count`` per connected prefix
on a scratch cluster); the chosen orders were regenerated when fold
orders began to be ranked by predicted load.

The file changes only when a PR *means* to change which plan wins.
Regenerate with
``PYTHONPATH=src python -m tests.conformance.test_golden_plans --write``
and say why in CHANGES.md.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.planner import price_fold_orders
from repro.data.generators import line_trap_instance
from repro.data.hard_instances import embed_line3, yannakakis_trap_doubled
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.engine import Engine, parse_query
from repro.query import catalog
from repro.query.hypergraph import Hypergraph
from tests.conformance import conftest as grid

GOLDEN_PATH = Path(__file__).with_name("golden_plans.json")
_DECKS_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "harness" / "decks.py"

WORKLOADS = ("cold_emit", "cold_reduce", "paper_hard", "serve_churn")
QUERIES_PER_DECK = 5

TRAPS = {
    "trap/line3-forward": lambda: line_trap_instance(3, 1500, 45000, direction="forward"),
    "trap/line3-backward": lambda: line_trap_instance(3, 1500, 45000, direction="backward"),
    "trap/line3-doubled": lambda: line_trap_instance(3, 1500, 22000, doubled=True),
    "trap/line4-doubled": lambda: line_trap_instance(4, 1500, 12000, doubled=True),
    "trap/yannakakis-doubled": lambda: yannakakis_trap_doubled(1250, 5000),
    "trap/broom-embed-line3": lambda: embed_line3(catalog.broom_join(), 900, 3600, seed=2),
}

CASES: tuple[str, ...] = (
    *(f"grid/{cell.name}" for cell in grid.GRID),
    *(
        f"deck/{w}/{size}/{i}"
        for w in WORKLOADS for size in ("smoke", "full") for i in range(QUERIES_PER_DECK)
    ),
    *TRAPS,
)


@functools.lru_cache(maxsize=None)
def _decks_module():
    """``benchmarks/harness/decks.py``, loaded by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location("_harness_decks", _DECKS_PY)
    decks = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = decks  # dataclasses resolve annotations via sys.modules
    spec.loader.exec_module(decks)
    return decks


@functools.lru_cache(maxsize=None)
def _deck_engine(workload: str, size: str):
    """The deck's variant-0 relations registered on an engine (for binding)."""
    deck = _decks_module().build_deck(workload, small=size == "smoke")
    assert len(deck.queries) == QUERIES_PER_DECK
    engine = Engine(deck.p, "serial")
    for name, (attrs, variants) in deck.relations.items():
        engine.register(Relation(name, attrs, variants[0]), name=name)
    return deck, engine


def build_case(name: str) -> tuple[Hypergraph, Instance]:
    """The (query, instance) a case name stands for."""
    family, _, rest = name.partition("/")
    if family == "grid":
        cell = next(c for c in grid.GRID if c.name == rest)
        was_quick = grid.QUICK
        grid.QUICK = True
        try:
            query, instance, _extra = cell.build(1)
        finally:
            grid.QUICK = was_quick
        return query, instance
    if family == "deck":
        workload, size, i = rest.split("/")
        deck, engine = _deck_engine(workload, size)
        parsed = parse_query(deck.queries[int(i)])
        return parsed.query, engine.instance_for(parsed)
    instance = TRAPS[name]()
    return instance.query, instance


def case_p(name: str) -> int:
    """The servers a case is priced on: a grid cell's or a deck's own
    ``p``, else 8."""
    family, _, rest = name.partition("/")
    if family == "grid":
        return next(c.p for c in grid.GRID if c.name == rest)
    if family == "deck":
        workload, size, _i = rest.split("/")
        return _deck_engine(workload, size)[0].p
    return 8


def frozen(choice, quality) -> dict:
    """A priced plan the way the stored file reads (through JSON)."""
    return json.loads(json.dumps({
        "order": choice.order,
        "max_intermediate": choice.max_intermediate,
        "intermediates": choice.intermediates,
        "quality": quality,
    }))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_priced_plan_matches_golden(name, golden):
    query, instance = build_case(name)
    assert frozen(*price_fold_orders(query, instance, case_p(name))) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.conformance.test_golden_plans --write")
    out = {name: frozen(*price_fold_orders(*build_case(name), case_p(name))) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN_PATH}")
