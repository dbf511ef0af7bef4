"""Plan-replay conformance: warm replay == cold execution, per backend.

The physical-plan layer adds a second way to serve a warm query (next to
result-cache serving): replay the traced op schedule through the
Executor, with the worker-local ops in one ``run_ops`` request.  The
contract mirrors the substrate's cache rules (DESIGN.md 3.4 / 7): replay
may change wall-clock and backend round-trip counts **only** — outputs
and every LoadReport field must be bit-identical to the cold execution,
on every registered backend.

A hypothesis layer drives the same invariant over randomized instances,
so the grid's fixed seeds are not the only shapes pinned down.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import line_trap_instance, random_instance
from repro.data.relation import Relation
from repro.engine import Engine
from repro.mpc.backends import available_backends
from repro.query import catalog

BACKENDS = available_backends()

P = 6


def _payload(res):
    if res.metrics.kind == "join":
        return {
            "attrs": res.relation.attrs,
            "parts": [list(part) for part in res.relation.parts],
        }
    return {
        "scalar": res.scalar,
        "rows": None if res.relation is None else list(res.relation.rows),
        "annotations": (
            None if res.relation is None
            else list(res.relation.annotations or ())
        ),
    }


def _engine(relations: dict[str, Relation], backend: str) -> Engine:
    engine = Engine(p=P, backend=backend, result_cache=False)
    for name, rel in relations.items():
        engine.register(rel, name=name)
    return engine


def _check_replay_modes(relations: dict[str, Relation], text: str, backend: str):
    """Cold vs warm replay (twice): outputs and ledger all identical."""
    engine = _engine(relations, backend)

    cold = engine.execute(text)
    ref_payload, ref_ledger = _payload(cold), cold.report.as_dict()
    assert not cold.metrics.plan_replayed

    for _ in range(2):
        warm = engine.execute(text)
        assert warm.metrics.plan_replayed
        assert _payload(warm) == ref_payload, "replay outputs differ"
        assert warm.report.as_dict() == ref_ledger, "replay ledger differs"
        # One round per replay however many worker-local ops the plan
        # holds.  Chaos is exempt from this one *performance* assert
        # only: injected faults add recovery rounds.  Its correctness
        # asserts above still bind.
        if backend != "chaos":
            assert warm.metrics.backend_requests <= 1
    return warm


# ----------------------------------------------------------------------
# Grid cells (fixed seeds, both backends)
# ----------------------------------------------------------------------

def _binary():
    q = catalog.binary_join()
    inst = random_instance(q, 180, 20, seed=7)
    return dict(inst.relations), "Q(A,B,C) :- R1(A,B), R2(B,C)"


def _line3_trap():
    inst = line_trap_instance(3, 200, 900, doubled=True)
    return (
        dict(inst.relations),
        "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)",
    )


def _fork():
    q = catalog.fork_join()
    inst = random_instance(q, 120, 8, seed=17)
    return (
        dict(inst.relations),
        "Q(A,B,C,D,E) :- F1(A,B), F2(B,C), F3(C,D), F4(C,E)"
        .replace("F", "R"),
    )


def _groupby():
    q = catalog.line3()
    inst = random_instance(q, 150, 10, seed=23)
    return dict(inst.relations), "Q(B; count) :- R1(A,B), R2(B,C), R3(C,D)"


CELLS = {
    "binary/full": _binary,
    "line3/trap": _line3_trap,
    "acyclic/fork": _fork,
    "aggregate/groupby": _groupby,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cell", sorted(CELLS), ids=sorted(CELLS))
def test_replay_modes_identical_on_grid(cell, backend):
    relations, text = CELLS[cell]()
    _check_replay_modes(relations, text, backend)


# ----------------------------------------------------------------------
# Hypothesis layer: randomized instances, serial + every challenger
# ----------------------------------------------------------------------

rows_st = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 6)), min_size=0, max_size=60
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12, deadline=None)
@given(rows1=rows_st, rows2=rows_st)
def test_replay_modes_identical_on_random_instances(backend, rows1, rows2):
    relations = {
        "R1": Relation("R1", ("A", "B"), rows1),
        "R2": Relation("R2", ("B", "C"), [(b, c) for c, b in rows2]),
    }
    _check_replay_modes(relations, "Q(A,B,C) :- R1(A,B), R2(B,C)", backend)
