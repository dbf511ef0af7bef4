"""Shipped-plan conformance: installed replay == local trace, per backend.

Plan shipping (:mod:`repro.plan.ship`, DESIGN.md 11) moves a traced plan
from the replica that paid the cold trace to peers that did not.  The
contract has two halves:

* replaying a *shipped* plan is bit-identical — outputs and every
  LoadReport field — to the sender's cold execution, on every registered
  backend, with **zero re-traces** on the receiver (its first execution
  is already a plan replay);
* a corrupted envelope or a content-digest mismatch is rejected *atomically*
  (typed :class:`~repro.errors.PlanShipError`, no half-installed state),
  after which the receiver falls back to a cold trace that is itself
  bit-identical to a never-shipped engine's.
"""

from __future__ import annotations

import pytest

from repro.data.generators import line_trap_instance, random_instance
from repro.engine import Engine
from repro.errors import PlanShipError
from repro.mpc.backends import available_backends
from repro.plan.ship import plan_digest
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


def _engine(relations, backend: str) -> Engine:
    # result_cache off so the receiver's first execution exercises the
    # installed *trace* (plan replay), not recording-serving.
    engine = Engine(p=P, backend=backend, result_cache=False)
    for name, rel in relations.items():
        engine.register(rel, name=name)
    return engine


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


def _groupby():
    q = catalog.line3()
    inst = random_instance(q, 150, 10, seed=23)
    return dict(inst.relations), "Q(B; count) :- R1(A,B), R2(B,C), R3(C,D)"


def _total():
    q = catalog.line3()
    inst = random_instance(q, 150, 10, seed=23)
    return dict(inst.relations), "Q(; count) :- R1(A,B), R2(B,C), R3(C,D)"


CELLS = {
    "binary/full": _binary,
    "line3/trap": _line3_trap,
    "aggregate/groupby": _groupby,
    "aggregate/total": _total,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cell", sorted(CELLS), ids=sorted(CELLS))
def test_shipped_replay_bit_identical(cell, backend):
    relations, text = CELLS[cell]()
    sender = _engine(relations, backend)
    cold = sender.execute(text)
    blob = sender.export_plan(text)

    receiver = _engine(relations, backend)
    assert receiver.install_plan(blob) == plan_digest(blob)
    assert receiver.stats().plans_installed == 1

    warm = receiver.execute(text)
    assert warm.metrics.plan_replayed, "receiver re-traced a shipped plan"
    assert not warm.metrics.result_cached
    assert _payload(warm) == _payload(cold)
    assert warm.report.as_dict() == cold.report.as_dict()
    assert warm.scalar == cold.scalar


@pytest.mark.parametrize("backend", BACKENDS)
def test_corrupted_ship_rejected_then_cold_trace(backend):
    relations, text = _binary()
    sender = _engine(relations, backend)
    cold = sender.execute(text)
    blob = sender.export_plan(text)
    corrupt = blob[:-1] + bytes([blob[-1] ^ 0xFF])

    receiver = _engine(relations, backend)
    with pytest.raises(PlanShipError):
        receiver.install_plan(corrupt)
    assert receiver.stats().plans_installed == 0

    res = receiver.execute(text)  # no half-install: traces cold, correctly
    assert not res.metrics.plan_replayed
    assert _payload(res) == _payload(cold)
    assert res.report.as_dict() == cold.report.as_dict()


@pytest.mark.parametrize("backend", BACKENDS)
def test_different_data_ship_rejected_then_cold_trace(backend):
    relations, text = _binary()
    sender = _engine(relations, backend)
    sender.execute(text)
    blob = sender.export_plan(text)

    # Same schema, different data: the content digests disagree.
    q = catalog.binary_join()
    other = dict(random_instance(q, 90, 9, seed=99).relations)
    receiver = _engine(other, backend)
    with pytest.raises(PlanShipError, match="content digest mismatch"):
        receiver.install_plan(blob)
    assert receiver.stats().plans_installed == 0

    ref = _engine(other, backend).execute(text)
    res = receiver.execute(text)
    assert not res.metrics.plan_replayed
    assert _payload(res) == _payload(ref)
    assert res.report.as_dict() == ref.report.as_dict()
