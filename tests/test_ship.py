"""Unit tests for the plan-shipping wire format (:mod:`repro.plan.ship`).

The conformance cell (tests/conformance/test_plan_ship.py) holds the
end-to-end contract — shipped replay bit-identical per backend.  These
tests pin the envelope itself (magic, version, digest, truncation), the
fn-reference allowlist, and the typed install-time rejections.
"""

from __future__ import annotations

import pytest

from repro.data.generators import random_instance
from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import PlanShipError
from repro.plan.ship import (
    SHIP_VERSION,
    decode_plan,
    encode_plan,
    plan_digest,
    register_shippable,
    relation_digest,
    resolve_fn,
)
from repro.query import catalog

TEXT = "Q(A,B,C) :- R1(A,B), R2(B,C)"


def _engine(p=6, **kwargs):
    inst = random_instance(catalog.binary_join(), 120, 12, seed=11)
    engine = Engine(p=p, backend="serial", result_cache=False, **kwargs)
    for name, rel in inst.relations.items():
        engine.register(rel, name=name)
    return engine


def _blob(engine):
    engine.execute(TEXT)
    return engine.export_plan(TEXT)


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------

def test_envelope_roundtrip_and_digest():
    payload = {"query": TEXT, "p": 6, "ops": []}
    blob = encode_plan(payload)
    assert blob[:4] == b"RPLN"
    assert blob[4] == SHIP_VERSION
    assert decode_plan(blob) == payload
    assert plan_digest(blob) == blob[5:25].hex()


def test_envelope_rejects_corruption():
    blob = encode_plan({"query": TEXT})
    flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    with pytest.raises(PlanShipError, match="digest"):
        decode_plan(flipped)


def test_envelope_rejects_truncation_magic_and_version():
    blob = encode_plan({"query": TEXT})
    with pytest.raises(PlanShipError):
        decode_plan(blob[:10])
    with pytest.raises(PlanShipError, match="magic"):
        decode_plan(b"XXXX" + blob[4:])
    with pytest.raises(PlanShipError, match="version"):
        decode_plan(blob[:4] + bytes([SHIP_VERSION + 1]) + blob[5:])
    # Version 1 bodies carried a statistics fingerprint; they are refused
    # at the header, at install too, and the payload no longer has one.
    # Version 2 bodies carry charges recorded before sorts were paid once
    # per execution: replayed next to locally traced plans they would post
    # the old ledger, so they are refused at the header as well.
    assert SHIP_VERSION == 3
    blob = _blob(_engine())
    assert "fingerprint" not in decode_plan(blob)
    for old in (1, 2):
        stale = blob[:4] + bytes([old]) + blob[5:]
        with pytest.raises(PlanShipError, match=f"version {old}"):
            _engine().install_plan(stale)


def test_envelope_rejects_non_dict_body():
    with pytest.raises(PlanShipError):
        decode_plan(encode_plan(["not", "a", "dict"]))


# ----------------------------------------------------------------------
# fn-reference allowlist
# ----------------------------------------------------------------------

def test_resolve_fn_roundtrips_repro_function():
    fn = resolve_fn("repro.plan.ship:relation_digest")
    assert fn is relation_digest


@pytest.mark.parametrize("ref", [
    "no-colon-here",
    ":qualname",
    "module:",
    "repro.plan.ship:outer.<locals>.inner",
    "os:system",                       # outside the allowlist
    "repro.nonexistent_module:fn",
    "repro.plan.ship:does_not_exist",
    "repro.plan.ship:SHIP_VERSION",    # not callable
])
def test_resolve_fn_rejects(ref):
    with pytest.raises(PlanShipError):
        resolve_fn(ref)


def test_register_shippable_escape_hatch():
    # Aliased import path would fail the round-trip check; explicit
    # registration is the documented way around the prefix allowlist.
    def local_fn():
        return 42

    ref = f"{local_fn.__module__}:{local_fn.__qualname__}"
    with pytest.raises(PlanShipError):
        resolve_fn(ref)
    register_shippable(local_fn)
    assert resolve_fn(ref) is local_fn


# ----------------------------------------------------------------------
# relation_digest
# ----------------------------------------------------------------------

def test_relation_digest_tracks_content():
    a = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
    b = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
    c = Relation("R", ("A", "B"), [(1, 2), (3, 5)])
    assert relation_digest(a) == relation_digest(b)
    assert relation_digest(a) != relation_digest(c)


# ----------------------------------------------------------------------
# Export / install rejections
# ----------------------------------------------------------------------

def test_export_before_execute_raises():
    engine = _engine()
    with pytest.raises(PlanShipError, match="nothing to export"):
        engine.export_plan(TEXT)


def test_install_rejects_cluster_size_mismatch():
    blob = _blob(_engine(p=6))
    with pytest.raises(PlanShipError, match="p="):
        _engine(p=8).install_plan(blob)


def test_install_rejects_missing_relation():
    blob = _blob(_engine())
    receiver = Engine(p=6, backend="serial", result_cache=False)
    with pytest.raises(PlanShipError):
        receiver.install_plan(blob)


def test_install_rejects_content_drift():
    sender = _engine()
    blob = _blob(sender)
    receiver = _engine()
    receiver.register(
        Relation("R1", ("A", "B"), [(0, 0)]), name="R1"
    )
    with pytest.raises(PlanShipError):
        receiver.install_plan(blob)
    assert receiver.stats().plans_installed == 0


def test_install_rejects_missing_payload_field():
    blob = _blob(_engine())
    payload = decode_plan(blob)
    del payload["ops"]
    with pytest.raises(PlanShipError, match="missing"):
        _engine().install_plan(encode_plan(payload))


def test_install_then_warm_replay_zero_retrace():
    sender = _engine()
    cold = sender.execute(TEXT)
    blob = sender.export_plan(TEXT)
    receiver = _engine()
    receiver.install_plan(blob)
    assert receiver.stats().plans_installed == 1
    warm = receiver.execute(TEXT)
    assert warm.metrics.plan_replayed
    assert warm.report.as_dict() == cold.report.as_dict()
