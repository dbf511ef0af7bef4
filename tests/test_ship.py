"""Plans ship as prepared statements, and shipped bytes are hostile.

``Engine.export_plan`` writes one JSON object, ``{"algorithm": ...,
"query": ...}``; ``Engine.install_plan`` accepts exactly that shape and
prepares the query on the receiver's own data.  Whatever bytes arrive,
install either returns a :class:`PreparedQuery` or raises
:class:`PlanShipError` — never anything else, and nothing is unpickled.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import random_instance
from repro.engine import Engine, PreparedQuery
from repro.errors import PlanShipError
from repro.query import catalog

TEXT = "Q(A,B,C) :- R1(A,B), R2(B,C)"


def _engine(p=6, **kwargs):
    inst = random_instance(catalog.binary_join(), 120, 12, seed=11)
    engine = Engine(p=p, backend="serial", **kwargs)
    for name, rel in inst.relations.items():
        engine.register(rel, name=name)
    return engine


def _blob(engine=None, algorithm="auto"):
    engine = engine or _engine()
    engine.prepare(TEXT, algorithm)
    return engine.export_plan(TEXT, algorithm)


#: One receiver for the fuzz tests: every install either prepares one of
#: a handful of queries (cached after the first) or raises.
_RECEIVER = _engine()
_VALID = _blob()


def _install_or_reject(blob: bytes) -> None:
    try:
        entry = _RECEIVER.install_plan(blob)
    except PlanShipError:
        return
    assert isinstance(entry, PreparedQuery)


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------

def test_export_is_the_statement_record():
    engine = _engine()
    blob = _blob(engine, algorithm="yannakakis")
    assert json.loads(blob) == {"algorithm": "yannakakis", "query": TEXT}
    assert blob == json.dumps(
        {"algorithm": "yannakakis", "query": TEXT}, sort_keys=True
    ).encode()


def test_install_prepares_on_the_receiver_and_its_first_execute_hits():
    sender = _engine()
    cold = sender.execute(TEXT)
    receiver = _engine()
    entry = receiver.install_plan(sender.export_plan(TEXT))
    assert entry.algorithm == cold.prepared.algorithm
    assert entry.plan_order == cold.prepared.plan_order
    assert receiver.stats().plans_installed == 1
    first = receiver.execute(TEXT)
    assert first.metrics.cache_hit and not first.metrics.result_cached
    assert first.rows() == cold.rows()
    assert first.report.as_dict() == cold.report.as_dict()


def test_install_prices_on_the_receivers_own_data():
    """A statement carries no data: a receiver holding other rows under
    the same names prices and answers on its own rows."""
    other = random_instance(catalog.binary_join(), 90, 9, seed=99)
    receiver = Engine(p=6, backend="serial")
    for name, rel in other.relations.items():
        receiver.register(rel, name=name)
    receiver.install_plan(_blob())
    res = receiver.execute(TEXT)
    ref = Engine(p=6, backend="serial")
    for name, rel in other.relations.items():
        ref.register(rel, name=name)
    want = ref.execute(TEXT)
    assert res.rows() == want.rows()
    assert res.report.as_dict() == want.report.as_dict()


def test_valid_record_installs_with_pickle_disabled(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("pickle.loads on shipped bytes")

    monkeypatch.setattr(pickle, "loads", refuse)
    assert isinstance(_engine().install_plan(_VALID), PreparedQuery)


# ----------------------------------------------------------------------
# Export / install rejections
# ----------------------------------------------------------------------

def test_export_before_prepare_raises():
    engine = _engine()
    with pytest.raises(PlanShipError, match="nothing to export"):
        engine.export_plan(TEXT)


def test_install_rejects_missing_relation():
    receiver = Engine(p=6, backend="serial")
    with pytest.raises(PlanShipError) as info:
        receiver.install_plan(_VALID)
    assert info.value.__cause__ is not None
    assert receiver.stats().plans_installed == 0
    assert receiver.prepared_queries() == []


def _record(**fields) -> bytes:
    return json.dumps(fields).encode()


@pytest.mark.parametrize("blob", [
    pytest.param(b"[" * 100_000, id="deep-nesting"),
    pytest.param(b"\xff\xfe\x00\xd8garbage\x80", id="not-utf8"),
    pytest.param(b"", id="empty"),
    pytest.param(_record(), id="empty-object"),
    pytest.param(json.dumps([TEXT, "auto"]).encode(), id="json-list"),
    pytest.param(_record(algorithm="auto", query=TEXT, p=6), id="extra-key"),
    pytest.param(_record(query=TEXT), id="missing-key"),
    pytest.param(_record(algorithm="auto", query=7), id="non-string-query"),
    pytest.param(_record(algorithm=None, query=TEXT), id="non-string-algorithm"),
    pytest.param(_record(algorithm="auto", query="Q(A :- R1(A"), id="unparsable-query"),
    pytest.param(
        _record(algorithm="auto", query="Q(A,B) :- Nope(A,B)"), id="unknown-relation"
    ),
    pytest.param(_record(algorithm="quantum", query=TEXT), id="unknown-algorithm"),
])
def test_install_rejects(blob):
    receiver = _engine()
    with pytest.raises(PlanShipError):
        receiver.install_plan(blob)
    assert receiver.stats().plans_installed == 0
    assert receiver.prepared_queries() == []


# ----------------------------------------------------------------------
# Fuzz: any bytes -> PreparedQuery or PlanShipError
# ----------------------------------------------------------------------

def test_every_truncation_installs_or_is_rejected():
    for n in range(len(_VALID) + 1):
        _install_or_reject(_VALID[:n])


def test_every_one_byte_flip_installs_or_is_rejected():
    for i in range(len(_VALID)):
        for mask in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF):
            flipped = bytearray(_VALID)
            flipped[i] ^= mask
            _install_or_reject(bytes(flipped))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_install_or_are_rejected(blob):
    _install_or_reject(blob)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=64), st.text(max_size=16))
def test_arbitrary_records_install_or_are_rejected(query, algorithm):
    _install_or_reject(_record(algorithm=algorithm, query=query))

