"""Plan shipping: a versioned wire format for traced physical plans.

A traced :class:`~repro.plan.ir.PhysicalPlan` holds live references —
function objects, distributed-relation parts, recorded outputs — that
only mean something inside the engine that traced it.  This module turns
one engine's warm state for a query into *portable data* another engine
can install, so one cold trace primes a whole replica tier
(:mod:`repro.serve`).

Wire envelope::

    b"RPLN" | version (1 byte) | sha256(body)[:20] | pickled body

:func:`plan_digest` reads the 20-byte digest back as hex — the identity
a front door dedups shipments on — and :func:`decode_plan` recomputes it
over the body, so truncation or bit-rot is rejected before anything is
interpreted.  The body is a plain dict (see ``Engine.export_plan`` for
the producer): plan metadata, the op schedule with live references
replaced by *descriptors*, the recorded outputs in packed columnar form,
the traced :class:`~repro.mpc.cluster.LoadReport` fields, and per-relation
content digests (:func:`relation_digest`), which gate whether the recorded
*outputs* are still the truth.  Install rejects on a mismatch and the
receiver falls back to a cold trace.

Code references never travel as code.  A ``MapParts`` op ships its
``module:qualname`` string and the receiver resolves it through
:func:`resolve_fn` — module must sit under an allowlisted prefix (or be
explicitly registered via :func:`register_shippable`), the qualname must
be importable module-level (no ``<locals>``), and the resolved object
must round-trip to the same reference.  Data values (rows, annotations,
op descriptors) do travel via pickle, so the transport is trusted for
*data* the same way the result cache is; arbitrary code execution is
what the fn registry confines.

Validate the round trip on the example workload with::

    PYTHONPATH=src python -m repro.plan.ship --check
"""

from __future__ import annotations

import hashlib
import importlib
import pickle
from typing import Any, Callable, Sequence

from repro.errors import PlanShipError
from repro.plan.ir import (
    Broadcast,
    Charge,
    Exchange,
    GridLines,
    MapParts,
    Op,
    PhysicalPlan,
    PrimSpan,
    SampleSort,
    FoldByKey,
    SearchRows,
    NumberRows,
    SemiJoin,
    AttachDegrees,
    Subgroup,
)

__all__ = [
    "SHIP_VERSION",
    "encode_plan",
    "decode_plan",
    "plan_digest",
    "encode_ops",
    "decode_ops",
    "relation_digest",
    "resolve_fn",
    "register_shippable",
]

#: Wire-format version; bump on any body-schema change.  A receiver only
#: accepts its own version — plans are cheap to re-trace, so there is no
#: cross-version compatibility shim.  Version 3: recorded charges follow
#: the paid-once-per-execution ledger, so a v2 blob would replay the old one.
SHIP_VERSION = 3

_MAGIC = b"RPLN"
_DIGEST_LEN = 20
_PROTO = pickle.HIGHEST_PROTOCOL

#: Module prefixes fn references may resolve under.  The repo's own
#: drivers and primitives all live here; anything else must be
#: registered explicitly.
_ALLOWED_PREFIXES: tuple[str, ...] = ("repro.",)

#: Explicitly registered shippable functions (tests, extensions).
_REGISTERED: dict[str, Callable] = {}


def register_shippable(fn: Callable) -> Callable:
    """Allowlist one module-level callable for plan shipping (decorator).

    The escape hatch for functions outside the ``repro.`` namespace;
    resolution still verifies the reference round-trips.
    """
    _REGISTERED[f"{fn.__module__}:{fn.__qualname__}"] = fn
    return fn


def resolve_fn(ref: str) -> Callable:
    """Resolve a ``module:qualname`` reference through the allowlist.

    Raises:
        PlanShipError: Malformed reference, module outside the allowlist,
            non-importable target, or a resolved object whose own
            reference does not round-trip to ``ref``.
    """
    fn = _REGISTERED.get(ref)
    if fn is not None:
        return fn
    module_name, sep, qualname = ref.partition(":")
    if not sep or not module_name or not qualname:
        raise PlanShipError(f"malformed fn reference {ref!r}")
    if "<locals>" in qualname:
        raise PlanShipError(
            f"fn reference {ref!r} points at a closure; only module-level "
            f"functions are shippable"
        )
    if not any(module_name.startswith(p) for p in _ALLOWED_PREFIXES):
        raise PlanShipError(
            f"fn reference {ref!r} is outside the allowlisted module "
            f"prefixes {_ALLOWED_PREFIXES} and was not registered"
        )
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise PlanShipError(f"cannot import module of fn {ref!r}: {exc}") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError as exc:
            raise PlanShipError(f"cannot resolve fn {ref!r}: {exc}") from exc
    if not callable(obj) or (
        f"{getattr(obj, '__module__', '?')}:{getattr(obj, '__qualname__', '?')}"
        != ref
    ):
        raise PlanShipError(
            f"resolved object for {ref!r} does not round-trip to the same "
            f"reference"
        )
    return obj


def relation_digest(rel: Any) -> str:
    """Content digest of a registered relation (rows + annotations).

    Shipped *outputs* are only the truth when the receiver's relation
    content is byte-for-byte the sender's, which is what this digest pins
    down (and equal content prices to the same plan on both sides).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(
        pickle.dumps(
            (
                tuple(rel.attrs),
                tuple(rel.rows),
                tuple(rel.annotations) if rel.annotations is not None else None,
                getattr(rel.semiring, "name", None),
            ),
            _PROTO,
        )
    )
    return h.hexdigest()


# ----------------------------------------------------------------------
# Op schedule <-> descriptor records
# ----------------------------------------------------------------------

_SPAN_KINDS: dict[str, type[PrimSpan]] = {
    "SampleSort": SampleSort,
    "FoldByKey": FoldByKey,
    "SearchRows": SearchRows,
    "NumberRows": NumberRows,
    "SemiJoin": SemiJoin,
    "AttachDegrees": AttachDegrees,
}
_CHARGE_KINDS: dict[str, type[Charge]] = {
    "Exchange": Exchange,
    "Broadcast": Broadcast,
}
_MARKER_KINDS: dict[str, type[Op]] = {
    "Subgroup": Subgroup,
    "GridLines": GridLines,
}


def encode_ops(
    ops: Sequence[Op],
    source_of: Callable[[MapParts], "tuple | None"],
) -> list[tuple]:
    """Op schedule to plain records; live refs become descriptors.

    ``source_of`` maps a :class:`MapParts` op to a rebinding descriptor
    (the exporting engine answers from its distributed-relation cache)
    or ``None`` for mid-execution intermediates, which ship *unbound*:
    the receiver's executor skips them — MapParts ops charge nothing and
    serve nothing (outputs come from the recording), so skipping changes
    worker memo warmth only, never the ledger or the results.
    """
    records: list[tuple] = []
    for op in ops:
        if isinstance(op, Charge):
            records.append(
                (op.kind, op.label, op.path, op.members, op.counts)
            )
        elif isinstance(op, MapParts):
            source = source_of(op)
            # An unbound op is skipped at replay, so its common payload
            # would be dead weight on the wire (and possibly unpicklable
            # — it never had to cross a process boundary on the serial
            # backend); ship it only when the op will actually run.
            records.append(
                ("MapParts", op.label, op.path, op.fn_ref,
                 op.common if source is not None else None, source)
            )
        elif isinstance(op, PrimSpan):
            records.append(
                (op.kind, op.label, op.path, op.detail, op.start, op.end)
            )
        else:
            records.append(
                (op.kind, op.label, op.path, getattr(op, "detail", ""))
            )
    return records


def decode_ops(
    records: Sequence[tuple],
    bind: Callable[[str, tuple], "tuple[Any, Any, Any] | None"],
) -> list[Op]:
    """Descriptor records back to an op schedule.

    ``bind(fn_ref, source)`` maps a MapParts op to ``(fn, parts, owner)``
    on the receiving engine, or ``None`` when the op must stay unbound
    (``fn=None`` — the executor skips it).  Unknown record kinds raise:
    a schedule that cannot be fully interpreted must not half-install.
    """
    ops: list[Op] = []
    for rec in records:
        kind = rec[0]
        if kind in _CHARGE_KINDS:
            _, label, path, members, counts = rec
            ops.append(
                _CHARGE_KINDS[kind](
                    label=label, path=tuple(path),
                    members=tuple(tuple(m) for m in members),
                    counts=tuple(counts),
                )
            )
        elif kind == "MapParts":
            _, label, path, fn_ref, common, source = rec
            bound = bind(fn_ref, source) if source is not None else None
            fn, parts, owner = bound if bound is not None else (None, None, None)
            ops.append(
                MapParts(
                    label=label, path=tuple(path), fn_ref=fn_ref,
                    fn=fn, parts=parts, common=common, owner=owner,
                )
            )
        elif kind in _SPAN_KINDS:
            _, label, path, detail, start, end = rec
            ops.append(
                _SPAN_KINDS[kind](
                    label=label, path=tuple(path), detail=detail,
                    start=start, end=end,
                )
            )
        elif kind in _MARKER_KINDS:
            _, label, path, detail = rec
            ops.append(
                _MARKER_KINDS[kind](label=label, path=tuple(path), detail=detail)
            )
        else:
            raise PlanShipError(f"unknown op record kind {kind!r}")
    return ops


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------

def encode_plan(payload: dict) -> bytes:
    """Seal a plan payload dict into the versioned wire envelope."""
    try:
        body = pickle.dumps(payload, _PROTO)
    except Exception as exc:  # noqa: BLE001 - unpicklable payload values
        raise PlanShipError(f"plan payload is not serializable: {exc}") from exc
    digest = hashlib.sha256(body).digest()[:_DIGEST_LEN]
    return _MAGIC + bytes((SHIP_VERSION,)) + digest + body


def plan_digest(blob: bytes) -> str:
    """The envelope's content digest as hex (shipping-dedup identity)."""
    _check_header(blob)
    return blob[len(_MAGIC) + 1 : len(_MAGIC) + 1 + _DIGEST_LEN].hex()


def _check_header(blob: bytes) -> None:
    if len(blob) < len(_MAGIC) + 1 + _DIGEST_LEN:
        raise PlanShipError(f"plan blob truncated ({len(blob)} bytes)")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise PlanShipError("plan blob has a bad magic prefix")
    version = blob[len(_MAGIC)]
    if version != SHIP_VERSION:
        raise PlanShipError(
            f"plan wire version {version} != supported {SHIP_VERSION}"
        )


def decode_plan(blob: bytes) -> dict:
    """Open the envelope: verify magic, version, and digest; return the body.

    Raises:
        PlanShipError: Truncated/corrupted blob, version mismatch, or a
            body that does not decode to a dict.
    """
    _check_header(blob)
    start = len(_MAGIC) + 1
    digest = blob[start : start + _DIGEST_LEN]
    body = blob[start + _DIGEST_LEN :]
    if hashlib.sha256(body).digest()[:_DIGEST_LEN] != digest:
        raise PlanShipError("plan blob digest mismatch (corrupted in transit)")
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise PlanShipError(f"plan body does not decode: {exc}") from exc
    if not isinstance(payload, dict):
        raise PlanShipError(
            f"plan body is {type(payload).__name__}, expected dict"
        )
    return payload


def describe(blob: bytes) -> str:
    """One human-readable line about an encoded plan (CLI/debug helper)."""
    payload = decode_plan(blob)
    n_map = sum(1 for r in payload["ops"] if r[0] == "MapParts")
    bound = sum(
        1 for r in payload["ops"] if r[0] == "MapParts" and r[5] is not None
    )
    return (
        f"plan {plan_digest(blob)[:12]} query={payload['query']!r} "
        f"kind={payload['kind']} algorithm={payload['algorithm']} "
        f"p={payload['p']} ops={len(payload['ops'])} "
        f"map={n_map} (bound {bound}) bytes={len(blob)}"
    )


# ----------------------------------------------------------------------
# Round-trip validator (CI: `python -m repro.plan.ship --check`)
# ----------------------------------------------------------------------

def _run_check(data_dir: str, queries_path: str, p: int) -> int:
    """Ship every example query engine-to-engine and verify parity.

    For each query: execute cold on a sender engine, export, round-trip
    the envelope, install into a fresh receiver over the same CSVs, and
    require the receiver's *first* execution to be a warm plan replay
    (zero re-traces) with outputs and ledger bit-identical to the
    sender's.  A corrupted blob must also be rejected up front.
    """
    from pathlib import Path

    from repro.engine import Engine
    from repro.io import read_relation_csv

    relations = [
        read_relation_csv(path)
        for path in sorted(Path(data_dir).glob("*.csv"))
    ]
    if not relations:
        print(f"no CSV relations under {data_dir}")
        return 1
    with open(queries_path) as fh:
        workload = [
            line.strip() for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]

    def fresh_engine() -> Engine:
        # result_cache off so the receiver's first execution exercises
        # the shipped *plan replay* path, not a recording serve.
        engine = Engine(p=p, backend="serial", result_cache=False)
        for rel in relations:
            engine.register(rel)
        return engine

    sender = fresh_engine()
    failures = 0
    for text in workload:
        cold = sender.execute(text)
        blob = sender.export_plan(text)
        if decode_plan(blob) != decode_plan(bytes(blob)):
            print(f"FAIL {text!r}: decode is not deterministic")
            failures += 1
            continue
        corrupted = blob[:-1] + bytes((blob[-1] ^ 0xFF,))
        try:
            decode_plan(corrupted)
        except PlanShipError:
            pass
        else:
            print(f"FAIL {text!r}: corrupted blob was accepted")
            failures += 1
            continue
        receiver = fresh_engine()
        receiver.install_plan(blob)
        warm = receiver.execute(text)
        ok = (
            warm.metrics.plan_replayed
            and warm.report.as_dict() == cold.report.as_dict()
            and warm.scalar == cold.scalar
            and warm.rows() == cold.rows()
        )
        if not ok:
            print(f"FAIL {text!r}: shipped replay diverged from cold run")
            failures += 1
            continue
        print(f"ok   {describe(blob)}")
    if failures:
        print(f"{failures}/{len(workload)} queries FAILED the ship round-trip")
        return 1
    print(f"all {len(workload)} queries ship, install, and replay bit-identically")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.plan.ship",
        description="Round-trip validator for the plan-shipping wire format",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="ship every workload query engine-to-engine and verify parity",
    )
    parser.add_argument(
        "--data-dir", default="examples/serve_workload",
        help="directory of <relation>.csv files",
    )
    parser.add_argument(
        "--queries", default=None,
        help="file with one query per line (default: <data-dir>/queries.txt)",
    )
    parser.add_argument("-p", "--servers", type=int, default=8)
    args = parser.parse_args(argv)
    if not args.check:
        parser.print_help()
        return 2
    queries = args.queries or f"{args.data_dir}/queries.txt"
    return _run_check(args.data_dir, queries, args.servers)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    sys.exit(main())
