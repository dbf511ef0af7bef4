"""Trace recording: capture an execution's op schedule as it happens.

A :class:`TraceRecorder` is installed as ``cluster.recorder`` for the
duration of one driven execution.  The hook points are chosen so the
trace is *complete by construction*:

* every ledger mutation funnels through
  :meth:`~repro.mpc.cluster.Cluster.tally_members` (exchanges, gathers,
  broadcasts, and the PSRS kernel's by-count charges alike), which
  records one :class:`~repro.plan.ir.Charge`;
* every backend compute dispatch funnels through
  :meth:`~repro.mpc.group.Group.map_parts`, which records one
  :class:`~repro.plan.ir.MapParts`;
* the Section-2 primitives and :func:`~repro.mpc.substrate.sorted_run`
  wrap their bodies in :func:`prim_span`, scoping the low-level steps
  for per-op attribution.

Recording is pure observation — it never changes what executes, what is
charged, or in which order (the hooks append to a list and return).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Sequence

from repro.plan.ir import (
    AttachDegrees,
    Broadcast,
    Exchange,
    FoldByKey,
    GridLines,
    MapParts,
    MatchKeys,
    Op,
    PhysicalPlan,
    PrimSpan,
    SampleSort,
    SearchRows,
    SemiJoin,
    Subgroup,
)

__all__ = ["TraceRecorder", "prim_span"]

_SPAN_CLASSES: dict[str, type[PrimSpan]] = {
    "SampleSort": SampleSort,
    "FoldByKey": FoldByKey,
    "SearchRows": SearchRows,
    "SemiJoin": SemiJoin,
    "MatchKeys": MatchKeys,
    "AttachDegrees": AttachDegrees,
}

_NULL = nullcontext()


def prim_span(cluster: Any, kind: str, detail: str = ""):
    """Span context for a primitive body; a no-op when nothing records.

    ``cluster`` is duck-typed (anything with a ``recorder`` attribute);
    the common case — no recorder installed — costs one attribute load.
    """
    rec = getattr(cluster, "recorder", None)
    if rec is None:
        return _NULL
    return rec.span(kind, detail)


class TraceRecorder:
    """Accumulates ops during one execution; ``finish()`` seals the plan."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._stack: list[PrimSpan] = []
        self._broadcast_pending = False

    # ------------------------------------------------------------------
    def _path(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self._stack)

    def mark_broadcast(self) -> None:
        """Tag the next recorded charge as a one-to-all replication."""
        self._broadcast_pending = True

    def record_charge(
        self,
        members: Sequence[Sequence[int]],
        counts: Sequence[int],
        label: str,
    ) -> None:
        cls = Broadcast if self._broadcast_pending else Exchange
        self._broadcast_pending = False
        self.ops.append(
            cls(
                label=label,
                path=self._path(),
                members=tuple(tuple(m) for m in members),
                counts=tuple(counts),
            )
        )

    def record_map_parts(
        self, fn: Any, parts: Any, common: Any, owner: Any
    ) -> None:
        self.ops.append(
            MapParts(
                label="map_parts",
                path=self._path(),
                fn_ref=f"{fn.__module__}:{fn.__qualname__}",
                fn=fn,
                parts=parts,
                common=common,
                owner=owner,
            )
        )

    def record_structural(self, kind: str, detail: str) -> None:
        cls = Subgroup if kind == "Subgroup" else GridLines
        self.ops.append(cls(path=self._path(), detail=detail))

    @contextmanager
    def span(self, kind: str, detail: str = "") -> Iterator[PrimSpan]:
        op = _SPAN_CLASSES[kind](path=self._path(), detail=detail)
        self.ops.append(op)
        op.start = len(self.ops)
        self._stack.append(op)
        try:
            yield op
        finally:
            self._stack.pop()
            op.end = len(self.ops)

    # ------------------------------------------------------------------
    def finish(
        self,
        query: str,
        kind: str,
        algorithm: str,
        p: int,
        backend: str,
    ) -> PhysicalPlan:
        return PhysicalPlan(
            query=query,
            kind=kind,
            algorithm=algorithm,
            p=p,
            backend=backend,
            ops=self.ops,
        )
