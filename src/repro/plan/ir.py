"""The physical operator IR: what one query execution *did* to the cluster.

A :class:`PhysicalPlan` is a flat sequence of :class:`Op` records traced
from one execution of a core driver.  Three op families exist:

* **Charges** (:class:`Exchange`, :class:`Broadcast`) — one ledger write
  each: the member tuples and per-server received counts of one
  :meth:`~repro.mpc.cluster.Cluster.tally_members` call.  Replaying a
  charge re-posts exactly those counts under exactly that label, so the
  replayed :class:`~repro.mpc.cluster.LoadReport` is bit-identical to the
  traced one by construction (the same argument as a sorted run billed
  from its recorded counts in a later epoch, DESIGN.md 3.3/3.4).
* **Worker-local compute** (:class:`MapParts`) — one
  :meth:`~repro.mpc.group.Group.map_parts` dispatch: a module-level pure
  function, its picklable ``common`` descriptor, and *references* to the
  immutable input parts and their owning relation.  Holding them is what
  lets a timed replay re-issue the compute and measure it.
* **Structure** (:class:`SampleSort`, :class:`FoldByKey`,
  :class:`SearchRows`, :class:`NumberRows`, :class:`SemiJoin`,
  :class:`MatchKeys`, :class:`AttachDegrees` spans; :class:`Subgroup` /
  :class:`GridLines` markers) — the primitive vocabulary of paper
  Section 2 and the grid shape of Section 3.2 Case 2.  Spans scope the
  low-level steps recorded while a primitive ran, giving ``explain`` its
  per-op ledger attribution; they charge nothing and replay as no-ops.

Ops are recorded with the :class:`~repro.plan.trace.TraceRecorder` and
replayed, one measured round per op, by the
:class:`~repro.plan.executor.Executor`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Op",
    "Charge",
    "Exchange",
    "Broadcast",
    "MapParts",
    "Subgroup",
    "GridLines",
    "PrimSpan",
    "SampleSort",
    "FoldByKey",
    "SearchRows",
    "NumberRows",
    "SemiJoin",
    "MatchKeys",
    "AttachDegrees",
    "PhysicalPlan",
]


@dataclass(eq=False)
class Op:
    """One step of a traced execution.

    Attributes:
        label: The ledger/phase label the step ran under ("" for
            structural ops, which never touch the ledger).
        path: Kinds of the enclosing primitive spans, outermost first —
            the per-op attribution used by ``explain``.
    """

    label: str = ""
    path: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(eq=False)
class Charge(Op):
    """One ledger write: ``tally_members(members, counts, label)``.

    ``members`` is the group family the counts were tallied on (tuples of
    global server ids); replaying posts the identical vectors through the
    same entry point, so every `LoadReport` field reproduces exactly.
    """

    members: tuple[tuple[int, ...], ...] = ()
    counts: tuple[int, ...] = ()

    @property
    def units(self) -> int:
        """Total units this charge adds to the ledger (all members)."""
        return sum(self.counts) * len(self.members)


@dataclass(eq=False)
class Exchange(Charge):
    """A routed exchange step (the general :meth:`Group.exchange` case)."""


@dataclass(eq=False)
class Broadcast(Charge):
    """An exchange known to be a one-to-all replication."""


@dataclass(eq=False)
class MapParts(Op):
    """One backend compute dispatch: ``fn(part, common, index)`` per part.

    ``fn``/``parts``/``owner`` are live references captured at trace
    time; ``parts`` are immutable after construction (the `DistRelation`
    contract), so a replay recomputes the exact traced results.  Local
    compute is free in the MPC model — the op charges nothing; it exists
    so ``explain --timings`` can time the compute as its own round.
    """

    fn_ref: str = ""
    fn: Any = None
    parts: Any = None
    common: Any = None
    owner: Any = None


@dataclass(eq=False)
class Subgroup(Op):
    """Structural marker: a driver narrowed the group to a server subset."""

    detail: str = ""


@dataclass(eq=False)
class GridLines(Op):
    """Structural marker: a hypercube grid was carved into line families."""

    detail: str = ""


@dataclass(eq=False)
class PrimSpan(Op):
    """A Section-2 primitive invocation scoping its low-level steps.

    ``ops[start:end]`` of the owning plan are the steps recorded while
    the primitive ran (spans nest: ``AttachDegrees`` contains the
    ``SampleSort`` of its relation's sorted run).
    """

    detail: str = ""
    start: int = 0
    end: int = 0


@dataclass(eq=False)
class SampleSort(PrimSpan):
    """A PSRS pass: local index sort, sample gather, splitters, shuffle."""


@dataclass(eq=False)
class FoldByKey(PrimSpan):
    """Per-key aggregation on a sorted run (count/fold/distinct family)."""


@dataclass(eq=False)
class SearchRows(PrimSpan):
    """Predecessor search of a relation's rows against a keyed table."""


@dataclass(eq=False)
class NumberRows(PrimSpan):
    """Consecutive per-key numbering of a relation's rows."""


@dataclass(eq=False)
class SemiJoin(PrimSpan):
    """The paper's semi-join-by-multi-search reduction."""


@dataclass(eq=False)
class MatchKeys(PrimSpan):
    """An equality match of keys by predecessor search (semi-join, fold)."""


@dataclass(eq=False)
class AttachDegrees(PrimSpan):
    """The fused sum-by-key + multi-search behind heavy/light splits."""


def _fmt_seconds(seconds: float) -> str:
    """Compact duration for explain columns: 1.23s / 4.56ms / 789us."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_bytes(n: int) -> str:
    """Compact byte count for explain columns: 1.5MiB / 2.0KiB / 37B."""
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KiB"
    return f"{n}B"


@dataclass(eq=False)
class PhysicalPlan:
    """A recording of one query execution's op schedule.

    Attributes:
        query: The query text (or a short description) the trace served.
        kind: ``"join"`` | ``"project"`` | ``"aggregate"``.
        algorithm: The resolved algorithm that was driven.
        p: Cluster size the trace was recorded on.
        backend: Backend name of the recording session (the schedule
            itself is backend-independent — ledgers are).
        ops: The flat op sequence in execution order.
    """

    query: str = ""
    kind: str = ""
    algorithm: str = ""
    p: int = 0
    backend: str = ""
    ops: list[Op] = field(default_factory=list)

    # ------------------------------------------------------------------
    def charges(self) -> list[Charge]:
        return [op for op in self.ops if isinstance(op, Charge)]

    def charged_units(self) -> int:
        """Total ledger units a replay posts (== the traced report total)."""
        return sum(op.units for op in self.ops if isinstance(op, Charge))

    def op_counts(self) -> dict[str, int]:
        """Per-op-kind counts (the engine's per-op metrics source)."""
        return dict(Counter(op.kind for op in self.ops))

    # ------------------------------------------------------------------
    def explain(
        self, timings: "dict[int, dict[str, float]] | None" = None,
    ) -> str:
        """Human-readable plan: ops and per-op ledger units.

        ``timings`` (from a timed replay — ``Executor.replay(plan)
        ["op_timings"]``, keyed by op index) appends measured
        ``wall=``/``wire=`` columns per op, so the ledger's *load* story
        and the measured *time/bytes* story line up row by row.  A
        :class:`PrimSpan` line aggregates the timings of the ops it
        covers, same as its units column.
        """
        from repro.mpc.cluster import kind_split  # mpc imports plan, not back

        counts = self.op_counts()
        lines = [
            f"physical plan: {self.query}",
            (
                f"  kind={self.kind} algorithm={self.algorithm} "
                f"p={self.p} backend={self.backend}"
            ),
            (
                "  ops: "
                + ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
            ),
            (
                f"  ledger: {self.charged_units()} units over "
                f"{len(self.charges())} charge steps: "
                + kind_split((c.label, c.units) for c in self.charges())
            ),
        ]
        if timings is not None:
            total_wall = sum(t["wall"] for t in timings.values())
            total_wire = sum(t["wire"] for t in timings.values())
            lines.append(
                f"  timings: {_fmt_seconds(total_wall)} measured wall, "
                f"{_fmt_bytes(int(total_wire))} shipped "
                f"(timed replay, one round per op)"
            )

        def cols(i: int, end: int | None = None) -> str:
            if timings is None:
                return ""
            if end is None:
                t = timings.get(i)
                if t is None:
                    return ""
                wall, wire = t["wall"], t["wire"]
            else:
                covered = [
                    timings[j] for j in range(i, end) if j in timings
                ]
                if not covered:
                    return ""
                wall = sum(t["wall"] for t in covered)
                wire = sum(t["wire"] for t in covered)
            out = f"  wall={_fmt_seconds(wall)}"
            if wire:
                out += f" wire={_fmt_bytes(int(wire))}"
            return out

        for i, op in enumerate(self.ops):
            pad = "  " * (len(op.path) + 1)
            if isinstance(op, PrimSpan):
                posted = [
                    c for c in self.ops[op.start : op.end] if isinstance(c, Charge)
                ]
                units = sum(c.units for c in posted)
                # A sorted run paid for earlier in this execution moves nothing.
                reused = (
                    not posted and self.p > 1
                    and isinstance(op, SampleSort) and op.detail.startswith("run ")
                )
                lines.append(
                    f"{pad}[{op.kind}] {op.detail}  "
                    + ("reused" if reused else f"units={units}")
                    + cols(op.start, op.end)
                )
            elif isinstance(op, Charge):
                fam = f" x{len(op.members)}" if len(op.members) > 1 else ""
                lines.append(
                    f"{pad}{op.kind} {op.label}{fam}  units={op.units}"
                    + cols(i)
                )
            elif isinstance(op, MapParts):
                lines.append(f"{pad}MapParts {op.fn_ref}" + cols(i))
            else:
                lines.append(f"{pad}{op.kind} {getattr(op, 'detail', '')}")
        return "\n".join(lines)
