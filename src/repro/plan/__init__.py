"""The physical plan layer: trace op schedules for ``explain``.

The paper's algorithms (Theorems 3/7/9, Section 4.2) are compositions of
a small vocabulary of O(1)-round linear-load primitives.  The drivers in
:mod:`repro.core` string those primitives together with Python control
flow — classification, heavy/light decisions, recursion over join
forests.  This package makes the *result* of that control flow a
first-class object:

* :mod:`repro.plan.ir` — dataclass ops mirroring the primitive
  vocabulary (`Exchange`, `MapParts`, `SampleSort`, `FoldByKey`,
  `SearchRows`, `SemiJoin`, `MatchKeys`, `AttachDegrees`,
  `Broadcast`, plus structural `Subgroup`/`GridLines`) and the
  `PhysicalPlan` that sequences them.
* :mod:`repro.plan.trace` — a `TraceRecorder` that captures the op
  sequence as a driver executes (installed as ``Cluster.recorder``).
* :mod:`repro.plan.executor` — the `Executor` replaying a recorded plan
  one measured round per op against a cluster/backend, with a
  bit-identical ledger (``explain --timings``).

The serving path records no plan: ``Engine.explain`` traces one on a
scratch serial cluster when asked.  See DESIGN.md section 7.
"""

from repro.plan.executor import Executor
from repro.plan.ir import (
    AttachDegrees,
    Broadcast,
    Charge,
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
from repro.plan.trace import TraceRecorder, prim_span

__all__ = [
    "AttachDegrees",
    "Broadcast",
    "Charge",
    "Exchange",
    "Executor",
    "FoldByKey",
    "GridLines",
    "MapParts",
    "MatchKeys",
    "Op",
    "PhysicalPlan",
    "PrimSpan",
    "SampleSort",
    "SearchRows",
    "SemiJoin",
    "Subgroup",
    "TraceRecorder",
    "prim_span",
]
