"""The physical plan layer: trace and replay op schedules.

The paper's algorithms (Theorems 3/7/9, Section 4.2) are compositions of
a small vocabulary of O(1)-round linear-load primitives.  The drivers in
:mod:`repro.core` string those primitives together with Python control
flow — classification, heavy/light decisions, recursion over join
forests.  This package makes the *result* of that control flow a
first-class object:

* :mod:`repro.plan.ir` — dataclass ops mirroring the primitive
  vocabulary (`Exchange`, `MapParts`, `SampleSort`, `FoldByKey`,
  `SearchRows`, `NumberRows`, `SemiJoin`, `AttachDegrees`, `Broadcast`,
  plus structural `Subgroup`/`GridLines`) and the `PhysicalPlan` that
  sequences them.
* :mod:`repro.plan.trace` — a `TraceRecorder` that captures the op
  sequence as a driver executes (installed as ``Cluster.recorder``).
* :mod:`repro.plan.executor` — the `Executor` replaying a recorded plan
  against a cluster/backend with a bit-identical ledger.
* :mod:`repro.plan.ship` — the versioned wire format that turns a traced
  plan into portable bytes one engine can export and another install
  (the serving tier's plan-shipping substrate, DESIGN.md section 10).

See DESIGN.md section 7 for the trace/replay contract.
"""

from repro.plan.executor import Executor
from repro.plan.ship import (
    SHIP_VERSION,
    decode_plan,
    encode_plan,
    plan_digest,
    register_shippable,
    relation_digest,
    resolve_fn,
)
from repro.plan.ir import (
    AttachDegrees,
    Broadcast,
    Charge,
    Exchange,
    FoldByKey,
    GridLines,
    MapParts,
    NumberRows,
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
    "NumberRows",
    "Op",
    "PhysicalPlan",
    "PrimSpan",
    "SHIP_VERSION",
    "SampleSort",
    "SearchRows",
    "SemiJoin",
    "Subgroup",
    "TraceRecorder",
    "decode_plan",
    "encode_plan",
    "plan_digest",
    "prim_span",
    "register_shippable",
    "relation_digest",
    "resolve_fn",
]
