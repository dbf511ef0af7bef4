"""The plan executor: a measured replay of a recorded op schedule.

A replay walks the plan in order, one awaited round per op:

* every :class:`~repro.plan.ir.Charge` re-posts its recorded member/count
  vectors through :meth:`Cluster.tally_members` — the *same* entry point
  the traced execution used — so the replayed
  :class:`~repro.mpc.cluster.LoadReport` matches the traced one bit for
  bit (load, step max, step count, totals, by-label);
* every :class:`~repro.plan.ir.MapParts` re-issues its compute as its
  own :meth:`Backend.run_ops` request, so the backend really executes it
  (warm worker memo hits still pay their request/result-shipping cost).

Each Charge and MapParts op gets its wall-clock time and shipped wire
bytes recorded; a shared round would smear several ops' time together.
Structural ops are no-ops.  This is the engine of ``repro explain
--timings``; the serving path never replays (DESIGN.md section 7).
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import WireMeter
from repro.plan.ir import Charge, MapParts, PhysicalPlan

__all__ = ["Executor"]


class Executor:
    """Replays :class:`PhysicalPlan` objects against one cluster.

    Args:
        cluster: The (already reset, recorder-free) cluster to charge.
    """

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster

    def replay(self, plan: PhysicalPlan) -> dict[str, Any]:
        """Execute the plan one round per op, timing every op.

        The caller snapshots the cluster afterwards; the snapshot equals
        the traced execution's report exactly.  Returns ``ops``,
        ``map_ops``, ``backend_requests`` and ``op_timings``:
        ``{op_index: {"wall": seconds, "wire": bytes}}`` for every
        Charge and MapParts op (structural ops take no time and get no
        entry).
        """
        cluster = self.cluster
        backend = cluster.backend
        meter = WireMeter()
        requests_before = backend.requests
        op_timings: dict[int, dict[str, float]] = {}
        n_map = 0
        for i, op in enumerate(plan.ops):
            if isinstance(op, Charge):
                t0 = time.perf_counter()
                # Checks the deadline, so expiry cancels between rounds.
                cluster.tally_members(op.members, op.counts, op.label)
                op_timings[i] = {"wall": time.perf_counter() - t0, "wire": 0}
            elif isinstance(op, MapParts):
                n_map += 1
                wire_before = meter.bytes
                t0 = time.perf_counter()
                backend.run_ops(
                    [(op.fn, op.parts, op.common, op.owner)], meter=meter
                )
                op_timings[i] = {
                    "wall": time.perf_counter() - t0,
                    "wire": meter.bytes - wire_before,
                }
                cluster.check_deadline()
        return {
            "ops": len(plan.ops),
            "map_ops": n_map,
            "backend_requests": backend.requests - requests_before,
            "op_timings": op_timings,
        }
