"""The plan executor: replay a recorded op schedule against a cluster.

A replay does two things, in this order:

* every :class:`~repro.plan.ir.Charge` re-posts its recorded member/count
  vectors through :meth:`Cluster.tally_members` — the *same* entry point
  the traced execution used — so the replayed
  :class:`~repro.mpc.cluster.LoadReport` matches the traced one bit for
  bit (load, step max, step count, totals, by-label);
* every bound :class:`~repro.plan.ir.MapParts` goes to the backend in ONE
  :meth:`Backend.run_ops` request with ``collect=False`` — the results
  are already pinned by the recording, so the backend only has to
  guarantee the worker-side effects (memo population) and may skip
  shipping result payloads back.  At replay no op reads another op's
  result (charges are replay-pure, outputs come from the recording), so
  plan order is the only constraint and one batch satisfies it.

Structural ops are no-ops.  The round is awaited before
:meth:`Executor.replay` returns: errors propagate from this replay, and
the caller's snapshot/metrics read a quiescent backend.

The replay contract (what a replay may and may not change) is stated in
DESIGN.md section 7; its validity condition — unchanged registered
relation versions — is enforced by the caller (the engine), exactly like
the result-cache rule of DESIGN.md 5.
"""

from __future__ import annotations

import time
from typing import Any

from repro.plan.ir import Charge, MapParts, PhysicalPlan

__all__ = ["Executor"]


class Executor:
    """Replays :class:`PhysicalPlan` objects against one cluster.

    Args:
        cluster: The (already reset, recorder-free) cluster to charge.
        meter: Optional :class:`~repro.obs.metrics.WireMeter` passed into
            the backend round, attributing this replay's shipped bytes
            to its query.
        span: Optional :class:`~repro.obs.tracing.Span` the backend
            parents its ``backend.round`` span under.
    """

    def __init__(
        self, cluster: Any, meter: Any = None, span: Any = None,
    ) -> None:
        self.cluster = cluster
        self.meter = meter
        self.span = span

    def replay(
        self, plan: PhysicalPlan, timed: bool = False
    ) -> dict[str, Any]:
        """Execute the plan; returns replay stats for the caller's metrics.

        The caller snapshots the cluster afterwards; the snapshot equals
        the traced execution's report exactly.

        With ``timed=True`` the fast path is abandoned for a measuring
        one (:meth:`_replay_timed`): every op runs as its own awaited
        round with per-op wall-clock and wire deltas collected into an
        ``op_timings`` entry of the stats — the engine of
        ``repro explain --timings``.
        """
        if timed:
            return self._replay_timed(plan)
        cluster = self.cluster
        backend = cluster.backend
        requests_before = backend.requests
        # Charges check the deadline inside tally_members, so an expired
        # deadline cancels between simulated rounds.
        for op in plan.charges():
            cluster.tally_members(op.members, op.counts, op.label)
        map_ops = plan.map_ops()
        # Shipped plans may carry *unbound* worker-local ops (fn=None):
        # mid-execution intermediates whose parts only existed in the
        # tracing engine.  They charge nothing and serve nothing —
        # outputs come from the recording — so skipping them costs
        # worker memo warmth only, never ledger or output fidelity.
        batch = [
            (op.fn, op.parts, op.common, op.owner)
            for op in map_ops
            if op.fn is not None
        ]
        if batch:
            backend.run_ops(
                batch, collect=False, meter=self.meter, span=self.span
            )
        # Covers plans with no charges at all.
        cluster.check_deadline()
        return {
            "ops": len(plan.ops),
            "map_ops": len(map_ops),
            "groups": 1 if map_ops else 0,
            "backend_requests": backend.requests - requests_before,
        }

    def _replay_timed(self, plan: PhysicalPlan) -> dict[str, Any]:
        """Measuring replay: one awaited round per op, wall/wire per op.

        Deliberately one round per op — a shared round would smear
        several ops' time together.  Runs with ``collect=True`` so the
        compute actually executes everywhere (serial's ``collect=False``
        fast path skips execution entirely, which would time nothing)
        and warm worker memo hits still pay their real
        request/result-shipping cost.  Ledger charges replay
        identically to the fast path — charging is collect-independent —
        so a timed replay still satisfies the replay contract.

        Returns the usual stats plus ``op_timings``: ``{op_index:
        {"wall": seconds, "wire": bytes}}`` for every Charge and MapParts
        op (structural ops take no time and get no entry).
        """
        from repro.obs.metrics import WireMeter

        cluster = self.cluster
        backend = cluster.backend
        meter = self.meter if self.meter is not None else WireMeter()
        requests_before = backend.requests
        op_timings: dict[int, dict[str, float]] = {}
        n_map = 0
        for i, op in enumerate(plan.ops):
            if isinstance(op, Charge):
                t0 = time.perf_counter()
                cluster.tally_members(op.members, op.counts, op.label)
                op_timings[i] = {"wall": time.perf_counter() - t0, "wire": 0}
            elif isinstance(op, MapParts):
                n_map += 1
                if op.fn is None:  # unbound (shipped) op — nothing to run
                    continue
                wire_before = meter.bytes
                t0 = time.perf_counter()
                backend.run_ops(
                    [(op.fn, op.parts, op.common, op.owner)],
                    collect=True, meter=meter, span=self.span,
                )
                op_timings[i] = {
                    "wall": time.perf_counter() - t0,
                    "wire": meter.bytes - wire_before,
                }
                cluster.check_deadline()
        return {
            "ops": len(plan.ops),
            "map_ops": n_map,
            "groups": n_map,
            "backend_requests": backend.requests - requests_before,
            "op_timings": op_timings,
        }
