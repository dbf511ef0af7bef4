"""The execution-backend contract behind :class:`~repro.mpc.cluster.Cluster`.

The paper's model (Section 1.1) fixes *what* an algorithm communicates —
``p`` servers exchanging tuples in rounds, charged by what each server
receives — but not *where* the per-server work of a simulation runs.  A
:class:`Backend` is that "where", and nothing else: it owns **per-server
local compute** (:meth:`Backend.run_ops`), applying pure functions to
every server's part inline, in worker processes, or anywhere else.

Message delivery and the load ledger are the model itself and never
reach a backend: :meth:`Group.exchange <repro.mpc.group.Group.exchange>`
delivers in process and posts its received counts to
:meth:`Cluster.tally_members <repro.mpc.cluster.Cluster.tally_members>`.

Everything a backend is *not* allowed to change is pinned down by the
conformance contract (see DESIGN.md and ``tests/conformance/``): for any
query and instance, every backend must produce

1. bit-identical outputs,
2. a bit-identical load ledger — ``load``, ``max_step_load``, ``steps``,
   per-server ``totals``, and the ``by_label`` breakdown, and
3. the same results when re-run (determinism: no wall-clock, PID, or
   scheduling dependence may leak into routing, ordering, or contents).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

__all__ = ["Backend"]


class Backend(ABC):
    """One way of executing a cluster's per-server compute.

    The registry (:mod:`repro.mpc.backends`) holds the serial,
    multiprocess and chaos backends; the differential conformance harness
    replays a query grid on each and diffs outputs and ledgers against
    the serial reference.
    """

    #: Registry name (set by subclasses).
    name: str = "?"

    #: Cumulative backend *request rounds* issued by the coordinator —
    #: one ``run_ops`` dispatch for in-process backends, one
    #: synchronized send/receive across the worker pool for
    #: process-backed ones.  Callers (engine metrics) read deltas of
    #: this counter; it never resets.
    requests: int = 0

    @abstractmethod
    def run_ops(
        self,
        ops: Sequence[tuple[Callable, Sequence[list], Any, Any]],
        meter: Any = None,
        span: Any = None,
    ) -> list[Any]:
        """Execute a batch of worker-local steps, in order.

        Each op is ``(fn, parts, common, owner)``: apply
        ``fn(part, common, index)`` to every part.  ``fn`` must be a
        *pure*, module-level function (process-shippable by qualified
        name) whose result depends only on ``(part, common, index)``;
        ``common`` must be picklable and hashable.  ``owner`` is the
        object (usually a :class:`~repro.mpc.distrel.DistRelation`)
        whose immutable ``parts`` these are; backends may use it to key
        worker-local caches and must treat it as opaque.  A backend
        should dispatch the whole batch in as few request round-trips as
        its transport allows (the multiprocess backend uses one).

        Args:
            ops: The chain of worker-local steps.
            meter: Optional :class:`~repro.obs.metrics.WireMeter` bumped
                for every payload this batch actually ships, attributing
                wire traffic to the calling query (the backend's
                cumulative ``wire_stats()`` counters are shared by all
                concurrent callers and cannot be).  In-process backends
                ship nothing and ignore it.
            span: Optional :class:`~repro.obs.tracing.Span` under which
                a process-backed backend parents its per-round/per-worker
                spans; ``None`` (untraced) means "emit nothing".

        Returns:
            Per op, the list of per-part results.
        """

    def map_parts(
        self,
        fn: Callable[[list, Any, int], Any],
        parts: Sequence[list],
        common: Any = None,
        owner: Any = None,
    ) -> list[Any]:
        """Apply ``fn(part, common, index)`` to every part: the one-op
        form of :meth:`run_ops`."""
        return self.run_ops([(fn, parts, common, owner)])[0]

    def close(self) -> None:
        """Release any resources (worker processes, pools).  Idempotent."""

    def wire_stats(self) -> dict:
        """Cumulative wire-level counters (bytes shipped across processes).

        In-process backends ship nothing and return ``{}``.  Backends that
        serialize parts report at least ``parts_shipped`` and
        ``bytes_shipped`` so callers (the engine's per-query metrics)
        can observe the wire cost of a computation.
        """
        return {}

    def fault_stats(self) -> dict:
        """Cumulative fault and recovery counters.

        In-process backends cannot fault and return ``{}``.  Supervised
        backends report at least ``worker_deaths``, ``round_timeouts``,
        ``respawns``, ``resubmitted_jobs``, and ``inline_degradations``;
        fault-injecting wrappers add ``injected_*`` counters.  Like
        :attr:`requests`, these are monotone — callers read deltas.
        Whatever a backend counts here, its *results* must stay inside the
        conformance contract: recovery may change wall-clock and request
        counts, never outputs or ledgers.
        """
        return {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}<{self.name}>"
