"""The execution-backend contract behind :class:`~repro.mpc.cluster.Cluster`.

The paper's model (Section 1.1) fixes *what* an algorithm communicates —
``p`` servers exchanging tuples in rounds — but not *how* a simulation
executes the per-server work.  A :class:`Backend` is that "how": it owns

* **message delivery** (:meth:`Backend.exchange`) — materializing inboxes
  from outboxes for one exchange step, and
* **per-server local compute** (:meth:`Backend.map_parts`) — applying a
  pure function to every server's part, which a backend may run anywhere
  (inline, in worker processes, eventually on remote executors).

Everything a backend is *not* allowed to change is pinned down by the
conformance contract (see DESIGN.md and ``tests/conformance/``): for any
query and instance, every backend must produce

1. bit-identical outputs,
2. a bit-identical load ledger — ``load``, ``max_step_load``, ``steps``,
   per-server ``totals``, and the ``by_label`` breakdown, and
3. the same results when re-run (determinism: no wall-clock, PID, or
   scheduling dependence may leak into routing, ordering, or contents).

The ledger itself (:class:`~repro.mpc.cluster.Cluster`) never moves into a
backend — backends return the per-destination received counts from
:meth:`exchange` and the cluster tallies them, so load accounting is
shared, auditable code no backend can get subtly wrong.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Sequence

__all__ = ["Backend", "deliver_local"]


def deliver_local(
    outboxes: Sequence[Iterable[tuple[int, Any]]],
    size: int,
    count_self: bool,
) -> tuple[list[list[Any]], list[int]]:
    """Reference message delivery: sender-order inboxes + received counts.

    Shared by the in-process backends so the delivery semantics (ordering,
    destination validation, self-message accounting) are defined exactly
    once.  Raises :class:`~repro.errors.MPCError` on an out-of-range
    destination.
    """
    from repro.errors import MPCError

    inboxes: list[list[Any]] = [[] for _ in range(size)]
    appends = [box.append for box in inboxes]
    counts = [0] * size
    for src, box in enumerate(outboxes):
        for dst, payload in box:
            if dst < 0 or dst >= size:
                raise MPCError(f"destination {dst} out of range [0, {size})")
            appends[dst](payload)
            if dst != src or count_self:
                counts[dst] += 1
    return inboxes, counts


class Backend(ABC):
    """One way of executing a cluster's per-server compute and exchanges.

    Subclasses must be registered with
    :func:`repro.mpc.backends.register_backend` to participate in the
    differential conformance harness; the harness replays a query grid on
    every registered backend and diffs outputs and ledgers against the
    serial reference.
    """

    #: Registry name (set by subclasses).
    name: str = "?"

    #: Cumulative backend *request rounds* issued by the coordinator —
    #: one ``map_parts``/``run_ops`` dispatch for in-process backends,
    #: one synchronized send/receive across the worker pool for
    #: process-backed ones.  Callers (engine metrics) read deltas of
    #: this counter; it never resets.
    requests: int = 0

    @abstractmethod
    def exchange(
        self,
        outboxes: Sequence[Iterable[tuple[int, Any]]],
        size: int,
        count_self: bool,
    ) -> tuple[list[list[Any]], list[int]]:
        """Deliver one exchange step.

        Args:
            outboxes: ``outboxes[i]`` holds ``(dst, payload)`` messages sent
                by local server ``i``.
            size: Number of local servers.
            count_self: Whether self-messages cost a unit.

        Returns:
            ``(inboxes, counts)``: received payloads per server in sender
            order, and the units received per server for the ledger.
        """

    @abstractmethod
    def map_parts(
        self,
        fn: Callable[[list, Any, int], Any],
        parts: Sequence[list],
        common: Any = None,
        owner: Any = None,
    ) -> list[Any]:
        """Apply ``fn(part, common, index)`` to every part; return the results.

        ``fn`` must be a *pure*, module-level function (process-shippable by
        qualified name) whose result depends only on ``(part, common,
        index)``.  ``common`` must be picklable and hashable.  ``owner`` is
        the object (usually a :class:`~repro.mpc.distrel.DistRelation`)
        whose immutable ``parts`` these are; backends may use it to key
        worker-local caches and must treat it as opaque.
        """

    def run_ops(
        self,
        ops: Sequence[tuple[Callable, Sequence[list], Any, Any]],
        meter: Any = None,
        span: Any = None,
    ) -> list[Any]:
        """Execute a batch of worker-local steps.

        Each op is the argument tuple of one :meth:`map_parts` call —
        ``(fn, parts, common, owner)`` — and the batch executes in order.
        A backend should dispatch the whole batch in as few request
        round-trips as its transport allows (the multiprocess backend
        uses one); the base implementation is the trivial loop, one
        ``map_parts`` request per op.

        Args:
            ops: The chain of worker-local steps.
            meter: Optional :class:`~repro.obs.metrics.WireMeter` bumped
                for every payload this batch actually ships, attributing
                wire traffic to the calling query (the backend's
                cumulative ``wire_stats()`` counters are shared by all
                concurrent callers and cannot be).  In-process backends
                ship nothing and ignore it.
            span: Optional :class:`~repro.obs.tracing.Span` (or the null
                sentinel) under which a process-backed backend parents
                its per-round/per-worker spans.  Backends must treat a
                span with ``recording`` False — or ``None`` — as "emit
                nothing".

        Returns:
            Per-op results (``map_parts`` return values).
        """
        return [
            self.map_parts(fn, parts, common, owner)
            for fn, parts, common, owner in ops
        ]

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
