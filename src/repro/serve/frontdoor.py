"""The multi-replica front door: admission, routing, micro-batching.

Structure: the :class:`Frontdoor` owns N :class:`Engine` replicas, each
with its own backend instance (fresh worker pools via
:func:`~repro.mpc.backends.create_backend` — overlapping replica backend
I/O is the point of running replicas), one queue and one worker thread
draining that queue in micro-batches.

Life of a request (:meth:`Frontdoor.submit`):

1. **Routing.**  A stable hash of the query text picks the replica, so
   one text always lands on one replica and its result cache, plan cache
   and backend worker memos stay hot.  Every replica holds the whole
   catalog and serves bit-identical results.
2. **Admission.**  If that replica's backlog has reached ``shed_after``,
   the submit raises :class:`~repro.errors.AdmissionRejected`
   synchronously — nothing is enqueued.  Otherwise the request joins the
   replica queue and the caller gets a
   :class:`~concurrent.futures.Future`.
3. **Micro-batching.**  The replica worker gathers queued texts for
   ``batch_window`` seconds and hands them to :meth:`Engine.submit_batch`
   as they are.  The door parses and prepares nothing: every parse, bind
   or run failure is recorded once by the replica engine's own request
   body and embedded in its result, so one poisoned request cannot fail
   its batch-mates.

Thread-safety: one front-door lock guards the backlog counts and the
counters; engine locks are only ever taken without it (workers) or after
it (register), so the lock order is acyclic.
"""

from __future__ import annotations

import hashlib
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from repro.data.relation import Relation
from repro.engine.session import Engine, ExecutionResult
from repro.errors import AdmissionRejected, EngineError
from repro.mpc.backends import Backend, create_backend
from repro.obs import MetricsRegistry

__all__ = ["Frontdoor", "FrontdoorStats"]

#: Queue sentinel asking a replica worker to exit after the current batch.
_STOP = object()

#: Most requests one worker hands to one ``submit_batch`` call.
_BATCH_MAX = 16


@dataclass
class _Request:
    """One admitted request riding a replica queue."""

    text: str
    future: Future
    submitted: float


@dataclass
class FrontdoorStats:
    """Front-door counters (admission and batching).

    Registered as a registry *view* (the repo's idiom for counter
    families with their own locking), so ``repro_frontdoor_*`` gauges
    appear in every scrape of the shared registry.
    """

    replicas: int
    admitted: int = 0
    shed: int = 0
    batches: int = 0
    #: Requests that rode a batch beyond its first member — the requests
    #: whose dispatch the window actually coalesced.
    coalesced: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "replicas": self.replicas,
            "admitted": self.admitted,
            "shed": self.shed,
            "batches": self.batches,
            "coalesced": self.coalesced,
        }


class Frontdoor:
    """N engine replicas behind one admission/routing/batching door.

    Args:
        p: Simulated cluster size of every replica.
        replicas: Number of engine replicas.
        backend: Backend *name* (or ``None`` for the process default) —
            each replica gets a fresh instance, closed with the front
            door.  Passing a :class:`Backend` instance shares that one
            instance across all replicas (caller owns its lifetime).
        shed_after: Per-replica backlog bound; admission beyond it raises
            :class:`~repro.errors.AdmissionRejected`.
        batch_window: Seconds a replica worker waits to coalesce queued
            requests after the first (0 dispatches singles immediately).
        tracer: Passed through to every replica engine.
        **engine_kwargs: Forwarded to every :class:`Engine` (e.g.
            ``result_cache=False``).

    All replicas instrument into one :class:`~repro.obs.MetricsRegistry`
    (``self.registry``): its view merge sums their EngineStats and backend
    counters, and the door adds its own counters and a per-replica
    latency histogram.
    """

    def __init__(
        self,
        p: int = 8,
        replicas: int = 2,
        backend: "Backend | str | None" = None,
        shed_after: int = 64,
        batch_window: float = 0.002,
        tracer: Any = None,
        **engine_kwargs: Any,
    ) -> None:
        if replicas < 1:
            raise EngineError("a front door needs at least one replica")
        if shed_after < 1:
            raise EngineError("shed_after must be at least 1")
        self.p = p
        self.replicas = replicas
        self.shed_after = shed_after
        self.batch_window = max(0.0, batch_window)
        self.registry = MetricsRegistry()
        self._owned_backends: list[Backend] = []
        self.engines: list[Engine] = []
        for _ in range(replicas):
            be = create_backend(backend)
            if not isinstance(backend, Backend):
                self._owned_backends.append(be)
            self.engines.append(
                Engine(
                    p=p, backend=be, registry=self.registry, tracer=tracer,
                    **engine_kwargs,
                )
            )
        self._lock = threading.Lock()
        self._queues: list[queue_mod.Queue] = [
            queue_mod.Queue() for _ in range(replicas)
        ]
        self._pending = [0] * replicas
        self._stats = FrontdoorStats(replicas=replicas)
        self._closed = False
        self.registry.register_view(self._frontdoor_view)
        self._threads = [
            threading.Thread(
                target=self._worker, args=(i,),
                name=f"frontdoor-replica-{i}", daemon=True,
            )
            for i in range(replicas)
        ]
        for t in self._threads:
            t.start()

    def close(self) -> None:
        """Drain the queues, stop the workers, close owned backends.

        Admitted requests still queued are served before the workers
        exit: the stop sentinel is FIFO-ordered behind them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for q in self._queues:
            q.put(_STOP)
        for t in self._threads:
            t.join()
        for be in self._owned_backends:
            be.close()

    def __enter__(self) -> "Frontdoor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def register(self, relation: Relation, name: "str | None" = None) -> None:
        """Register a relation on every replica.

        Each engine's ``register`` drops its own plan entries, recordings
        and distributed relations that read the name.
        """
        with self._lock:
            if self._closed:
                raise EngineError("front door is closed")
            for engine in self.engines:
                engine.register(relation, name)

    def submit(self, text: str) -> Future:
        """Admit one request; returns a Future of its ExecutionResult.

        The future resolves to an :class:`ExecutionResult`; a request the
        engine could not parse, bind or run carries its error (check
        ``.ok``/``.error``), batch style.

        Raises:
            AdmissionRejected: The routed replica's backlog is at
                ``shed_after`` (nothing was enqueued).
            EngineError: The front door is closed.
        """
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        target = int.from_bytes(digest, "big") % self.replicas
        with self._lock:
            if self._closed:
                raise EngineError("front door is closed")
            if self._pending[target] >= self.shed_after:
                self._stats.shed += 1
                raise AdmissionRejected(
                    f"replica {target} backlog at shed_after="
                    f"{self.shed_after}; retry later"
                )
            self._pending[target] += 1
            self._stats.admitted += 1
            fut: Future = Future()
            self._queues[target].put(_Request(text, fut, time.monotonic()))
        return fut

    def execute(self, text: str) -> ExecutionResult:
        """Submit and wait; raises the embedded error on failure."""
        res = self.submit(text).result()
        if res.error is not None:
            raise res.error
        return res

    def _worker(self, i: int) -> None:
        q = self._queues[i]
        while True:
            item = q.get()
            if item is _STOP:
                return
            batch = [item]
            stop = False
            if self.batch_window > 0:
                horizon = time.monotonic() + self.batch_window
                while len(batch) < _BATCH_MAX:
                    remaining = horizon - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = q.get(timeout=remaining)
                    except queue_mod.Empty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    batch.append(nxt)
            self._run_batch(i, batch)
            if stop:
                return

    def _run_batch(self, i: int, batch: "list[_Request]") -> None:
        error: "Exception | None" = None
        try:
            results = self.engines[i].submit_batch([r.text for r in batch]).results
        except Exception as exc:
            # A non-ReproError escaped the engine after it recorded the
            # request: fail the whole batch rather than strand its futures.
            results, error = [None] * len(batch), exc
        with self._lock:
            self._pending[i] -= len(batch)
            self._stats.batches += 1
            self._stats.coalesced += len(batch) - 1
        hist = self.registry.histogram(
            "repro_frontdoor_replica_seconds",
            help="Front-door request latency (admission to completion).",
            replica=str(i),
        )
        now = time.monotonic()
        for req, res in zip(batch, results):
            hist.observe(now - req.submitted)
            if error is None:
                req.future.set_result(res)
            else:
                req.future.set_exception(error)

    def _frontdoor_view(self) -> dict[str, float]:
        with self._lock:
            s = self._stats
            return {
                "repro_frontdoor_replicas": s.replicas,
                "repro_frontdoor_admitted": s.admitted,
                "repro_frontdoor_shed": s.shed,
                "repro_frontdoor_batches": s.batches,
                "repro_frontdoor_coalesced": s.coalesced,
                "repro_frontdoor_pending": float(sum(self._pending)),
            }

    def stats(self) -> FrontdoorStats:
        """A snapshot copy of the front-door counters."""
        with self._lock:
            return FrontdoorStats(**self._stats.as_dict())

    def pending(self) -> tuple[int, ...]:
        """Per-replica backlog snapshot (admitted, not yet completed)."""
        with self._lock:
            return tuple(self._pending)

    def metrics_text(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()

    def __repr__(self) -> str:
        return (
            f"Frontdoor<replicas={self.replicas}, p={self.p}, "
            f"shed_after={self.shed_after}>"
        )
