"""The multi-replica front door: admission, routing, batching, shipping.

Structure: the :class:`Frontdoor` owns N :class:`Engine` replicas, each
with its own backend instance (fresh worker pools via
:func:`~repro.mpc.backends.create_backend` — overlapping replica backend
I/O is the point of running replicas), one unbounded queue per replica,
and one worker thread per replica draining that queue in micro-batches.

Life of a request (:meth:`Frontdoor.submit`):

1. **Parse + eligibility.**  The query text parses once (memoized); the
   eligible replicas are those whose catalog holds *every* relation the
   query binds (`register` tracks placement, supporting partitioned
   catalogs where different replicas hold different shards under one
   name).
2. **Routing.**  The query's canonical form + bindings hash to a *home*
   replica among the eligible — the same query always lands on the same
   replica, so its result cache, plan cache, and backend worker memos
   stay hot.  When the home's backlog reaches ``spill_after``, the
   request spills to the least-loaded eligible replica (hot-key relief);
   affinity is a performance hint, never a correctness requirement,
   because every eligible replica serves bit-identical results.
3. **Admission.**  If the chosen replica's backlog has reached
   ``shed_after``, the submit raises
   :class:`~repro.errors.AdmissionRejected` synchronously — nothing is
   enqueued.  Otherwise the request joins the replica queue and the
   caller gets a :class:`~concurrent.futures.Future`.
4. **Micro-batching.**  The replica worker gathers queued requests for
   ``batch_window`` seconds (up to ``batch_max``) and executes them as
   one :meth:`Engine.submit_batch` — per-query failures stay embedded in
   their results, so one poisoned request cannot fail its batch-mates.
5. **Plan shipping.**  After a batch, any query that executed *cold* is
   exported once as a prepared statement (query text + algorithm
   request) and installed into every other eligible replica that does
   not hold it yet.  The receiver prepares the statement — prices it on
   its *own* data — so a replica holding a different shard simply gets
   the plan its own data calls for, and its first request for the query
   is a plan-cache hit.  The plan index drops a query's entry whenever
   one of its relations is re-registered, so every data generation is
   shipped afresh.

Thread-safety: one front-door lock guards admission state (pending
counts, placement, plan index, stats); engine locks are only ever taken
*after* it (register) or without it (workers), never the other way
around, so the lock order is acyclic.
"""

from __future__ import annotations

import hashlib
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.data.relation import Relation
from repro.engine.parser import ParsedQuery, parse_query
from repro.engine.session import Engine, ExecutionResult
from repro.errors import (
    AdmissionRejected,
    EngineError,
    PlanShipError,
    ReproError,
)
from repro.mpc.backends import Backend, create_backend
from repro.obs import MetricsRegistry

__all__ = ["Frontdoor", "FrontdoorStats"]

#: Queue sentinel asking a replica worker to exit after the current batch.
_STOP = object()


@dataclass
class _Request:
    """One admitted request riding a replica queue."""

    parsed: ParsedQuery
    algorithm: str
    future: Future
    key: tuple
    replica: int
    submitted: float


@dataclass
class FrontdoorStats:
    """Front-door counters (admission, batching, plan shipping).

    Registered as a registry *view* (the repo's idiom for counter
    families with their own locking), so ``repro_frontdoor_*`` gauges
    appear in every scrape of the shared registry.
    """

    replicas: int
    admitted: int = 0
    shed: int = 0
    spilled: int = 0
    batches: int = 0
    #: Requests that rode a batch beyond its first member — the requests
    #: whose dispatch the window actually coalesced.
    coalesced: int = 0
    plans_shipped: int = 0
    plans_rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "replicas": self.replicas,
            "admitted": self.admitted,
            "shed": self.shed,
            "spilled": self.spilled,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "plans_shipped": self.plans_shipped,
            "plans_rejected": self.plans_rejected,
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
        spill_after: Home-replica backlog at which routing spills to the
            least-loaded eligible replica (defaults to ``batch_max`` — a
            backlog one full batch deep means the affinity win is
            already being paid for in queueing delay).
        batch_window: Seconds a replica worker waits to coalesce queued
            requests after the first (0 dispatches singles immediately).
        batch_max: Max requests per coalesced ``submit_batch`` call.
        ship_plans: Ship the plans of cold-executed queries to the other
            eligible replicas (the cross-replica plan index).  Off, every
            replica prepares every query on its own first request.
        registry: Shared :class:`~repro.obs.MetricsRegistry` (``None``
            creates one).  All replicas instrument into it — its view
            merge sums their EngineStats/backend counters — and the
            front door adds its own counters and per-replica latency
            histograms.
        tracer: Passed through to every replica engine.
        autostart: Start the replica workers immediately.  ``False``
            leaves the queues undrained until :meth:`start` — the
            deterministic setup for admission tests (fill to
            ``shed_after``, observe the shed) and staged deployments.
        **engine_kwargs: Forwarded to every :class:`Engine` (e.g.
            ``result_cache=False``).
    """

    def __init__(
        self,
        p: int = 8,
        replicas: int = 2,
        backend: "Backend | str | None" = None,
        shed_after: int = 64,
        spill_after: "int | None" = None,
        batch_window: float = 0.002,
        batch_max: int = 16,
        ship_plans: bool = True,
        registry: "MetricsRegistry | None" = None,
        tracer: Any = None,
        autostart: bool = True,
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
        self.batch_max = max(1, batch_max)
        self.spill_after = (
            spill_after if spill_after is not None else self.batch_max
        )
        self.ship_plans = ship_plans
        self.registry = registry if registry is not None else MetricsRegistry()
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
        #: relation name -> replica indices whose catalog holds it.
        self._placement: dict[str, set[int]] = {}
        #: (route key, algorithm) -> {relations, installed set}.
        self._plan_index: dict[tuple, dict[str, Any]] = {}
        self._parse_cache: dict[str, ParsedQuery] = {}
        self._stats = FrontdoorStats(replicas=replicas)
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self.registry.register_view(self._frontdoor_view)
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the replica workers (idempotent)."""
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
        self._threads = [
            threading.Thread(
                target=self._worker, args=(i,),
                name=f"frontdoor-replica-{i}", daemon=True,
            )
            for i in range(self.replicas)
        ]
        for t in self._threads:
            t.start()

    def close(self) -> None:
        """Drain the queues, stop the workers, close owned backends.

        Admitted requests still queued are served before the workers
        exit (the stop sentinel is FIFO-ordered behind them); with the
        workers never started, queued futures fail with
        :class:`~repro.errors.EngineError` instead of hanging forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            for q in self._queues:
                q.put(_STOP)
            for t in self._threads:
                t.join()
        else:
            for q in self._queues:
                while True:
                    try:
                        req = q.get_nowait()
                    except queue_mod.Empty:
                        break
                    if req is not _STOP:
                        req.future.set_exception(
                            EngineError(
                                "front door closed before its workers "
                                "started"
                            )
                        )
        for be in self._owned_backends:
            be.close()

    def __enter__(self) -> "Frontdoor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def register(
        self,
        relation: Relation,
        name: "str | None" = None,
        replicas: "Iterable[int] | None" = None,
    ) -> None:
        """Register a relation on all replicas (default) or a subset.

        Passing ``replicas`` builds partitioned catalogs: each replica
        can hold its own shard under the same name, and routing then
        only considers replicas holding *all* of a query's relations.
        Re-registering invalidates the plan index for every query that
        touches the name — engines already drop their own stale state
        per their version contract.
        """
        name = name or relation.name
        targets = (
            list(range(self.replicas)) if replicas is None
            else sorted(set(replicas))
        )
        bad = [j for j in targets if not 0 <= j < self.replicas]
        if bad:
            raise EngineError(
                f"no such replica {bad} (have 0..{self.replicas - 1})"
            )
        with self._lock:
            if self._closed:
                raise EngineError("front door is closed")
            for j in targets:
                self.engines[j].register(relation, name)
            self._placement.setdefault(name, set()).update(targets)
            stale = [
                k for k, v in self._plan_index.items()
                if name in v["relations"]
            ]
            for k in stale:
                del self._plan_index[k]

    def placement(self) -> dict[str, tuple[int, ...]]:
        """Relation name -> replica indices holding it (snapshot)."""
        with self._lock:
            return {n: tuple(sorted(r)) for n, r in self._placement.items()}

    # ------------------------------------------------------------------
    # Admission + routing
    # ------------------------------------------------------------------
    def _parse(self, query: "str | ParsedQuery") -> ParsedQuery:
        if isinstance(query, ParsedQuery):
            return query
        parsed = self._parse_cache.get(query)
        if parsed is None:
            parsed = parse_query(query)
            if len(self._parse_cache) < 4096:
                self._parse_cache[parsed.text] = parsed
                if query != parsed.text:
                    self._parse_cache[query] = parsed
        return parsed

    def _route_key(self, parsed: ParsedQuery) -> tuple:
        # Same identity the engine plan cache uses (minus algorithm):
        # canonical form + order-insensitive bindings, so `Q(A,B) :- ...`
        # under any atom order routes to one replica.
        return (
            parsed.canonical(),
            tuple(sorted(parsed.bindings, key=lambda b: b.edge)),
        )

    def _eligible_locked(self, parsed: ParsedQuery) -> list[int]:
        eligible = set(range(self.replicas))
        for b in parsed.bindings:
            eligible &= self._placement.get(b.relation, set())
            if not eligible:
                break
        return sorted(eligible)

    def submit(
        self, query: "str | ParsedQuery", algorithm: str = "auto"
    ) -> Future:
        """Admit one request; returns a Future of its ExecutionResult.

        The future resolves to an :class:`ExecutionResult` (check
        ``.ok``/``.error`` — engine-side failures are embedded, batch
        style) or raises the prepare-time error for malformed algorithm
        requests.

        Raises:
            AdmissionRejected: The routed replica's backlog is at
                ``shed_after`` (nothing was enqueued).
            EngineError: No replica holds all of the query's relations,
                or the front door is closed.
            ParseError: The query text does not parse.
        """
        with self._lock:
            if self._closed:
                raise EngineError("front door is closed")
            parsed = self._parse(query)
            eligible = self._eligible_locked(parsed)
            if not eligible:
                names = sorted({b.relation for b in parsed.bindings})
                raise EngineError(
                    f"no replica holds all relations {names} "
                    f"(placement: { {n: sorted(r) for n, r in self._placement.items()} })"
                )
            key = self._route_key(parsed)
            digest = hashlib.blake2b(
                repr(key).encode(), digest_size=8
            ).digest()
            home = eligible[int.from_bytes(digest, "big") % len(eligible)]
            target = home
            if self._pending[home] >= self.spill_after and len(eligible) > 1:
                least = min(eligible, key=lambda j: self._pending[j])
                if self._pending[least] < self._pending[home]:
                    target = least
                    self._stats.spilled += 1
            if self._pending[target] >= self.shed_after:
                self._stats.shed += 1
                raise AdmissionRejected(
                    f"replica {target} backlog at shed_after="
                    f"{self.shed_after}; retry later"
                )
            self._pending[target] += 1
            self._stats.admitted += 1
            fut: Future = Future()
            self._queues[target].put(
                _Request(
                    parsed=parsed, algorithm=algorithm, future=fut,
                    key=key, replica=target, submitted=time.monotonic(),
                )
            )
            return fut

    def submit_many(
        self,
        queries: Sequence["str | ParsedQuery"],
        algorithm: str = "auto",
        best_effort: bool = False,
    ) -> list[Future]:
        """Admit many requests; returns one Future per query, in order.

        With ``best_effort`` a shed (or ineligible) request yields a
        Future already failed with its admission error instead of
        aborting the remaining submissions — the heavy-traffic benchmark
        shape, where shed load is a data point, not an exception.
        """
        futures: list[Future] = []
        for q in queries:
            try:
                futures.append(self.submit(q, algorithm))
            except (AdmissionRejected, EngineError) as exc:
                if not best_effort:
                    raise
                fut: Future = Future()
                fut.set_exception(exc)
                futures.append(fut)
        return futures

    def execute(
        self, query: "str | ParsedQuery", algorithm: str = "auto"
    ) -> ExecutionResult:
        """Submit and wait; raises the embedded error on failure."""
        res = self.submit(query, algorithm).result()
        if res.error is not None:
            raise res.error
        return res

    # ------------------------------------------------------------------
    # Replica workers
    # ------------------------------------------------------------------
    def _worker(self, i: int) -> None:
        q = self._queues[i]
        engine = self.engines[i]
        while True:
            item = q.get()
            if item is _STOP:
                return
            batch = [item]
            stop = False
            if self.batch_window > 0 and self.batch_max > 1:
                horizon = time.monotonic() + self.batch_window
                while len(batch) < self.batch_max:
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
            self._run_batch(i, engine, batch)
            if stop:
                return

    def _run_batch(
        self, i: int, engine: Engine, batch: "list[_Request]"
    ) -> None:
        entries: list[Any] = []
        ready: list[_Request] = []
        for req in batch:
            try:
                entries.append(
                    req.parsed if req.algorithm == "auto"
                    else engine.prepare(req.parsed, req.algorithm)
                )
            except ReproError as exc:
                # Prepare-time failure (unknown algorithm, missing
                # relation): the future carries the exception itself.
                self._finish(i, req)
                req.future.set_exception(exc)
                continue
            ready.append(req)
        results: list[ExecutionResult] = []
        if entries:
            report = engine.submit_batch(entries)
            results = report.results
        hist = self.registry.histogram(
            "repro_frontdoor_replica_seconds",
            help="Front-door request latency (admission to completion).",
            replica=str(i),
        )
        now = time.monotonic()
        for req, res in zip(ready, results):
            self._finish(i, req)
            hist.observe(now - req.submitted)
            req.future.set_result(res)
        with self._lock:
            self._stats.batches += 1
            self._stats.coalesced += len(batch) - 1
        if self.ship_plans:
            self._ship_cold_plans(i, engine, ready, results)

    def _finish(self, i: int, req: _Request) -> None:
        with self._lock:
            self._pending[i] -= 1

    # ------------------------------------------------------------------
    # Cross-replica plan index
    # ------------------------------------------------------------------
    def _ship_cold_plans(
        self,
        i: int,
        engine: Engine,
        ready: "list[_Request]",
        results: "list[ExecutionResult]",
    ) -> None:
        """Export the plan of each cold-executed query of the batch to its
        peers.

        Runs after the batch's futures resolve (shipping never adds
        request latency) on the replica worker, so installs into peer
        engines take one engine lock at a time — no nesting, no
        deadlock.  The statement for one (query, algorithm) never
        changes, so a plan is installed at most once per replica per
        data generation (``register`` drops the index entry).
        """
        shipped: set[tuple] = set()
        for req, res in zip(ready, results):
            m = res.metrics
            if not res.ok or m.result_cached:
                continue
            index_key = (req.key, req.algorithm)
            if index_key in shipped:
                continue
            shipped.add(index_key)
            try:
                blob = engine.export_plan(req.parsed, req.algorithm)
            except ReproError:
                # The plan entry is already gone (caches cleared): peers
                # prepare on their own first request — correct, just not
                # warmed.
                continue
            relations = frozenset(b.relation for b in req.parsed.bindings)
            with self._lock:
                eligible = self._eligible_locked(req.parsed)
                entry = self._plan_index.setdefault(
                    index_key, {"relations": relations, "installed": set()}
                )
                entry["installed"].add(i)
                targets = [
                    j for j in eligible
                    if j != i and j not in entry["installed"]
                ]
            for j in targets:
                try:
                    self.engines[j].install_plan(blob)
                except PlanShipError:
                    # The peer cannot prepare the query (e.g. a shard with
                    # another arity): it stays unprepared, which is always
                    # safe.
                    with self._lock:
                        self._stats.plans_rejected += 1
                else:
                    with self._lock:
                        entry["installed"].add(j)
                        self._stats.plans_shipped += 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _frontdoor_view(self) -> dict[str, float]:
        with self._lock:
            s = self._stats
            return {
                "repro_frontdoor_replicas": s.replicas,
                "repro_frontdoor_admitted": s.admitted,
                "repro_frontdoor_shed": s.shed,
                "repro_frontdoor_spilled": s.spilled,
                "repro_frontdoor_batches": s.batches,
                "repro_frontdoor_coalesced": s.coalesced,
                "repro_frontdoor_plans_shipped": s.plans_shipped,
                "repro_frontdoor_plans_rejected": s.plans_rejected,
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
            f"shed_after={self.shed_after}, batch_max={self.batch_max}>"
        )
