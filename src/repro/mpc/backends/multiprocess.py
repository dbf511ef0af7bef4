"""Shared-nothing worker-process backend with worker supervision.

Runs the per-server compute stages (:meth:`Backend.run_ops`) on a pool
of long-lived worker processes.
Design points:

* **Shared-nothing workers.**  Workers receive pure work items as pickled
  batches — one request per worker per round — and hold no simulator
  state beyond their local caches.  All coordination (exchange routing,
  splitters, the load ledger) stays in the coordinator process, so the
  ledger and every routing decision are byte-identical to the serial
  reference by construction.
* **Batched op rounds.**  One request carries a whole *chain* of
  map-parts-shaped steps (``("ops", [(fn_ref, common_bytes, jobs), ...],
  trace_ctx)``), so a chain executes in a single IPC round-trip instead
  of one per step; a plain ``map_parts`` call is the one-step special
  case of the same protocol.
  The cumulative round count is observable as :attr:`Backend.requests`.
* **Worker supervision.**  Every round is bounded by a configurable
  ``round_timeout``: the coordinator polls worker pipes instead of
  blocking, so a worker that died (broken pipe, EOF) or hangs past the
  timeout is detected, killed if needed, and **respawned alone** — the
  rest of the pool keeps its processes and caches.  Replies already
  received in the failed round are kept; only the failed worker's
  unacknowledged slice is resubmitted, bounded by ``retry_budget``
  resubmission rounds with exponential backoff.  When the budget is
  spent the remaining slice always runs inline in the coordinator
  rather than failing the query.  This respawn -> resubmit -> inline
  ladder is the only place a fault is recovered: each rung recomputes
  the same pure function on the same immutable parts, so outputs and
  ledgers are bit-identical to the fault-free run (the conformance
  grid enforces this under the ``chaos`` backend).
  Recovery events are observable via :meth:`fault_stats`.
* **Deterministic part affinity.**  Part ``i`` always goes to worker
  ``i mod W``, so repeated computations over the same immutable parts hit
  the same worker.
* **Worker-local content-addressed caches.**  When the caller identifies
  the owning relation (``owner=``), parts are fingerprinted by content and
  each worker memoizes ``(fn, common, fingerprint, index) -> pickled
  result``.  A part is shipped to its worker at most once per content; a
  repeated computation — including one on a *fresh* ``DistRelation``
  carrying the same rows, which the coordinator-side substrate caches
  (keyed by object identity) cannot catch — costs one tiny request plus the
  result bytes.  This is the cross-request analogue of the substrate's
  sorted-run cache, kept worker-local exactly so no shared mutable state
  exists between processes.  The coordinator mirrors each worker's LRU
  bookkeeping, so cache handshakes never need an extra round trip; a
  respawned worker's mirror is cleared, so its memo re-seeds lazily as
  parts are next used.
* **Columnar wire format.**  Parts cross the process boundary as the
  compact blobs of :func:`repro.data.columns.pack_blob` — per-column
  minimal-width arrays with shared dictionaries and optional zlib —
  instead of pickled tuple lists.  Owners that are columnar-backed
  (:class:`~repro.mpc.distrel.DistRelation`) supply pre-encoded, cached
  blobs directly; everything else is packed at ship time, with a pickle
  fallback inside the blob for rows the columnar form cannot represent.
  Decoding is an exact round-trip, so workers compute on *identical* row
  lists and results cannot differ from the serial reference.  The
  cumulative cost of shipped parts is observable via :meth:`wire_stats`.
* **Message delivery stays in the coordinator.**  Exchange outboxes
  are built by coordinator-side algorithm code against coordinator-held
  parts and delivered by :meth:`Group.exchange
  <repro.mpc.group.Group.exchange>`; routing them through workers would
  serialize every payload twice for zero compute gain.

Anything unpicklable (closures, exotic row values) falls back to inline
execution, keeping behaviour identical at the cost of the speedup.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading
import time
from collections import OrderedDict
from hashlib import blake2b
from typing import Any, Callable, Sequence

from repro.data.columns import pack_blob, unpack_blob
from repro.errors import MPCError, RoundTimeout, WorkerDied
from repro.mpc.backends.base import Backend

__all__ = ["MultiprocessBackend"]

_PROTO = pickle.HIGHEST_PROTOCOL

#: Max memoized results per worker (LRU).  Mirrored by the coordinator.
_CACHE_ENTRIES = 256


def _resolve_fn(ref: str) -> Callable:
    """Import ``"module:qualname"`` (worker-side function lookup)."""
    import importlib

    mod_name, _, qual = ref.partition(":")
    obj: Any = importlib.import_module(mod_name)
    for attr in qual.split("."):
        obj = getattr(obj, attr)
    return obj


#: Sentinel for "this step's common has not been decoded yet" — decoding
#: is deferred until a job actually computes, so an all-hit round never
#: unpickles the common at all.
_UNSET = object()


def _worker_main(conn, sys_path: list[str], cache_entries: int) -> None:
    """Worker loop: batched op requests in, per-job pickled replies out.

    A request is ``("ops", steps, ctx)``; each step is ``(fn_ref,
    common_spec, jobs)`` and each job ``(idx, fingerprint, part_blob)``
    where ``part_blob`` is the part's wire blob
    (:func:`repro.data.columns.pack_blob` — columnar when possible,
    pickled rows otherwise; ``None`` for a key-only job the coordinator
    believes is cached).  ``common_spec`` is the pickled ``common``.  The
    cache maps ``(fn_ref, common_spec, fingerprint, idx)`` to the
    *pickled* reply, so a warm hit performs no (de)serialization at all —
    the cached bytes are sent as-is, and neither ``fn`` nor ``common`` is
    even resolved unless some job in the step actually computes.  A
    key-only job that misses the cache (the coordinator's mirror is
    best-effort) is answered with a ``"miss"`` reply, never an error; the
    coordinator re-sends the part.

    ``ctx`` is the coordinator's trace context — ``(trace_id, span_id)``
    when the calling query is being traced, else ``None``.  The worker
    never opens spans of its own (it has no sink and must stay
    shared-nothing): it measures its decode and compute time with
    ``perf_counter``, aggregates per step, and echoes both back in the
    success header ``("ok", n_replies, step_timings, ctx)`` where
    ``step_timings[s]`` is ``(decode_seconds, compute_seconds,
    jobs_computed, cache_hits)`` for step ``s``.  The coordinator owns
    the ``worker.round`` span and attaches these numbers to it — which
    is also how timings survive worker respawns: the parent span lives
    in the coordinator, and a respawned worker just contributes a fresh
    child.  Timings are measured unconditionally (two clock reads per
    computed job, noise next to a pickle decode) so the protocol has a
    single shape; with ``ctx`` None the coordinator discards them.

    A ``("sleep", seconds)`` request stalls the loop — the fault-injection
    hook the ``chaos`` backend uses to emulate a hung worker.  A request
    that fails to decode (corrupted bytes) terminates the worker quietly:
    the broken pipe is the coordinator's death signal, and the supervisor
    respawns.  Likewise a send on a pipe the supervisor already replaced
    (the worker was declared hung) exits quietly instead of tracebacking.
    """
    for path in sys_path:
        if path not in sys.path:
            sys.path.append(path)
    fns: dict[str, Callable] = {}
    cache: OrderedDict[tuple, bytes] = OrderedDict()
    while True:
        try:
            req = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        except Exception:  # noqa: BLE001 - corrupt request: die, be respawned
            return
        if req[0] == "stop":
            conn.close()
            return
        if req[0] == "sleep":
            time.sleep(req[1])
            continue
        _kind, steps, ctx = req
        replies: list[bytes] = []
        step_timings: list[tuple[float, float, int, int]] = []
        try:
            for fn_ref, common_spec, jobs in steps:
                fn: Callable | None = None
                common: Any = _UNSET
                decode_s = compute_s = 0.0
                computed = hits = 0
                for idx, fingerprint, part_blob in jobs:
                    key = None
                    if fingerprint is not None:
                        key = (fn_ref, common_spec, fingerprint, idx)
                        hit = cache.get(key)
                        if hit is not None:
                            cache.move_to_end(key)
                            hits += 1
                            replies.append(hit)
                            continue
                        if part_blob is None:
                            replies.append(
                                pickle.dumps((idx, "miss", None), _PROTO)
                            )
                            continue
                    if fn is None:
                        fn = fns.get(fn_ref)
                        if fn is None:
                            fn = fns[fn_ref] = _resolve_fn(fn_ref)
                    t0 = time.perf_counter()
                    if common is _UNSET:
                        common = pickle.loads(common_spec)
                    part = unpack_blob(part_blob)
                    t1 = time.perf_counter()
                    value = fn(part, common, idx)
                    t2 = time.perf_counter()
                    decode_s += t1 - t0
                    compute_s += t2 - t1
                    computed += 1
                    blob = pickle.dumps((idx, "ok", value), _PROTO)
                    if key is not None:
                        cache[key] = blob
                        if len(cache) > cache_entries:
                            cache.popitem(last=False)
                    replies.append(blob)
                step_timings.append((decode_s, compute_s, computed, hits))
        except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
            try:
                conn.send_bytes(pickle.dumps(("err", repr(exc)), _PROTO))
            except OSError:
                return
            continue
        try:
            conn.send_bytes(
                pickle.dumps(("ok", len(replies), step_timings, ctx), _PROTO)
            )
            for blob in replies:
                conn.send_bytes(blob)
        except OSError:
            return


class _WorkerGone(Exception):
    """Internal: one worker left a round (dead pipe or hung past timeout)."""

    def __init__(self, fault: "WorkerDied | RoundTimeout") -> None:
        self.fault = fault


class MultiprocessBackend(Backend):
    """Execute per-server compute on a supervised pool of worker processes.

    Args:
        workers: Pool size; defaults to ``min(cpu_count, 8)``.  Workers are
            started lazily on the first shipped computation and shut down
            via :meth:`close` (also registered with :mod:`atexit`).
        round_timeout: Seconds the coordinator waits on a worker's round
            replies before declaring it hung (killed + respawned, slice
            resubmitted).  ``None`` (or a non-positive value) disables
            the watchdog.
        retry_budget: Resubmission rounds allowed after worker faults
            before the remaining slice runs inline in the coordinator
            (a degraded round, never a failed query).
        backoff_base: First-retry backoff in seconds; doubles per fault
            round (capped at 2s).  0 disables sleeping.
    """

    name = "multiprocess"

    def __init__(
        self,
        workers: int | None = None,
        round_timeout: float | None = 60.0,
        retry_budget: int = 3,
        backoff_base: float = 0.05,
    ) -> None:
        if workers is not None and workers < 1:
            raise MPCError(f"need at least one worker, got {workers}")
        self.workers = workers or max(1, min(os.cpu_count() or 1, 8))
        self.round_timeout = (
            round_timeout if round_timeout and round_timeout > 0 else None
        )
        self.retry_budget = max(0, retry_budget)
        self.backoff_base = backoff_base
        self._conns: list[Any] | None = None
        self._procs: list[Any] = []
        self._ctx: Any = None
        self._src_paths: list[str] = []
        # Serializes whole rounds: one instance may be driven from several
        # threads (front-door replicas sharing a backend, explain timings
        # beside serving), and the worker pipes + mirrors are not
        # otherwise thread-safe.  Reentrant so subclasses can nest.
        self._io_lock = threading.RLock()
        # Guards the cumulative wire/fault counters and their snapshot
        # copies.  Distinct from _io_lock: stats are read by observers
        # (engine views, `repro stats`) while a round holds the I/O lock,
        # and must never block on — or observe a torn state of — it.
        self._stats_lock = threading.Lock()
        # Coordinator-side mirror of each worker's LRU key set.
        self._mirrors: list[OrderedDict[tuple, None]] = []
        # Cumulative wire counters (see wire_stats()).
        self._wire_parts = 0
        self._wire_bytes = 0
        self.requests = 0
        # Cumulative recovery counters (see fault_stats()).
        self._fault_stats = {
            "worker_deaths": 0,
            "round_timeouts": 0,
            "respawns": 0,
            "resubmitted_jobs": 0,
            "inline_degradations": 0,
        }

    # ------------------------------------------------------------------
    def wire_stats(self) -> dict:
        """Cumulative part-shipping counters since construction/reset.

        ``parts_shipped`` / ``bytes_shipped`` count every part blob that
        crossed the process boundary (cache-hit key-only jobs ship no
        part).

        The returned dict is one lock-protected copy: both counters are
        read under the stats lock that also guards their increments,
        so a snapshot taken mid-round is internally consistent rather
        than a field-by-field read of a mutating dict.
        """
        with self._stats_lock:
            return {
                "parts_shipped": self._wire_parts,
                "bytes_shipped": self._wire_bytes,
            }

    def fault_stats(self) -> dict:
        """Cumulative supervision counters since construction.

        ``worker_deaths`` (broken pipes / EOF), ``round_timeouts`` (hung
        workers killed by the watchdog), ``respawns`` (single-worker
        restarts), ``resubmitted_jobs`` (jobs re-sent after a fault), and
        ``inline_degradations`` (jobs that ran inline after the retry
        budget was spent).  All zero on a fault-free session.  Like
        :meth:`wire_stats`, the copy is taken under the stats lock, so
        observers mid-recovery see a consistent snapshot.
        """
        with self._stats_lock:
            return dict(self._fault_stats)

    def _count_fault(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self._fault_stats[key] += n

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> tuple[Any, Any]:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child, self._src_paths, _CACHE_ENTRIES),
            daemon=True,
        )
        proc.start()
        child.close()
        return parent, proc

    def _start(self) -> None:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._src_paths = [p for p in sys.path if p]
        self._conns = []
        self._procs = []
        self._mirrors = []
        for _ in range(self.workers):
            parent, proc = self._spawn_worker()
            self._conns.append(parent)
            self._procs.append(proc)
            self._mirrors.append(OrderedDict())
        atexit.register(self.close)

    def _respawn(self, wi: int) -> None:
        """Replace one dead/hung worker; the rest of the pool is untouched.

        The fresh worker's memo starts empty, so its coordinator mirror is
        cleared too — the content-addressed cache re-seeds lazily as parts
        are next shipped (exactly the cold-start protocol, scoped to one
        worker).
        """
        conns = self._conns
        assert conns is not None
        try:
            conns[wi].close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        proc = self._procs[wi]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1)
            if proc.is_alive():  # pragma: no cover - terminate unstoppable
                proc.kill()
                proc.join(timeout=1)
        else:
            proc.join(timeout=1)  # reap promptly; never leave a zombie
        conns[wi], self._procs[wi] = self._spawn_worker()
        self._mirrors[wi] = OrderedDict()
        self._count_fault("respawns")

    def close(self) -> None:
        """Stop the pool.  Idempotent, bounded, and zombie-free.

        Escalates per worker: cooperative stop + ``join(1)``, then
        ``terminate()`` + ``join(1)``, then ``kill()`` — a hung worker can
        delay shutdown by at most a few seconds and never outlives it.
        The :mod:`atexit` callback registered at pool start is dropped
        here too, so short-lived instances (engine restarts, chaos
        wrappers, tests) do not pile up interpreter-exit callbacks that
        would double-close respawned pools.
        """
        atexit.unregister(self.close)
        conns, procs = self._conns, self._procs
        self._conns = None
        self._procs = []
        self._mirrors = []
        if conns is None:
            return
        for conn in conns:
            try:
                conn.send_bytes(pickle.dumps(("stop",), _PROTO))
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already broken
                pass
        for proc in procs:
            proc.join(timeout=1)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
            if proc.is_alive():  # pragma: no cover - terminate unstoppable
                proc.kill()
                proc.join(timeout=1)

    # ------------------------------------------------------------------
    def _fingerprints(
        self, parts: Sequence[list], owner: Any
    ) -> tuple[list[bytes] | None, list[bytes] | None]:
        """Content fingerprints per part, memoized on the owner when possible.

        Returns ``(fingerprints, part_blobs)``.  Fingerprints hash the
        *wire blobs* (columnar form), so a columnar-backed owner pays no
        row pickling at all — its cached :meth:`~repro.mpc.distrel.
        DistRelation.wire_blob` encodings are hashed and reused for any
        cold ship.  A memoized-fingerprint hit returns ``(fps, None)``
        (on the warm path parts rarely ship; blobs are rebuilt on demand).
        ``(None, None)`` disables worker memoization (unpicklable rows),
        never correctness.
        """
        store = getattr(owner, "_substrate", None) if owner is not None else None
        if store is not None:
            cached = store.get("backend_fp")
            if cached is not None:
                return cached, None
        try:
            wire = getattr(owner, "wire_blob", None)
            if wire is not None and getattr(owner, "parts", None) is parts:
                blobs = [wire(i) for i in range(len(parts))]
            else:
                blobs = [pack_blob(part) for part in parts]
        except Exception:  # noqa: BLE001 - unpicklable rows
            return None, None
        fps = [blake2b(blob, digest_size=16).digest() for blob in blobs]
        if store is not None:
            store["backend_fp"] = fps
        return fps, blobs

    def _blob_getter(
        self, parts: Sequence[list], owner: Any, blobs: list[bytes] | None,
        meter: Any = None,
    ) -> Callable[[int], bytes]:
        """Per-op wire-blob supplier, charging the wire counters per ship.

        ``meter`` (a :class:`~repro.obs.metrics.WireMeter` or None) is the
        calling query's private tally, bumped alongside the backend-wide
        cumulative counters at the one place a part actually ships.
        """
        wire = getattr(owner, "wire_blob", None) if owner is not None else None
        if wire is not None and getattr(owner, "parts", None) is not parts:
            wire = None

        def get(idx: int) -> bytes:
            if blobs is not None:
                blob = blobs[idx]
            elif wire is not None:
                blob = wire(idx)
            else:
                blob = pack_blob(parts[idx])
            with self._stats_lock:
                self._wire_parts += 1
                self._wire_bytes += len(blob)
            if meter is not None:
                meter.add(len(blob))
            return blob

        return get

    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[tuple[Callable, Sequence[list], Any, Any]],
        meter: Any = None,
        span: Any = None,
    ) -> list[Any]:
        """Execute a whole op chain in one worker round-trip, plus recovery
        rounds when the cache mirror was stale or a worker faulted.

        Per-op fallbacks: unpicklable ``common`` or
        parts run that op inline; a non-module-level function is an error.
        Worker deaths and hung rounds are recovered per the supervision
        policy (respawn → resubmit → inline; see the class docstring).
        Rounds are serialized under the backend's I/O lock, so one
        backend instance may be driven from several threads.

        When ``span`` is not ``None`` (traced), one ``backend.round`` child
        covers this whole call — lock wait, dispatch, recovery retries —
        with per-worker ``worker.round`` children beneath it (including
        fresh children for resubmission rounds after a respawn, which is
        how a trace stays complete across chaos-injected deaths).
        ``meter`` receives every payload this call ships (see
        :meth:`_blob_getter`).
        """
        rspan = None
        if span is not None:
            rspan = span.child(
                "backend.round", backend=self.name, ops=len(ops),
            )
        try:
            with self._io_lock:
                return self._run_ops(ops, meter, rspan)
        except BaseException as exc:
            if rspan is not None:
                rspan.set(error=type(exc).__name__)
            raise
        finally:
            if rspan is not None:
                rspan.end()

    def _run_ops(
        self,
        ops: Sequence[tuple[Callable, Sequence[list], Any, Any]],
        meter: Any = None,
        span: Any = None,
    ) -> list[Any]:
        results: list[Any] = [None] * len(ops)
        # Per shipped op k: (fn_ref, common_bytes, fps, blob getter,
        # fn, parts, common) — the last three feed the inline rungs.
        shipped: dict[int, tuple] = {}
        for k, (fn, parts, common, owner) in enumerate(ops):
            fn_ref = f"{fn.__module__}:{fn.__qualname__}"
            if "<locals>" in fn_ref or "<lambda>" in fn_ref:
                raise MPCError(
                    f"map_parts functions must be module-level, got {fn_ref}"
                )
            try:
                common_spec = pickle.dumps(common, _PROTO)
            except Exception:  # noqa: BLE001 - unpicklable common: run inline
                results[k] = [fn(part, common, i) for i, part in enumerate(parts)]
                continue
            if owner is not None:
                fps, blobs = self._fingerprints(parts, owner)
            else:
                fps = blobs = None
            shipped[k] = (
                fn_ref, common_spec, fps,
                self._blob_getter(parts, owner, blobs, meter), fn, parts, common,
            )
        if not shipped:
            return results

        if self._conns is None:
            self._start()
        conns = self._conns
        assert conns is not None
        w = len(conns)

        # Build one batched request per worker (deterministic affinity).
        # The mirror of each worker's LRU is best-effort: a key sent
        # key-only that the worker no longer holds comes back as a "miss"
        # and is re-sent with its part below — never an error.
        steps_by_worker: list[list[tuple]] = [[] for _ in range(w)]
        order: list[list[tuple[int, int]]] = [[] for _ in range(w)]
        for k in sorted(shipped):
            fn_ref, common_spec, fps, get_blob, fn, parts, common = shipped[k]
            jobs: list[list[tuple]] = [[] for _ in range(w)]
            try:
                for idx in range(len(parts)):
                    wi = idx % w
                    fp = fps[idx] if fps is not None else None
                    if fp is None:
                        jobs[wi].append((idx, None, get_blob(idx)))
                        continue
                    key = (fn_ref, common_spec, fp, idx)
                    mirror = self._mirrors[wi]
                    if key in mirror:
                        mirror.move_to_end(key)
                        jobs[wi].append((idx, fp, None))
                    else:
                        jobs[wi].append((idx, fp, get_blob(idx)))
                        mirror[key] = None
                        if len(mirror) > _CACHE_ENTRIES:
                            mirror.popitem(last=False)
            except Exception:  # noqa: BLE001 - unpicklable parts: run inline
                results[k] = [fn(part, common, i) for i, part in enumerate(parts)]
                del shipped[k]
                continue
            results[k] = [None] * len(parts)
            for wi in range(w):
                if jobs[wi]:
                    steps_by_worker[wi].append((fn_ref, common_spec, jobs[wi]))
                    order[wi].extend((k, job[0]) for job in jobs[wi])

        missed, failed = self._ops_round(
            steps_by_worker, order, results, span=span
        )
        fault_rounds = 0
        miss_rounds = 0
        while missed or failed:
            pending = sorted(set(missed) | set(failed))
            if failed:
                self._count_fault("resubmitted_jobs", len(failed))
                fault_rounds += 1
                if fault_rounds > self.retry_budget:
                    self._degrade_inline(pending, shipped, results)
                    break
                if self.backoff_base:
                    time.sleep(
                        min(self.backoff_base * (2 ** (fault_rounds - 1)), 2.0)
                    )
            else:
                # Pure mirror-miss retry: one round resolves it unless the
                # protocol is broken — degrade instead of looping forever.
                miss_rounds += 1
                if miss_rounds > 2:  # pragma: no cover - protocol invariant
                    self._degrade_inline(pending, shipped, results)
                    break
            steps2: list[list[tuple]] = [[] for _ in range(w)]
            order2: list[list[tuple[int, int]]] = [[] for _ in range(w)]
            grouped: dict[tuple[int, int], list[int]] = {}
            for k, idx in pending:
                grouped.setdefault((idx % w, k), []).append(idx)
            for (wi, k), idxs in sorted(grouped.items()):
                fn_ref, common_spec, fps, get_blob = shipped[k][:4]
                idxs.sort()
                jobs2 = [
                    (idx, fps[idx] if fps is not None else None, get_blob(idx))
                    for idx in idxs
                ]
                steps2[wi].append((fn_ref, common_spec, jobs2))
                order2[wi].extend((k, idx) for idx in idxs)
            missed, failed = self._ops_round(
                steps2, order2, results, span=span, retry=True
            )
        return results

    def _degrade_inline(
        self,
        jobs: Sequence[tuple[int, int]],
        shipped: dict[int, tuple],
        results: list[Any],
    ) -> None:
        """Last backend rung: run unrecovered jobs inline in the coordinator.

        The functions are pure and the parts immutable, so the inline
        results are identical to what a healthy worker would have
        returned — a degraded round, never a wrong one.
        """
        self._count_fault("inline_degradations", len(jobs))
        for k, idx in jobs:
            fn, parts, common = shipped[k][4:]
            results[k][idx] = fn(parts[idx], common, idx)

    # ------------------------------------------------------------------
    def _recv(self, conn: Any, deadline: float | None) -> Any:
        """One framed reply, bounded by the round deadline."""
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                self._count_fault("round_timeouts")
                raise _WorkerGone(RoundTimeout(
                    f"worker reply not received within {self.round_timeout}s"
                ))
        try:
            return pickle.loads(conn.recv_bytes())
        except (EOFError, OSError) as exc:
            self._count_fault("worker_deaths")
            raise _WorkerGone(
                WorkerDied(f"worker pipe broke mid-round: {exc!r}")
            ) from exc

    def _ops_round(
        self,
        steps_by_worker: Sequence[list],
        order: Sequence[list[tuple[int, int]]],
        results: list[Any],
        span: Any = None,
        retry: bool = False,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """One supervised request/reply round; fills ``results``.

        Returns ``(missed, failed)``: cache-mirror misses to re-send with
        parts attached, and jobs lost to dead or hung workers (those
        workers are already respawned on return).  Replies received
        before a worker fault are kept — only the unacknowledged tail of
        the faulted worker's slice comes back in ``failed``.  Replies
        from every *healthy* worker are always drained, even when one of
        them reports an error — a shared backend must never leave stale
        responses in a pipe for the next call to misread (a faulted
        worker's pipe is replaced wholesale by the respawn, which
        restores the same invariant).  Counts as one backend request
        round when anything ships.

        ``span`` is the enclosing ``backend.round`` span (or None when
        tracing is off): each dispatched worker gets a ``worker.round``
        child carrying the worker-reported decode/compute seconds from
        the reply header, or fault/error attributes when the worker
        leaves the round.  ``retry`` marks resubmission rounds so a
        trace distinguishes first-try children from post-respawn ones.
        """
        conns = self._conns
        assert conns is not None
        tracing = span is not None
        ctx = (span.trace_id, span.span_id) if tracing else None
        wspans: dict[int, Any] = {}
        sent: list[int] = []
        failed: list[tuple[int, int]] = []
        dead: list[int] = []
        for wi, steps in enumerate(steps_by_worker):
            if not steps:
                continue
            try:
                conns[wi].send_bytes(
                    pickle.dumps(("ops", steps, ctx), _PROTO)
                )
                sent.append(wi)
                if tracing:
                    wspans[wi] = span.child(
                        "worker.round", worker=wi,
                        steps=len(steps), jobs=len(order[wi]), retry=retry,
                    )
            except OSError:
                # Dead before dispatch: this round's whole slice is lost
                # (nothing was acknowledged), but the pool and every other
                # worker's round proceed untouched.
                self._count_fault("worker_deaths")
                if tracing:
                    span.child(
                        "worker.round", worker=wi,
                        steps=len(steps), jobs=len(order[wi]), retry=retry,
                    ).end(fault="WorkerDied", phase="dispatch")
                failed.extend(order[wi])
                dead.append(wi)
        if sent:
            self.requests += 1

        deadline = (
            time.monotonic() + self.round_timeout
            if self.round_timeout is not None
            else None
        )
        missed: list[tuple[int, int]] = []
        errors: list[str] = []
        for wi in sent:
            expected = order[wi]
            wspan = wspans.get(wi)
            done = 0
            try:
                header = self._recv(conns[wi], deadline)
                if header[0] == "err":
                    errors.append(f"worker {wi}: {header[1]}")
                    if wspan is not None:
                        wspan.end(error=header[1])
                    continue
                for j in range(header[1]):
                    idx, status, value = self._recv(conns[wi], deadline)
                    k = expected[j][0]
                    if status == "miss":
                        missed.append((k, idx))
                    else:
                        results[k][idx] = value
                    done = j + 1
                if wspan is not None:
                    timings = header[2] if len(header) > 2 else []
                    wspan.end(
                        decode_seconds=sum(t[0] for t in timings),
                        compute_seconds=sum(t[1] for t in timings),
                        computed=sum(t[2] for t in timings),
                        cache_hits=sum(t[3] for t in timings),
                    )
            except _WorkerGone as exc:
                exc.fault.worker = wi
                if wspan is not None:
                    wspan.end(
                        fault=type(exc.fault).__name__, jobs_done=done
                    )
                # Keep everything drained so far; resubmit only the tail.
                failed.extend(expected[done:])
                dead.append(wi)
        for wi in dead:
            self._respawn(wi)
        if errors:
            raise MPCError(f"map_parts failed in {'; '.join(errors)}")
        return missed, failed
