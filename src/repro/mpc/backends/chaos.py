"""Deterministic fault injection: the ``chaos`` backend wrapper.

:class:`FaultInjectingBackend` wraps a real backend and sabotages it with
seed-driven faults so the recovery machinery — the multiprocess backend's
worker supervision (respawn/resubmit/inline), the engine's degradation
ladder — runs under test on every conformance cell instead of living in
``pragma: no cover`` branches.  The wrapper is a *pure* perturbation of
the execution environment:

* **Delivery and the ledger are never touched.**  ``exchange`` passes
  straight through, and all tallying stays in the coordinator, so a
  fault can change wall-clock, request counts, and worker lifetimes —
  never outputs or a single :class:`~repro.mpc.cluster.LoadReport`
  field.  The conformance grid enforces exactly that: every cell run
  under ``chaos`` must be bit-identical to the fault-free serial
  reference.  Determinism is what makes the oracle this cheap — the
  fault-free run *is* the expected output of every faulted run.
* **Faults are deterministic.**  An injection is drawn per dispatched
  round from ``random.Random(seed)``, so a given seed and call sequence
  replays the same fault schedule (``fault_log`` records it).  Fault
  kinds:

  - ``kill``         — SIGKILL a worker before the round is dispatched
    (detected at dispatch: send fails, or at drain: EOF);
  - ``kill_after``   — SIGKILL a worker after its replies are drained
    (detected at the *next* round's dispatch);
  - ``hang``         — stall a worker past the supervisor's round
    timeout (detected by the watchdog, killed + respawned);
  - ``corrupt``      — write garbage bytes into a worker's request pipe
    (transient pickle corruption: the worker dies decoding and is
    respawned);
  - ``drop``         — lose the whole round before dispatch and re-drive
    it (the wrapper's own retry rung; bounded, then the round is forced
    through).

  Process-level faults need a process-backed inner backend; against an
  in-process inner (serial) they are recorded as ``skipped`` and the
  round proceeds — ``drop`` is the only fault every inner supports.

Registered as ``"chaos"``: ``REPRO_BACKEND=chaos`` runs any suite under
injection.  The registry factory builds a **private** supervised
:class:`~repro.mpc.backends.multiprocess.MultiprocessBackend` (short
round timeout, small backoff) rather than sharing the registry's
``multiprocess`` instance, so injected kills never perturb other
sessions' pools.  Env knobs: ``REPRO_CHAOS_SEED``, ``REPRO_CHAOS_RATE``,
``REPRO_CHAOS_INNER``.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
from typing import Any, Callable, Iterable, Sequence

from repro.errors import MPCError, RetryExhausted
from repro.mpc.backends.base import Backend
from repro.mpc.backends.multiprocess import MultiprocessBackend

__all__ = ["FaultInjectingBackend"]

CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"
CHAOS_RATE_ENV = "REPRO_CHAOS_RATE"
CHAOS_INNER_ENV = "REPRO_CHAOS_INNER"

#: Injection mix: mostly cheap process kills; hangs are rare because each
#: one costs a full round timeout of wall-clock.
_WEIGHTED_KINDS = (
    ("kill", 0.40),
    ("kill_after", 0.15),
    ("corrupt", 0.20),
    ("hang", 0.10),
    ("drop", 0.15),
)

#: Consecutive dropped rounds before the drop rung gives up.
_MAX_DROPS = 3


def _default_inner() -> MultiprocessBackend:
    """A private supervised pool tuned for fast fault turnaround."""
    return MultiprocessBackend(
        round_timeout=1.0, retry_budget=3, backoff_base=0.01
    )


class FaultInjectingBackend(Backend):
    """Wrap a real backend and inject deterministic, seed-driven faults.

    Args:
        inner: The backend to sabotage — an instance, a registered name,
            or ``None`` for the ``REPRO_CHAOS_INNER`` env var (default: a
            private supervised multiprocess pool).  The wrapper owns the
            inner backend's lifetime (:meth:`close` closes it).
        seed: Fault-schedule seed (``REPRO_CHAOS_SEED`` env, default 1).
        rate: Probability a dispatched round draws a fault
            (``REPRO_CHAOS_RATE`` env, default 0.15).
        kinds: Restrict injection to these fault kinds (default: the
            weighted built-in mix) — benchmarks use ``("kill",)`` to
            sweep pure worker-kill rates.
    """

    name = "chaos"

    def __init__(
        self,
        inner: Backend | str | None = None,
        seed: int | None = None,
        rate: float | None = None,
        kinds: Sequence[str] | None = None,
    ) -> None:
        if seed is None:
            seed = int(os.environ.get(CHAOS_SEED_ENV, 1))
        if rate is None:
            rate = float(os.environ.get(CHAOS_RATE_ENV, 0.15))
        if inner is None:
            inner = os.environ.get(CHAOS_INNER_ENV) or _default_inner()
        if isinstance(inner, str):
            if inner == self.name:
                raise MPCError("chaos cannot wrap itself")
            if inner == "multiprocess":
                inner = _default_inner()
            else:
                from repro.mpc.backends import get_backend

                inner = get_backend(inner)
        if isinstance(inner, FaultInjectingBackend):
            raise MPCError("chaos cannot wrap itself")
        self.inner: Backend = inner
        self.seed = seed
        self.rate = rate
        known = {k for k, _w in _WEIGHTED_KINDS}
        if kinds is not None and not set(kinds) <= known:
            raise MPCError(
                f"unknown fault kinds {sorted(set(kinds) - known)}; "
                f"pick from {sorted(known)}"
            )
        self.kinds = tuple(kinds) if kinds is not None else None
        self._rng = random.Random(seed)
        #: The injected schedule: ``(fault_kind, worker_index | None)``
        #: per sabotage, in order — replayable from the same seed.
        self.fault_log: list[tuple[str, int | None]] = []
        self._injected = {
            "kill": 0, "kill_after": 0, "corrupt": 0, "hang": 0,
            "drop": 0, "skipped": 0,
        }
        # Guards _injected and its fault_stats() copy (the engine's
        # registry views snapshot stats while rounds are mid-flight).
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pass-throughs: everything observable delegates to the inner backend.
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:  # type: ignore[override]
        return self.inner.requests

    def exchange(
        self,
        outboxes: Sequence[Iterable[tuple[int, Any]]],
        size: int,
        count_self: bool,
    ) -> tuple[list[list[Any]], list[int]]:
        # Delivery feeds the ledger; a fault here could corrupt what the
        # conformance oracle checks, so chaos never touches it.
        return self.inner.exchange(outboxes, size, count_self)

    def wire_stats(self) -> dict:
        return self.inner.wire_stats()

    def fault_stats(self) -> dict:
        """Inner recovery counters plus ``injected_*`` injection counters.

        The inner snapshot is already a lock-protected copy; the
        injection counters are copied under this wrapper's own stats
        lock, so the merged dict is consistent even mid-sabotage.
        """
        stats = dict(self.inner.fault_stats())
        with self._stats_lock:
            for kind, count in self._injected.items():
                stats[f"injected_{kind}"] = count
        return stats

    def _count_injected(self, kind: str) -> None:
        with self._stats_lock:
            self._injected[kind] += 1

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def _draw(self) -> str | None:
        if self._rng.random() >= self.rate:
            return None
        if self.kinds is not None:
            return self._rng.choice(self.kinds)
        roll = self._rng.random() * sum(w for _k, w in _WEIGHTED_KINDS)
        for kind, weight in _WEIGHTED_KINDS:
            roll -= weight
            if roll <= 0:
                return kind
        return _WEIGHTED_KINDS[-1][0]  # pragma: no cover - float dust

    def _sabotage(self, kind: str) -> bool:
        """Apply one process-level fault to the inner backend's pool.

        Returns False (recorded as ``skipped``) when the inner backend
        has no worker processes to sabotage — an in-process inner, or a
        pool that has not started yet.
        """
        inner = self.inner
        conns = getattr(inner, "_conns", None)
        if conns is None and isinstance(inner, MultiprocessBackend):
            inner._start()  # start eagerly so round one is already chaotic
            conns = inner._conns
        procs = getattr(inner, "_procs", None)
        if not conns or not procs:
            self._count_injected("skipped")
            self.fault_log.append(("skipped", None))
            return False
        wi = self._rng.randrange(len(procs))
        if kind in ("kill", "kill_after"):
            os.kill(procs[wi].pid, signal.SIGKILL)
        elif kind == "corrupt":
            try:
                conns[wi].send_bytes(b"\xde\xad\xbe\xef")
            except OSError:  # pragma: no cover - already dead: same effect
                pass
        elif kind == "hang":
            timeout = getattr(inner, "round_timeout", None) or 1.0
            try:
                conns[wi].send_bytes(
                    pickle.dumps(("sleep", 3.0 * timeout),
                                 pickle.HIGHEST_PROTOCOL)
                )
            except OSError:  # pragma: no cover - already dead: same effect
                pass
        self._count_injected(kind)
        self.fault_log.append((kind, wi))
        return True

    # ------------------------------------------------------------------
    def map_parts(
        self,
        fn: Callable[[list, Any, int], Any],
        parts: Sequence[list],
        common: Any = None,
        owner: Any = None,
    ) -> list[Any]:
        return self.run_ops([(fn, parts, common, owner)])[0]

    def run_ops(
        self,
        ops: Sequence[tuple[Callable, Sequence[list], Any, Any]],
        meter: Any = None,
        span: Any = None,
    ) -> list[Any]:
        """Dispatch through the inner backend, possibly under sabotage.

        At most one fault is drawn per dispatched round.  ``drop`` loses
        the round before dispatch and re-drives it (re-execution of pure
        ops on immutable parts is idempotent — worker memos make it
        nearly free); the other kinds sabotage worker processes and let
        the inner backend's supervision recover mid-round.

        ``meter``/``span`` pass straight through to the inner backend:
        the inner pool emits the ``backend.round``/``worker.round`` spans
        (including the post-respawn retry children a sabotage provokes)
        and charges the meter, so a traced query looks the same whether
        or not chaos sits in the middle.
        """
        drops = 0
        while True:
            fault = self._draw()
            if fault == "drop":
                self._count_injected("drop")
                self.fault_log.append(("drop", None))
                drops += 1
                if drops > _MAX_DROPS:  # pragma: no cover - needs rate=1
                    raise RetryExhausted(
                        f"chaos: {drops} consecutive rounds dropped"
                    )
                continue
            if fault is not None:
                self._sabotage(fault)
            # After a "kill_after" the round itself succeeds; the *next*
            # dispatch finds the corpse.
            return self.inner.run_ops(ops, meter=meter, span=span)
