"""Fault tolerance: supervision, injection, deadlines, degradation.

The recovery contract under test is DESIGN.md section 8: faults may cost
wall-clock, retries, and backend round-trips — never correctness.  Every
recovered (or degraded) execution must produce outputs and LoadReports
bit-identical to the fault-free serial run, because the simulation is
deterministic and every rung of the ladder (respawn → resubmit → inline
→ serial → quarantine) recomputes the same pure functions on the same
immutable parts.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.core.runner import mpc_join
from repro.data.generators import random_instance
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.engine import Engine
from repro.errors import (
    DeadlineExceeded,
    EngineError,
    FaultError,
    MPCError,
    QueryQuarantined,
    ReproError,
    RetryExhausted,
    RoundTimeout,
    WorkerDied,
)
from repro.mpc.backends import FaultInjectingBackend, MultiprocessBackend
from repro.mpc.cluster import Cluster
from repro.query import catalog

BINARY = "Q(A,B,C) :- R1(A,B), R2(B,C)"


def _binary_relations(seed: int = 7) -> dict[str, Relation]:
    inst = random_instance(catalog.binary_join(), 180, 20, seed=seed)
    return dict(inst.relations)


def _sort_part(part, common, idx):
    return sorted(part)


def _len_part(part, common, idx):
    return len(part)


def _slow_part(part, common, idx):
    time.sleep(common)
    return sorted(part)


class _Unpicklable:
    """Hash/order-able payload that refuses the wire."""

    def __init__(self, v: int) -> None:
        self.v = v

    def __reduce__(self):
        raise TypeError("cannot pickle this")

    def __lt__(self, other):
        return self.v < other.v

    def __eq__(self, other):
        return isinstance(other, _Unpicklable) and self.v == other.v

    def __hash__(self):
        return hash(("_Unpicklable", self.v))


@pytest.fixture
def supervised():
    backend = MultiprocessBackend(
        workers=2, round_timeout=5.0, retry_budget=3, backoff_base=0.0
    )
    yield backend
    procs = list(backend._procs)
    backend.close()
    assert all(not p.is_alive() for p in procs), "leaked worker processes"


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

class TestTaxonomy:
    def test_faults_are_retryable_mpc_errors(self):
        for exc_type in (WorkerDied, RoundTimeout, RetryExhausted,
                         DeadlineExceeded):
            assert issubclass(exc_type, FaultError)
            assert issubclass(exc_type, MPCError)
            assert issubclass(exc_type, ReproError)

    def test_quarantine_is_an_engine_error_not_a_fault(self):
        # Fast-fails are deterministic (same answer every submission), so
        # callers retrying on FaultError must not catch them.
        assert issubclass(QueryQuarantined, EngineError)
        assert not issubclass(QueryQuarantined, FaultError)

    def test_worker_faults_carry_the_worker_index(self):
        assert WorkerDied("gone", worker=3).worker == 3
        assert RoundTimeout("hung", worker=1).worker == 1


# ----------------------------------------------------------------------
# Worker supervision in MultiprocessBackend
# ----------------------------------------------------------------------

class TestSupervision:
    def test_killed_worker_is_respawned_alone(self, supervised):
        parts = [[(i, j) for j in range(3)] for i in range(6)]
        assert supervised.map_parts(_sort_part, parts) == parts
        pids = [p.pid for p in supervised._procs]
        os.kill(pids[0], signal.SIGKILL)
        got = supervised.map_parts(_sort_part, parts)
        assert got == parts
        stats = supervised.fault_stats()
        assert stats["worker_deaths"] == 1
        assert stats["respawns"] == 1
        # Only the dead worker's process changed; the pool size held.
        new_pids = [p.pid for p in supervised._procs]
        assert len(new_pids) == 2
        assert new_pids[1] == pids[1]
        assert new_pids[0] != pids[0]

    def test_surviving_replies_are_kept(self, supervised):
        # 6 parts over 2 workers = 3 jobs each.  Killing one worker must
        # resubmit at most that worker's slice — the survivor's replies
        # (and the whole pool) are kept, not torn down.
        parts = [[(i, j) for j in range(3)] for i in range(6)]
        supervised.map_parts(_sort_part, parts)
        os.kill(supervised._procs[0].pid, signal.SIGKILL)
        assert supervised.map_parts(_sort_part, parts) == parts
        assert 0 < supervised.fault_stats()["resubmitted_jobs"] <= 3

    def test_hung_worker_times_out_and_recovers(self):
        backend = MultiprocessBackend(
            workers=2, round_timeout=0.4, retry_budget=2, backoff_base=0.0
        )
        try:
            parts = [[2, 1], [4, 3]]
            assert backend.map_parts(_sort_part, parts) == [[1, 2], [3, 4]]
            backend._conns[0].send_bytes(
                __import__("pickle").dumps(("sleep", 5.0))
            )
            t0 = time.monotonic()
            assert backend.map_parts(_sort_part, parts) == [[1, 2], [3, 4]]
            assert time.monotonic() - t0 < 3.0, "waited for the hang"
            stats = backend.fault_stats()
            assert stats["round_timeouts"] >= 1
            assert stats["respawns"] >= 1
        finally:
            backend.close()

    def test_exhausted_budget_degrades_inline(self):
        backend = MultiprocessBackend(
            workers=1, retry_budget=0, backoff_base=0.0
        )
        try:
            parts = [[2, 1], [4, 3]]
            backend.map_parts(_len_part, parts)  # start the pool
            os.kill(backend._procs[0].pid, signal.SIGKILL)
            assert backend.map_parts(_sort_part, parts) == [[1, 2], [3, 4]]
            assert backend.fault_stats()["inline_degradations"] == 2
        finally:
            backend.close()

    def test_degrade_disabled_raises_retry_exhausted(self):
        backend = MultiprocessBackend(
            workers=1, retry_budget=0, backoff_base=0.0,
            degrade_to_inline=False,
        )
        try:
            backend.map_parts(_len_part, [[1], [2]])
            os.kill(backend._procs[0].pid, signal.SIGKILL)
            with pytest.raises(RetryExhausted) as info:
                backend.map_parts(_sort_part, [[2, 1], [4, 3]])
            assert isinstance(info.value.__cause__, (WorkerDied, RoundTimeout))
        finally:
            backend.close()

    def test_respawned_worker_reseeds_memo_lazily(self, supervised):
        class Owner:
            def __init__(self):
                self._substrate = {}

        owner = Owner()
        parts = [[(3, 1)], [(9, 2)]]
        first = supervised.map_parts(_sort_part, parts, owner=owner)
        os.kill(supervised._procs[0].pid, signal.SIGKILL)
        supervised.map_parts(_len_part, [[1], [2]])  # trip the detection
        # The respawned worker's memo (and its coordinator mirror) is
        # empty; a warm call must re-ship content and still be correct.
        assert supervised.map_parts(_sort_part, parts, owner=owner) == first

    def test_close_is_idempotent_and_bounded(self):
        backend = MultiprocessBackend(workers=2)
        backend.map_parts(_len_part, [[1], [2]])
        procs = list(backend._procs)
        # Kill one first so close() exercises the escalation path too.
        os.kill(procs[0].pid, signal.SIGKILL)
        backend.close()
        backend.close()  # second close: no-op, no error
        assert all(not p.is_alive() for p in procs)
        assert backend._conns is None

    def test_no_leaked_processes_after_fault_storm(self):
        before = {p.pid for p in mp.active_children()}
        backend = MultiprocessBackend(
            workers=2, retry_budget=2, backoff_base=0.0
        )
        parts = [[(i, 0)] for i in range(4)]
        for _ in range(3):
            backend.map_parts(_sort_part, parts)
            os.kill(backend._procs[0].pid, signal.SIGKILL)
        backend.map_parts(_sort_part, parts)
        backend.close()
        leaked = {p.pid for p in mp.active_children()} - before
        assert not leaked, f"leaked worker pids: {leaked}"


# ----------------------------------------------------------------------
# Unpicklable fallbacks: inline rungs keep output AND ledger parity
# ----------------------------------------------------------------------

class TestInlineFallbackParity:
    def test_unpicklable_common_runs_inline(self, supervised):
        got = supervised.map_parts(_sort_part, [[2, 1]], common=lambda: 0)
        assert got == [[1, 2]]
        assert supervised.wire_stats()["parts_shipped"] == 0

    def test_unpicklable_parts_without_owner_run_inline(self, supervised):
        parts = [[(_Unpicklable(1), 1)], []]
        assert supervised.map_parts(_len_part, parts) == [1, 0]
        assert supervised.wire_stats()["parts_shipped"] == 0

    def test_unpicklable_parts_with_owner_run_inline(self, supervised):
        # The owner path fingerprints parts before shipping; unpicklable
        # rows must fail that step gracefully and fall inline too.
        class Owner:
            def __init__(self):
                self._substrate = {}

        parts = [[(_Unpicklable(2), 1)], [(_Unpicklable(3), 2)]]
        got = supervised.map_parts(_sort_part, parts, owner=Owner())
        assert got == parts
        assert supervised.wire_stats()["parts_shipped"] == 0

    def test_unpicklable_rows_full_join_parity_with_serial(self, supervised):
        # End to end: a join whose rows refuse the wire runs every
        # worker-local step inline, yet outputs and the full LoadReport
        # must match the serial reference bit for bit.
        q = catalog.binary_join()
        r1 = Relation(
            "R1", ("A", "B"),
            [(_Unpicklable(i % 5), i % 7) for i in range(40)],
        )
        r2 = Relation("R2", ("B", "C"), [(i % 7, i % 3) for i in range(30)])
        inst = Instance(q, {"R1": r1, "R2": r2})
        ref = mpc_join(q, inst, p=4, backend="serial")
        got = mpc_join(q, inst, p=4, backend=supervised)
        assert sorted(got.relation.all_rows()) == sorted(
            ref.relation.all_rows()
        )
        assert got.report.as_dict() == ref.report.as_dict()
        assert supervised.wire_stats()["parts_shipped"] == 0


# ----------------------------------------------------------------------
# FaultInjectingBackend ("chaos")
# ----------------------------------------------------------------------

class TestChaosBackend:
    def test_fault_schedule_is_seed_deterministic(self):
        def schedule(seed):
            backend = FaultInjectingBackend(
                inner=MultiprocessBackend(
                    workers=2, round_timeout=1.0, backoff_base=0.0
                ),
                seed=seed, rate=0.9, kinds=("kill", "corrupt", "drop"),
            )
            try:
                parts = [[(i, 0)] for i in range(4)]
                for _ in range(6):
                    assert backend.map_parts(_sort_part, parts) == parts
                return list(backend.fault_log)
            finally:
                backend.close()

        first = schedule(42)
        assert first == schedule(42)
        assert first != schedule(43)
        assert first, "rate=0.9 over 6 rounds injected nothing"

    def test_injection_is_observable_and_recovered(self):
        backend = FaultInjectingBackend(
            inner=MultiprocessBackend(
                workers=2, round_timeout=1.0, backoff_base=0.0
            ),
            seed=1, rate=1.0, kinds=("kill",),
        )
        try:
            parts = [[(i, 0)] for i in range(4)]
            for _ in range(3):
                assert backend.map_parts(_sort_part, parts) == parts
            stats = backend.fault_stats()
            assert stats["injected_kill"] == 3
            assert stats["worker_deaths"] >= 1
            assert stats["respawns"] >= 1
        finally:
            backend.close()

    def test_chaos_engine_results_match_serial(self):
        relations = _binary_relations()
        ref = Engine(p=6, backend="serial", result_cache=False)
        chaos = FaultInjectingBackend(
            inner=MultiprocessBackend(
                workers=2, round_timeout=1.0, backoff_base=0.0
            ),
            seed=2, rate=0.5,
        )
        injected = Engine(p=6, backend=chaos, result_cache=False)
        try:
            for name, rel in relations.items():
                ref.register(rel, name=name)
                injected.register(rel, name=name)
            for _ in range(3):
                want = ref.execute(BINARY)
                got = injected.execute(BINARY)
                assert sorted(got.rows()) == sorted(want.rows())
                assert got.report.as_dict() == want.report.as_dict()
        finally:
            chaos.close()

    def test_engine_metrics_see_wire_and_fault_stats_through_chaos(self):
        """Regression guard for the metrics path under injection: the
        wrapper must delegate wire_stats/fault_stats/requests to its
        inner backend, or every per-query delta the engine reports
        (wire_bytes, backend_requests, fault_events) reads as zero."""
        chaos = FaultInjectingBackend(
            inner=MultiprocessBackend(
                workers=2, round_timeout=1.0, backoff_base=0.0
            ),
            seed=3, rate=1.0, kinds=("kill",),
        )
        eng = Engine(p=4, backend=chaos, result_cache=False)
        try:
            for name, rel in _binary_relations().items():
                eng.register(rel, name=name)
            cold = eng.execute(BINARY)
            assert cold.metrics.wire_bytes > 0
            assert cold.meta["wire_bytes"] == cold.metrics.wire_bytes
            assert cold.metrics.backend_requests > 0
            # Every round drew a kill, so the inner pool's absorbed
            # faults must be visible through the wrapper's delta.
            assert cold.metrics.fault_events > 0
            stats = chaos.wire_stats()
            assert stats["bytes_shipped"] >= cold.metrics.wire_bytes
            fs = chaos.fault_stats()
            assert fs["injected_kill"] > 0 and fs["worker_deaths"] > 0
        finally:
            chaos.close()

    def test_drop_re_drives_the_round(self):
        backend = FaultInjectingBackend(
            inner=MultiprocessBackend(workers=1, backoff_base=0.0),
            seed=9, rate=1.0, kinds=("drop",),
        )
        try:
            with pytest.raises(RetryExhausted, match="dropped"):
                backend.map_parts(_sort_part, [[2, 1]])
            backend.rate = 0.5  # some rounds now dispatch
            assert backend.map_parts(_sort_part, [[2, 1]]) == [[1, 2]]
            assert backend.fault_stats()["injected_drop"] >= 1
        finally:
            backend.close()

    def test_chaos_refuses_to_wrap_itself(self):
        inner = FaultInjectingBackend(inner=MultiprocessBackend(workers=1))
        try:
            with pytest.raises(MPCError, match="wrap itself"):
                FaultInjectingBackend(inner=inner)
            with pytest.raises(MPCError, match="wrap itself"):
                FaultInjectingBackend(inner="chaos")
        finally:
            inner.close()

    def test_unknown_fault_kind_is_rejected(self):
        with pytest.raises(MPCError, match="unknown fault kinds"):
            FaultInjectingBackend(
                inner=MultiprocessBackend(workers=1), kinds=("explode",)
            ).close()

    def test_process_faults_skip_on_in_process_inner(self):
        backend = FaultInjectingBackend(
            inner="serial", seed=1, rate=1.0, kinds=("kill",)
        )
        # No pool to sabotage: the fault is recorded as skipped and the
        # round proceeds on the untouched inner backend.
        assert backend.map_parts(_sort_part, [[2, 1]]) == [[1, 2]]
        assert backend.fault_stats()["injected_skipped"] == 1


# ----------------------------------------------------------------------
# Engine resilience: deadlines, quarantine, serial degradation, budgets
# ----------------------------------------------------------------------

def _faulty_engine(**engine_kwargs):
    """An engine whose backend always fails its rounds past recovery."""
    chaos = FaultInjectingBackend(
        inner=MultiprocessBackend(
            workers=1, retry_budget=0, backoff_base=0.0,
            degrade_to_inline=False,
        ),
        seed=3, rate=1.0, kinds=("kill",),
    )
    engine = Engine(p=6, backend=chaos, **engine_kwargs)
    for name, rel in _binary_relations().items():
        engine.register(rel, name=name)
    return engine, chaos


class TestEngineResilience:
    @pytest.fixture
    def serial_ref(self):
        engine = Engine(p=6, backend="serial")
        for name, rel in _binary_relations().items():
            engine.register(rel, name=name)
        return engine.execute(BINARY)

    def test_deadline_cancels_mid_execution(self):
        engine = Engine(p=6, backend="serial")
        for name, rel in _binary_relations().items():
            engine.register(rel, name=name)
        with pytest.raises(DeadlineExceeded):
            engine.execute(BINARY, deadline=1e-9)
        stats = engine.stats()
        assert stats.deadline_misses == 1
        assert stats.failures == 1
        # A miss is not a quarantine: the same query serves normally.
        res = engine.execute(BINARY)
        assert res.ok and res.metrics.load > 0

    def test_deadline_cancels_a_warm_redrive(self):
        engine = Engine(p=6, backend="serial", result_cache=False)
        for name, rel in _binary_relations().items():
            engine.register(rel, name=name)
        want = engine.execute(BINARY)  # cold: warms the plan and dist caches
        with pytest.raises(DeadlineExceeded):
            engine.execute(BINARY, deadline=1e-9)  # re-driven cold, cancelled
        assert engine.stats().deadline_misses == 1
        # The partial ledger was discarded: the next re-drive is exact.
        assert engine.execute(BINARY).report.as_dict() == want.report.as_dict()

    def test_degrade_to_serial_serves_identical_results(self, serial_ref):
        engine, chaos = _faulty_engine(degrade_to_serial=True)
        try:
            res = engine.execute(BINARY)
            assert res.metrics.degraded_serial
            assert res.meta["degraded_serial"]
            assert sorted(res.rows()) == sorted(serial_ref.rows())
            assert res.report.as_dict() == serial_ref.report.as_dict()
            assert engine.stats().degraded_serial == 1
            assert not engine.quarantined_queries()
        finally:
            chaos.close()

    def test_quarantine_fast_fails_until_data_changes(self):
        engine, chaos = _faulty_engine(degrade_to_serial=False)
        try:
            with pytest.raises(FaultError):
                engine.execute(BINARY)
            assert BINARY in engine.quarantined_queries()
            with pytest.raises(QueryQuarantined, match="RetryExhausted"):
                engine.execute(BINARY)
            stats = engine.stats()
            assert stats.quarantined == 1
            assert stats.quarantine_fast_fails == 1
            # Parole: new data versions get a fresh attempt (and with the
            # injection off, it succeeds).
            relations = _binary_relations()
            engine.register(relations["R1"], name="R1")
            chaos.rate = 0.0
            res = engine.execute(BINARY)
            assert res.ok
            assert not engine.quarantined_queries()
        finally:
            chaos.close()

    def test_batch_embeds_failures_and_keeps_alignment(self):
        engine = Engine(p=6, backend="serial")
        for name, rel in _binary_relations().items():
            engine.register(rel, name=name)
        bad = "Q(A,B) :- R1(A,B), Nope(B,C)"
        report = engine.submit_batch([BINARY, bad, BINARY])
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.results[1].error is not None
        assert "Nope" in report.results[1].metrics.error
        assert report.stats.failures == 1
        assert report.stats.queries == 3

    def test_batch_budget_fast_fails_the_tail(self):
        engine = Engine(p=6, backend="serial")
        for name, rel in _binary_relations().items():
            engine.register(rel, name=name)
        report = engine.submit_batch([BINARY] * 3, budget=1e-9)
        assert [r.ok for r in report.results] == [False] * 3
        assert report.stats.deadline_misses == 3
        assert all(
            isinstance(r.error, DeadlineExceeded) for r in report.results
        )

    def test_fault_events_counted_per_query(self):
        chaos = FaultInjectingBackend(
            inner=MultiprocessBackend(
                workers=2, round_timeout=1.0, backoff_base=0.0
            ),
            seed=1, rate=1.0, kinds=("kill",),
        )
        engine = Engine(p=6, backend=chaos, result_cache=False)
        try:
            for name, rel in _binary_relations().items():
                engine.register(rel, name=name)
            res = engine.execute(BINARY)
            assert res.ok
            assert res.metrics.fault_events >= 1
            assert engine.stats().fault_events >= 1
            assert engine.backend_fault_stats()["injected_kill"] >= 1
        finally:
            chaos.close()

    def test_cluster_deadline_is_cooperative(self):
        cluster = Cluster(2, backend="serial")
        cluster.tally([0, 1], [1, 1], "warmup")
        cluster.deadline = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded):
            cluster.tally([0, 1], [1, 1], "late")
        cluster.deadline = None
        cluster.tally([0, 1], [1, 1], "fine again")
