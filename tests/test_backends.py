"""Unit tests for the execution-backend layer (registry, seam, workers)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.data.relation import Relation
from repro.errors import MPCError
from repro.mpc import Cluster, distribute_relation
import repro.mpc.backends as repro_backends
from repro.mpc.backends import (
    Backend,
    FaultInjectingBackend,
    MultiprocessBackend,
    SerialBackend,
    available_backends,
    get_backend,
)


# ----------------------------------------------------------------------
# Module-level map_parts functions (worker processes import them by name).
# ----------------------------------------------------------------------

def _sum_part(part, common, idx):
    return (idx, common, sum(v for row in part for v in row))


def _sort_part(part, common, idx):  # noqa: ARG001
    return sorted(part)


def _boom(part, common, idx):  # noqa: ARG001
    raise ValueError("intentional failure")


def _len_part(part, common, idx):  # noqa: ARG001
    return len(part)


def _boom_on_idx0(part, common, idx):  # noqa: ARG001
    if idx == 0:
        raise ValueError("boom-on-zero")
    return sorted(part)


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("cannot pickle this")


@pytest.fixture
def mp_backend():
    backend = MultiprocessBackend(workers=2)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_serial_is_first_and_both_builtins_present(self):
        names = available_backends()
        assert names[0] == "serial"
        assert "multiprocess" in names

    def test_name_lookup_returns_shared_instance(self):
        assert get_backend("serial") is get_backend("serial")

    def test_instance_passthrough(self):
        inst = SerialBackend()
        assert get_backend(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(MPCError, match="unknown backend"):
            get_backend("definitely-not-registered")

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "multiprocess")
        assert get_backend(None).name == "multiprocess"
        monkeypatch.delenv("REPRO_BACKEND")
        assert get_backend(None).name == "serial"

    def test_the_registry_is_a_fixed_table(self):
        assert available_backends() == ("serial", "chaos", "multiprocess")
        assert type(get_backend("serial")) is SerialBackend
        assert not hasattr(repro_backends, "register_backend")

    def test_cluster_resolves_backend_by_name(self):
        from repro.mpc.backends import default_backend_name

        assert Cluster(2, backend="serial").backend.name == "serial"
        assert Cluster(2).backend.name == default_backend_name()

    def test_shm_name_is_unknown_everywhere(self, monkeypatch):
        registered = str(available_backends())
        with pytest.raises(MPCError, match="unknown backend 'shm'") as exc:
            get_backend("shm")
        assert registered in str(exc.value)
        with pytest.raises(MPCError, match="unknown backend 'shm'") as exc:
            FaultInjectingBackend(inner="shm")
        assert registered in str(exc.value)
        monkeypatch.setenv("REPRO_BACKEND", "shm")
        with pytest.raises(MPCError, match="unknown backend 'shm'") as exc:
            get_backend(None)
        assert registered in str(exc.value)

    def test_import_and_a_serial_query_start_no_helper_process(self):
        """``import repro`` plus one serial query creates no shared-memory
        segment, so multiprocessing's resource tracker never starts."""
        script = (
            "import repro\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.data.relation import Relation\n"
            "from repro.engine import Engine\n"
            "from repro.mpc.backends import available_backends\n"
            "eng = Engine(p=2, backend='serial')\n"
            "eng.register(Relation('R1', ('A', 'B'), [(1, 2), (3, 4)]))\n"
            "eng.register(Relation('R2', ('B', 'C'), [(2, 5), (4, 6)]))\n"
            "assert len(eng.execute('Q(A,B,C) :- R1(A,B), R2(B,C)').rows()) == 2\n"
            "assert resource_tracker._resource_tracker._pid is None\n"
            "assert 'shm' not in available_backends()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        env.pop("REPRO_BACKEND", None)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Exchange delivery
# ----------------------------------------------------------------------

OUTBOXES = [
    [(1, "a"), (0, "self"), (2, "b")],
    [(0, "c")],
    [],
    [(2, "d"), (2, "e")],
]


class TestExchange:
    """Delivery is :meth:`Group.exchange`'s own, on every backend."""

    def test_reference_delivery_counts(self):
        cluster = Cluster(4)
        inboxes = cluster.root_group().exchange(OUTBOXES, "x")
        assert inboxes == [["self", "c"], ["a"], ["b", "d", "e"], []]
        assert cluster.snapshot().totals == (1, 1, 3, 0)  # self-message at 0 is free

    def test_count_self(self):
        cluster = Cluster(4)
        cluster.root_group().exchange(OUTBOXES, "x", count_self=True)
        assert cluster.snapshot().totals == (2, 1, 3, 0)

    def test_bad_destination_raises(self):
        cluster = Cluster(4)
        with pytest.raises(MPCError, match="out of range"):
            cluster.root_group().exchange([[(7, "x")], [], [], []], "x")
        assert cluster.snapshot().steps == 0  # nothing posted


# ----------------------------------------------------------------------
# map_parts
# ----------------------------------------------------------------------

PARTS = [[(1, 2), (3, 4)], [(5, 6)], [], [(7, 8), (9, 10), (11, 12)]]


class TestMapParts:
    def test_serial_applies_in_order(self):
        got = SerialBackend().map_parts(_sum_part, PARTS, common="c")
        assert got == [(0, "c", 10), (1, "c", 11), (2, "c", 0), (3, "c", 57)]

    def test_multiprocess_matches_serial(self, mp_backend):
        assert mp_backend.map_parts(_sum_part, PARTS, common="c") == (
            SerialBackend().map_parts(_sum_part, PARTS, common="c")
        )

    def test_multiprocess_rejects_non_module_functions(self, mp_backend):
        with pytest.raises(MPCError, match="module-level"):
            mp_backend.map_parts(lambda p, c, i: p, PARTS)

    def test_worker_exception_propagates(self, mp_backend):
        with pytest.raises(MPCError, match="intentional failure"):
            mp_backend.map_parts(_boom, PARTS)

    def test_worker_survives_a_failed_batch(self, mp_backend):
        with pytest.raises(MPCError):
            mp_backend.map_parts(_boom, PARTS)
        assert mp_backend.map_parts(_sort_part, [[3, 1, 2]]) == [[1, 2, 3]]

    def test_error_in_one_worker_does_not_leave_stale_replies(self, mp_backend):
        """Regression: one worker failing while another succeeds must not
        leave the successful worker's reply in the pipe — the next call
        would silently return the *previous* batch's results."""
        # Worker 0 (part index 0) raises; worker 1 (part index 1) succeeds.
        with pytest.raises(MPCError, match="boom-on-zero"):
            mp_backend.map_parts(_boom_on_idx0, [[1, 2], [10, 20, 30]])
        # Both workers must now serve fresh, correct results.
        got = mp_backend.map_parts(_sort_part, [[5, 4], [100, 99]])
        assert got == [[4, 5], [99, 100]]

    def test_mirror_desync_recovers_via_miss_retry(self, mp_backend):
        """A key-only job the worker no longer holds is re-sent with its
        part, not turned into an error (the mirror is best-effort)."""
        import pickle
        from hashlib import blake2b

        class Owner:
            def __init__(self):
                self._substrate = {}

        parts = [[(3, 1)], [(2, 9)]]
        # Poison the coordinator mirror: claim the worker has these keys
        # cached even though it has never seen them.
        fn_ref = f"{_sort_part.__module__}:{_sort_part.__qualname__}"
        common_bytes = pickle.dumps(None, pickle.HIGHEST_PROTOCOL)
        mp_backend.map_parts(_len_part, [[0]] * 2)  # start the pool
        w = len(mp_backend._conns)
        for idx, part in enumerate(parts):
            fp = blake2b(
                pickle.dumps(part, pickle.HIGHEST_PROTOCOL), digest_size=16
            ).digest()
            key = (fn_ref, common_bytes, fp, idx)
            mp_backend._mirrors[idx % w][key] = None
        got = mp_backend.map_parts(_sort_part, parts, owner=Owner())
        assert got == [[(3, 1)], [(2, 9)]]

    def test_unpicklable_parts_fall_back_inline(self, mp_backend):
        # Rows that refuse to pickle must still compute (inline fallback).
        parts = [[(_Unpicklable(), 1)], []]
        assert mp_backend.map_parts(_len_part, parts) == [1, 0]

    def test_unpicklable_common_falls_back_inline(self, mp_backend):
        # A lambda as `common` cannot be pickled -> inline execution path.
        got = mp_backend.map_parts(_sort_part, [[2, 1]], common=lambda: None)
        assert got == [[1, 2]]

    def test_memoization_is_content_addressed(self, mp_backend):
        class Owner:
            def __init__(self):
                self._substrate = {}

        a, b = Owner(), Owner()
        first = mp_backend.map_parts(_sort_part, PARTS, owner=a)
        warm_same_owner = mp_backend.map_parts(_sort_part, PARTS, owner=a)
        warm_fresh_owner = mp_backend.map_parts(
            _sort_part, [list(p) for p in PARTS], owner=b
        )
        assert first == warm_same_owner == warm_fresh_owner
        # Different content under the same shapes must re-compute.
        changed = [[(99, 99)], *[list(p) for p in PARTS[1:]]]

        class Fresh:
            _substrate: dict = {}

        got = mp_backend.map_parts(_sort_part, changed, owner=Fresh())
        assert got[0] == [(99, 99)]

    def test_group_map_parts_checks_size(self):
        group = Cluster(4, backend="serial").root_group()
        with pytest.raises(MPCError, match="expected 4 parts"):
            group.map_parts(_sort_part, [[1], [2]])

    def test_group_map_parts_runs_through_backend(self):
        group = Cluster(2, backend="serial").root_group()
        assert group.map_parts(_sort_part, [[2, 1], [4, 3]]) == [[1, 2], [3, 4]]


# ----------------------------------------------------------------------
# End-to-end: the seam carries a real primitive identically
# ----------------------------------------------------------------------

class TestEndToEnd:
    def test_full_primitive_parity_across_backends(self):
        from repro.mpc.primitives import attach_degrees

        rel_ram = Relation(
            "R", ("A", "B"), [((i * 7) % 13, i % 5) for i in range(200)]
        )
        results = {}
        for name in available_backends():
            cluster = Cluster(8, backend=name)
            group = cluster.root_group()
            rel = distribute_relation(rel_ram, group)
            results[name] = (
                attach_degrees(group, rel, ("B",), "deg"),
                cluster.snapshot().as_dict(),
            )
        ref = results.pop("serial")
        for name, got in results.items():
            assert got == ref, f"backend {name} diverged from serial"

    def test_mpc_join_meta_records_backend(self):
        from repro.core.runner import mpc_join
        from repro.data.generators import matching_instance
        from repro.query import catalog

        inst = matching_instance(catalog.line3(), 30)
        res = mpc_join(inst.query, inst, p=4, backend="serial")
        assert res.meta["backend"] == "serial"


# ----------------------------------------------------------------------
# The seam is one method: where worker-local steps run
# ----------------------------------------------------------------------

class _RunOpsOnly(Backend):
    """A backend that defines nothing but ``name`` and ``run_ops``."""

    name = "run-ops-only"

    def __init__(self):
        self.inner = SerialBackend()

    def run_ops(self, ops, meter=None, span=None):
        return self.inner.run_ops(ops, meter=meter, span=span)


class TestSeam:
    def test_run_ops_is_the_only_abstract_method(self):
        assert Backend.__abstractmethods__ == frozenset({"run_ops"})

    def test_map_parts_is_the_one_op_form_of_run_ops(self):
        backend = _RunOpsOnly()
        got = backend.map_parts(_sum_part, PARTS, common="c")
        assert got == SerialBackend().map_parts(_sum_part, PARTS, common="c")
        assert backend.inner.requests == 1

    def test_run_ops_only_backend_matches_serial(self):
        from repro.core.runner import mpc_join, mpc_join_aggregate
        from repro.data.generators import random_instance
        from repro.engine import Engine
        from repro.query import catalog
        from repro.semiring import COUNT

        query = catalog.line3()
        inst = random_instance(query, 80, 10, seed=11)
        annotated = inst.with_uniform_annotations(COUNT)
        text = "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)"

        def run(backend):
            joined = mpc_join(query, inst, p=4, backend=backend)
            agg = mpc_join_aggregate(
                query, ("B",), annotated, COUNT, p=4, backend=backend
            )
            engine = Engine(p=4, backend=backend)
            for rel in inst.relations.values():
                engine.register(rel)
            served = engine.execute(text)
            return [
                (sorted(joined.relation.all_rows()), joined.report.as_dict()),
                (
                    sorted(zip(agg.relation.rows, agg.relation.annotations)),
                    agg.report.as_dict(),
                ),
                (sorted(served.rows()), served.report.as_dict()),
            ]

        got = run(_RunOpsOnly())
        assert got == run(SerialBackend())
        assert got[0][0] and got[2][0]


# ----------------------------------------------------------------------
# LoadReport ergonomics (conformance failure readability)
# ----------------------------------------------------------------------

class TestLoadReport:
    def _report(self):
        cluster = Cluster(4)
        cluster.tally_members([(0, 1, 2)], [5, 3, 2], "phase/a")
        cluster.tally_members([(1, 3)], [4, 1], "phase/b")
        return cluster.snapshot()

    def test_average_is_true_division(self):
        report = self._report()
        assert report.average == pytest.approx(15 / 4)
        assert isinstance(report.average, float)

    def test_as_dict_round_trips_every_field(self):
        report = self._report()
        d = report.as_dict()
        assert d["p"] == 4
        assert d["load"] == report.load == 7
        assert d["max_step_load"] == report.max_step_load == 5
        assert d["steps"] == report.steps == 2
        assert d["totals"] == [5, 7, 2, 1]
        assert d["by_label"] == {"phase/a": 10, "phase/b": 5}
        assert d["total"] == 15
        assert d["average"] == pytest.approx(3.75)
        import json

        json.dumps(d)  # must be JSON-serializable for bench/CI artifacts

    def test_str_is_the_summary(self):
        report = self._report()
        assert str(report) == report.summary()
        assert "load=7" in str(report)


# ----------------------------------------------------------------------
# Lifecycle and async dispatch
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_close_unregisters_atexit_callback(self):
        """Regression: close() used to leave its atexit registration
        behind, so every create/close cycle kept the closed backend (and
        its pipes/mirrors) alive for the life of the process.  The
        registration holds a bound method, so liveness is the observable:
        once close() has unregistered, nothing pins the instance.
        (atexit._ncallbacks() cannot see this — unregistered slots are
        NULLed in place, never removed from the count.)"""
        import gc
        import weakref

        backend = MultiprocessBackend(workers=2)
        backend.map_parts(_len_part, [[1], [2]])  # starts the pool
        backend.close()
        ref = weakref.ref(backend)
        del backend
        gc.collect()
        assert ref() is None, "closed backend still referenced (atexit leak)"

    def test_close_terminates_all_workers(self):
        backend = MultiprocessBackend(workers=2)
        backend.map_parts(_len_part, [[1], [2]])
        procs = list(backend._procs)
        assert procs and all(p.is_alive() for p in procs)
        backend.close()
        for p in procs:
            p.join(timeout=5)
        assert not any(p.is_alive() for p in procs)
        backend.close()  # idempotent
