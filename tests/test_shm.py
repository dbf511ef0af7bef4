"""Shared-memory backend: frame format, arena, transport, lifecycle."""

from __future__ import annotations

import glob
import os
import pickle
import signal
import time

import pytest

from repro.data.columns import (
    ColumnBlock,
    pack_frame,
    unpack_frame,
    unpack_frame_block,
)
from repro.data.relation import Relation
from repro.engine import Engine
from repro.mpc import Cluster
from repro.mpc.backends import SerialBackend, shm_supported
from repro.mpc.backends.shm import (
    SharedMemoryBackend,
    _ShmArena,
    read_descriptor,
)

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="no usable shared memory on this platform"
)


# ----------------------------------------------------------------------
# Module-level map_parts functions (workers import them by name).
# ----------------------------------------------------------------------

def _sort_part(part, common, idx):  # noqa: ARG001
    return sorted(part)


def _count_part(part, common, idx):  # noqa: ARG001
    return len(part)


def _tag_part(part, common, idx):
    return (idx, common, sorted(part))


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("cannot pickle this")


class _Owner:
    """Minimal fingerprintable owner (what DistRelation provides)."""

    def __init__(self, parts):
        self.parts = parts
        self._substrate: dict = {}


@pytest.fixture
def shm_backend():
    backend = SharedMemoryBackend(workers=2)
    yield backend
    backend.close()


def _leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/repro-{os.getpid()}-*")


# ----------------------------------------------------------------------
# Frame format
# ----------------------------------------------------------------------

FRAME_CASES = [
    [(1, 2), (3, 4), (5, 6)],
    [(i, -i * 1000, i % 3) for i in range(100)],
    [("alpha", 1), ("beta", 2), ("alpha", 3)],
    [(1.5, "x"), (2.5, "y")],
    [(None, frozenset({1})), (True, frozenset())],
    [],
    [(), (), ()],
]


class TestFrameFormat:
    @pytest.mark.parametrize("rows", FRAME_CASES)
    def test_round_trip_from_rows(self, rows):
        payload = pack_frame(rows)
        assert unpack_frame(memoryview(payload)) == rows

    @pytest.mark.parametrize("rows", FRAME_CASES)
    def test_round_trip_from_block(self, rows):
        arity = len(rows[0]) if rows else 0
        block = ColumnBlock.from_rows(rows, arity)
        payload = pack_frame((), block)
        assert unpack_frame(memoryview(payload)) == rows
        back = unpack_frame_block(memoryview(payload))
        assert back.rows() == rows

    def test_numeric_decode_is_zero_copy(self):
        rows = [(i, i * 7) for i in range(50)]
        payload = pack_frame(rows)
        block = unpack_frame_block(memoryview(payload))
        for col in block.columns:
            if col.kind in ("i", "d"):
                assert isinstance(col.data, memoryview)

    def test_non_tuple_rows_use_pickled_fallback(self):
        part = [[1, 2], [3]]  # lists, not tuples: no columnar form
        payload = pack_frame(part)
        assert unpack_frame(memoryview(payload)) == part

    def test_ragged_rows_use_pickled_fallback(self):
        part = [(1, 2), (3,)]
        payload = pack_frame(part)
        assert unpack_frame(memoryview(payload)) == part


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------

class TestArena:
    def test_intern_is_idempotent_per_content(self):
        arena = _ShmArena()
        try:
            d1 = arena.intern(b"fp1", b"payload-one", "frame")
            d2 = arena.intern(b"fp1", b"other-bytes-ignored", "frame")
            assert d1 == d2
            assert arena.entries == 1
            assert arena.bytes_interned == len(b"payload-one")
        finally:
            arena.destroy()

    def test_fmt_is_part_of_the_key(self):
        arena = _ShmArena()
        try:
            d1 = arena.intern(b"fp", b"x" * 8, "frame")
            d2 = arena.intern(b"fp", b"y" * 8, "bytes")
            assert d1 != d2 and arena.entries == 2
        finally:
            arena.destroy()

    def test_offsets_are_16_aligned_and_payloads_exact(self):
        arena = _ShmArena(segment_bytes=256)
        try:
            payloads = [bytes([i + 1]) * (i + 1) for i in range(10)]
            descs = [
                arena.intern(bytes([i]), p, "bytes")
                for i, p in enumerate(payloads)
            ]
            for desc, p in zip(descs, payloads):
                tag, _name, offset, length, _fmt = desc
                assert tag == "shm" and offset % 16 == 0 and length == len(p)
                assert bytes(read_descriptor(desc)) == p
        finally:
            arena.destroy()

    def test_oversized_payload_gets_own_segment(self):
        arena = _ShmArena(segment_bytes=64)
        try:
            arena.intern(b"small", b"s" * 8, "bytes")
            arena.intern(b"large", b"L" * 1024, "bytes")
            assert arena.segments == 2
        finally:
            arena.destroy()

    def test_destroy_unlinks_segments_and_is_idempotent(self):
        # Diff against pre-existing segments: other live backends in this
        # process (the shared registry instance, other fixtures) may hold
        # arenas of their own.
        before = set(_leaked_segments())
        arena = _ShmArena()
        arena.intern(b"fp", b"payload", "bytes")
        created = set(_leaked_segments()) - before
        assert created
        arena.destroy()
        assert not (set(_leaked_segments()) & created)
        arena.destroy()  # second call is a no-op


# ----------------------------------------------------------------------
# Transport semantics
# ----------------------------------------------------------------------

PARTS = [[(1, 2), (3, 4)], [(5, 6)], [], [(7, 8), (9, 10), (11, 12)]]


class TestSharedMemoryTransport:
    def test_matches_serial(self, shm_backend):
        owner = _Owner(PARTS)
        got = shm_backend.map_parts(_tag_part, PARTS, common="c", owner=owner)
        assert got == SerialBackend().map_parts(_tag_part, PARTS, common="c")

    def test_content_ships_once_across_functions(self, shm_backend):
        """The base backend re-ships parts per (fn, common) memo key; the
        arena is keyed by content alone, so a new function over the same
        parts must ship zero new part bytes."""
        owner = _Owner(PARTS)
        shm_backend.map_parts(_sort_part, PARTS, owner=owner)
        stats = shm_backend.wire_stats()
        assert stats["shm_entries"] > 0
        shipped_after_first = stats["bytes_shipped"]
        shm_backend.map_parts(_count_part, PARTS, owner=owner)
        stats = shm_backend.wire_stats()
        assert stats["bytes_shipped"] == shipped_after_first
        assert stats["descriptor_ships"] > 0

    def test_respawned_worker_reseeds_without_reshipping(self, shm_backend):
        owner = _Owner(PARTS)
        first = shm_backend.map_parts(_sort_part, PARTS, owner=owner)
        shipped = shm_backend.wire_stats()["bytes_shipped"]
        # Kill every worker; the supervisor respawns them and resubmits.
        for proc in shm_backend._procs:
            os.kill(proc.pid, signal.SIGKILL)
        time.sleep(0.05)
        again = shm_backend.map_parts(_sort_part, PARTS, owner=owner)
        assert again == first
        assert shm_backend.fault_stats()["worker_deaths"] > 0
        # Re-seeding went through descriptors: not one byte re-shipped.
        assert shm_backend.wire_stats()["bytes_shipped"] == shipped

    def test_large_common_is_interned_once(self, shm_backend):
        owner = _Owner(PARTS)
        big_common = tuple(range(2000))  # pickles well past 1024 bytes
        entries_before = shm_backend.wire_stats()["shm_entries"]
        r1 = shm_backend.map_parts(_tag_part, PARTS, common=big_common, owner=owner)
        entries_mid = shm_backend.wire_stats()["shm_entries"]
        r2 = shm_backend.map_parts(_tag_part, PARTS, common=big_common, owner=owner)
        assert r1 == r2 == SerialBackend().map_parts(
            _tag_part, PARTS, common=big_common
        )
        assert entries_mid > entries_before  # the common landed in the arena
        assert shm_backend.wire_stats()["shm_entries"] == entries_mid

    def test_ownerless_parts_fall_back_to_pipe_shipping(self, shm_backend):
        got = shm_backend.map_parts(_sort_part, PARTS)
        assert got == SerialBackend().map_parts(_sort_part, PARTS)

    def test_unpicklable_parts_fall_back_inline(self, shm_backend):
        parts = [[(_Unpicklable(), 1)], []]
        assert shm_backend.map_parts(_count_part, parts) == [1, 0]

    def test_close_unlinks_all_segments(self):
        before = set(_leaked_segments())
        backend = SharedMemoryBackend(workers=2)
        backend.map_parts(_sort_part, PARTS, owner=_Owner(PARTS))
        created = set(_leaked_segments()) - before
        assert created
        backend.close()
        assert not (set(_leaked_segments()) & created)
        backend.close()  # idempotent

    def test_cluster_and_engine_run_on_shm(self):
        before = set(_leaked_segments())
        backend = SharedMemoryBackend(workers=2)
        try:
            eng = Engine(p=4, backend=backend)
            eng.register(
                Relation("R1", ("A", "B"), [(i, i % 5) for i in range(40)])
            )
            eng.register(
                Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(40)])
            )
            serial = Engine(p=4, backend="serial")
            serial.register(
                Relation("R1", ("A", "B"), [(i, i % 5) for i in range(40)])
            )
            serial.register(
                Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(40)])
            )
            q = "Q(A,B,C) :- R1(A,B), R2(B,C)"
            cold = eng.execute(q)
            ref = serial.execute(q)
            assert set(cold.rows()) == set(ref.rows())
            assert cold.report.as_dict() == ref.report.as_dict()
            # Invalidate the result cache but keep the trace valid? No —
            # drive the warm path: same query again replays the plan.
            eng.result_cache = False
            warm = eng.execute(q)
            assert warm.metrics.plan_replayed
            assert set(warm.rows()) == set(ref.rows())
            assert warm.report.as_dict() == ref.report.as_dict()
        finally:
            backend.close()
        assert set(_leaked_segments()) <= before

    def test_batched_queries_pipeline_through_one_backend(self):
        before = set(_leaked_segments())
        backend = SharedMemoryBackend(workers=2)
        try:
            eng = Engine(p=4, backend=backend, result_cache=False)
            eng.register(
                Relation("R1", ("A", "B"), [(i, i % 5) for i in range(60)])
            )
            eng.register(
                Relation("R2", ("B", "C"), [(i % 5, i % 7) for i in range(60)])
            )
            queries = [
                "Q(A,B,C) :- R1(A,B), R2(B,C)",
                "Q(A,B) :- R1(A,B), R2(B,C)",
                "Q(B,C) :- R1(A,B), R2(B,C)",
            ]
            cold = eng.submit_batch(queries)  # records traces
            warm = eng.submit_batch(queries * 2, threads=3)
            assert all(r.ok for r in warm.results)
            assert all(r.metrics.plan_replayed for r in warm.results)
            for r_cold, r_warm in zip(cold.results * 2, warm.results):
                assert r_warm.report.as_dict() == r_cold.report.as_dict()
            # The transport's claim: once the arena holds the workload,
            # warm passes ship descriptors only — zero part bytes.
            before_wire = backend.wire_stats()
            again = eng.submit_batch(queries * 2, threads=3)
            assert all(r.metrics.plan_replayed for r in again.results)
            wire = backend.wire_stats()
            assert wire["bytes_shipped"] == before_wire["bytes_shipped"]
        finally:
            backend.close()
        assert set(_leaked_segments()) <= before
