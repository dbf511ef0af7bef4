"""Zero-copy shared-memory transport over the multiprocess worker pool.

:class:`SharedMemoryBackend` keeps the supervised pool, the worker memo
protocol, and the recovery ladder of
:class:`~repro.mpc.backends.multiprocess.MultiprocessBackend` — it changes
only *how part bytes reach workers*.  Instead of riding the request pipe
every time a worker needs them, part payloads are interned once into a
coordinator-owned **arena** of ``multiprocessing.shared_memory`` segments,
content-addressed by the same blake2b fingerprints the base backend
already computes, and requests carry only tiny
``("shm", segment, offset, length, fmt)`` descriptors:

* **Write once per content, ever.**  The base backend re-ships a part
  whenever the worker memo key ``(fn, common, fp, idx)`` is cold — a new
  function or a new ``common`` over the *same* part pays the bytes again,
  and a respawned worker pays them for everything it had.  The arena is
  keyed by content fingerprint alone, so every one of those re-sends
  collapses to a descriptor; a respawned worker re-seeds its memo from
  the segments it re-attaches, shipping nothing.
* **Zero-copy decode.**  Interned parts use the *frame* format
  (:func:`repro.data.columns.pack_frame`): workers map the segment
  read-only and rebuild each :class:`~repro.data.columns.ColumnBlock`
  as ``memoryview`` casts straight into it — no bytes are copied until a
  cache miss actually materializes rows for the compute.
* **Large commons ride the arena too.**  The base backend re-pickles and
  re-ships a step's ``common`` payload in every round's request; here
  anything above a small threshold is interned (keyed by the fingerprint
  of its pickled bytes) and replaced by a descriptor, which also serves
  as the stable worker cache-key component.

Lifecycle: segments are created lazily by the coordinator, grow as an
append-only bump allocator (content-addressed entries are immutable, so
there is nothing to mutate or evict — the arena is bounded by the volume
of *distinct* part content a session touches, and unused segments cost
address space, not RAM, until pages are touched), and are unlinked in
:meth:`SharedMemoryBackend.close`.  POSIX keeps an unlinked segment alive
until the last mapper closes it, so close order vs. worker shutdown is a
non-issue; if the coordinator dies without closing, the stdlib resource
tracker unlinks its registrations at interpreter exit.  Workers attaching
under a ``spawn`` start method immediately *unregister* the attachment
from their own resource tracker — otherwise a dying worker's tracker
would unlink segments the rest of the pool still reads (the well-known
``SharedMemory`` attach-side tracker hazard; under ``fork`` the tracker
process is shared with the coordinator and the registration is an
idempotent set-add, so unregistering there would be wrong).

Fault interaction is inherited unchanged: a killed or hung worker is
respawned and its slice resubmitted (descriptors, not bytes), inline
degradation recomputes from coordinator-held parts, and the chaos wrapper
holds the whole stack to the bit-identical conformance contract.
"""

from __future__ import annotations

import os
import pickle
import threading
from hashlib import blake2b
from typing import Any, Callable, Sequence

from repro.data.columns import pack_frame, unpack_frame
from repro.mpc.backends.multiprocess import _PROTO, MultiprocessBackend

__all__ = [
    "SharedMemoryBackend",
    "read_descriptor",
    "read_descriptor_part",
    "shm_supported",
]

#: Arena segment granularity.  Payloads larger than this get a segment of
#: their own; smaller ones pack together.  4 MiB keeps segment counts low
#: without reserving silly amounts per small session.
_SEGMENT_BYTES = 1 << 22

#: ``common`` payloads below this many pickled bytes ship inline — a
#: descriptor plus a worker-side segment lookup isn't worth it.
_COMMON_INLINE_MAX = 1024


def shm_supported() -> bool:
    """Probe: can this platform create/attach/unlink a shm segment?

    Used by the registry to decide whether to expose the ``"shm"`` name at
    all, so CI matrix cells on platforms without a usable ``/dev/shm``
    (or the Windows section-object equivalent) skip cleanly instead of
    failing at first use.  The result is cached per process.
    """
    global _SUPPORTED
    if _SUPPORTED is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.buf[0] = 1
            seg.close()
            seg.unlink()
            _SUPPORTED = True
        except Exception:  # noqa: BLE001 - any failure means "not here"
            _SUPPORTED = False
    return _SUPPORTED


_SUPPORTED: bool | None = None


# ----------------------------------------------------------------------
# Worker side: attach-and-read descriptor resolution
# ----------------------------------------------------------------------

_attached: dict[str, Any] = {}
_attached_lock = threading.Lock()

#: Process-wide segment name sequence.  Shared across arenas: several
#: backends can coexist in one process (the registry's ``shm`` instance
#: plus chaos wrappers' private inners), and per-arena counters would
#: hand them colliding segment names.
_name_seq = iter(range(1 << 62)).__next__


def _spawn_start_method() -> bool:
    import multiprocessing as mp

    return "fork" not in mp.get_all_start_methods()


def _segment(name: str):
    """Attach (once per process) to a named arena segment."""
    seg = _attached.get(name)
    if seg is None:
        with _attached_lock:
            seg = _attached.get(name)
            if seg is None:
                from multiprocessing import shared_memory

                seg = shared_memory.SharedMemory(name=name)
                if _spawn_start_method():
                    # Attaching registered the segment with THIS process's
                    # resource tracker, which would unlink it when this
                    # worker dies — under the coordinator's feet.  The
                    # coordinator owns cleanup; forget the registration.
                    from multiprocessing import resource_tracker

                    try:
                        resource_tracker.unregister(
                            seg._name, "shared_memory"  # noqa: SLF001
                        )
                    except Exception:  # noqa: BLE001 - best-effort
                        pass
                _attached[name] = seg
    return seg


def read_descriptor(desc: tuple) -> memoryview:
    """Resolve a descriptor to a zero-copy view of its payload bytes."""
    _tag, name, offset, length, _fmt = desc
    return _segment(name).buf[offset:offset + length]


def read_descriptor_part(desc: tuple) -> list:
    """Resolve a part descriptor to its row list.

    Frame-format payloads decode through
    :func:`~repro.data.columns.unpack_frame_block` — the
    :class:`~repro.data.columns.ColumnBlock` is rebuilt as memoryview
    casts into the mapped segment (zero-copy); rows materialize from it
    only because the compute functions take row lists.  ``"bytes"``
    payloads (non-columnar fallback) unpickle as usual.
    """
    view = read_descriptor(desc)
    if desc[4] == "frame":
        return unpack_frame(view)
    return pickle.loads(view)


def _reset_worker_state() -> None:
    """Drop cached attachments (tests; harmless data races aside)."""
    with _attached_lock:
        for seg in _attached.values():
            try:
                seg.close()
            except Exception:  # noqa: BLE001
                pass
        _attached.clear()


# ----------------------------------------------------------------------
# Coordinator side: the arena and the backend
# ----------------------------------------------------------------------


class _ShmArena:
    """Append-only, content-addressed store over shared-memory segments.

    ``intern(fp, payload, fmt)`` writes ``payload`` at most once per
    ``(fp, fmt)`` and returns the stable descriptor tuple; entries are
    immutable and never move, so descriptors handed to workers stay valid
    for the arena's lifetime.  Writes bump-allocate within the newest
    segment (16-byte aligned so frame-internal offsets keep their
    alignment) and open a fresh segment when the payload doesn't fit.
    All mutation happens under the owning backend's I/O lock.
    """

    def __init__(self, segment_bytes: int = _SEGMENT_BYTES) -> None:
        self.segment_bytes = segment_bytes
        self._segments: list[Any] = []
        self._cursor = 0
        self._index: dict[tuple[bytes, str], tuple] = {}
        self.bytes_interned = 0

    def lookup(self, fp: bytes, fmt: str) -> tuple | None:
        return self._index.get((fp, fmt))

    def intern(self, fp: bytes, payload: bytes, fmt: str) -> tuple:
        desc = self._index.get((fp, fmt))
        if desc is None:
            name, offset = self._write(payload)
            desc = ("shm", name, offset, len(payload), fmt)
            self._index[(fp, fmt)] = desc
        return desc

    def _write(self, payload: bytes) -> tuple[str, int]:
        from multiprocessing import shared_memory

        n = len(payload)
        if not self._segments or self._cursor + n > self._segments[-1].size:
            # PID-tagged names make stale segments attributable (and
            # sweepable) if a coordinator is SIGKILLed mid-session.
            name = f"repro-{os.getpid()}-{_name_seq()}"
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=max(self.segment_bytes, n)
            )
            self._segments.append(seg)
            self._cursor = 0
        seg = self._segments[-1]
        offset = self._cursor
        seg.buf[offset:offset + n] = payload
        self._cursor = (offset + n + 15) // 16 * 16
        self.bytes_interned += n
        return seg.name, offset

    @property
    def segments(self) -> int:
        return len(self._segments)

    @property
    def entries(self) -> int:
        return len(self._index)

    def destroy(self) -> None:
        """Close and unlink every segment; forget the index.  Idempotent."""
        segments, self._segments = self._segments, []
        self._index = {}
        self._cursor = 0
        for seg in segments:
            try:
                seg.close()
            except Exception:  # noqa: BLE001 - already closed
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class SharedMemoryBackend(MultiprocessBackend):
    """Worker-pool backend shipping parts as shared-memory descriptors.

    Same constructor knobs, supervision policy, and worker protocol as
    :class:`MultiprocessBackend`; see the module docstring for what the
    arena changes.  Extra :meth:`wire_stats` keys:

    ``shm_segments`` / ``shm_entries`` / ``shm_bytes_interned``
        Arena shape: live segments, distinct interned payloads, and the
        cumulative bytes written into shared memory (each distinct
        content counted once — this is the "ship once" half of the
        ledger; ``bytes_shipped`` inherits that one-time charge).
    ``descriptor_ships``
        Jobs whose payload crossed the pipe as a descriptor instead of
        bytes — re-sends that the base backend would have paid for in
        full.
    """

    name = "shm"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._arena = _ShmArena()
        self._descriptor_ships = 0

    # -- transport overrides -------------------------------------------
    def _pack_common(self, common_bytes: bytes) -> Any:
        if len(common_bytes) <= _COMMON_INLINE_MAX:
            return common_bytes
        fp = blake2b(common_bytes, digest_size=16).digest()
        return self._arena.intern(fp, common_bytes, "bytes")

    def _blob_getter(
        self, parts: Sequence[list], owner: Any, blobs: list[bytes] | None,
        meter: Any = None,
    ) -> Callable[[int], Any]:
        """Descriptor supplier: intern once per content, then refer.

        Falls back to the base pipe-shipping getter when parts have no
        fingerprints (no owner / unpicklable rows) — the arena is
        content-addressed, so nameless content has nowhere to live.
        ``meter`` mirrors the base semantics: it is charged only when
        content is actually interned (the one-time boundary crossing),
        not for descriptor re-sends — so a fully warm query meters zero
        part bytes on this backend, exactly like ``bytes_shipped``.
        """
        store = getattr(owner, "_substrate", None) if owner is not None else None
        fps = store.get("backend_fp") if store is not None else None
        base_get = super()._blob_getter(parts, owner, blobs, meter)
        if fps is None:
            return base_get
        column_parts = getattr(owner, "column_parts", None)
        if getattr(owner, "parts", None) is not parts:
            column_parts = None

        def get(idx: int) -> Any:
            fp = fps[idx]
            desc = self._arena.lookup(fp, "frame")
            if desc is None:
                desc = self._arena.lookup(fp, "bytes")
            if desc is None:
                block = column_parts[idx] if column_parts is not None else None
                try:
                    payload = pack_frame(
                        parts[idx] if block is None else (), block
                    )
                    fmt = "frame"
                except Exception:  # noqa: BLE001 - unframeable: pickle rows
                    payload = pickle.dumps(parts[idx], _PROTO)
                    fmt = "bytes"
                desc = self._arena.intern(fp, payload, fmt)
                # The content crossed a process boundary exactly once;
                # charge it like a ship so bytes_shipped stays comparable
                # across backends.
                with self._stats_lock:
                    self._wire_parts += 1
                    self._wire_bytes += len(payload)
                if meter is not None:
                    meter.add(len(payload))
            else:
                with self._stats_lock:
                    self._descriptor_ships += 1
            return desc

        return get

    # -- observability / lifecycle -------------------------------------
    def wire_stats(self) -> dict:
        stats = super().wire_stats()
        with self._stats_lock:
            stats["shm_segments"] = self._arena.segments
            stats["shm_entries"] = self._arena.entries
            stats["shm_bytes_interned"] = self._arena.bytes_interned
            stats["descriptor_ships"] = self._descriptor_ships
        return stats

    def close(self) -> None:
        super().close()
        self._arena.destroy()
