"""Deterministic hashing for routing decisions.

Python's built-in ``hash`` is salted per process for strings, which would
make simulated runs non-reproducible.  All routing in the simulator goes
through :func:`stable_hash` instead.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Any

__all__ = ["stable_hash"]

_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(h: int, v: int) -> int:
    """splitmix64-style mixing step."""
    h = (h + 0x9E3779B97F4A7C15 + v) & _MASK
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


@lru_cache(maxsize=256)
def _salt_state(salt: int) -> int:
    """Initial mixing state per salt (salts repeat across routing steps)."""
    return _mix(0x243F6A8885A308D3, salt & _MASK)


def stable_hash(obj: Any, salt: int = 0) -> int:
    """A process-independent 64-bit hash of ints, strings, and tuples.

    Equal keys hash equally, as under Python ``==``: a ``bool`` hashes as
    its int and an integral ``float`` as that int, so ``True``, ``1`` and
    ``1.0`` route to one server.

    Args:
        obj: An int, string, bytes, None, bool, float, or (nested) tuple of
            those.
        salt: Optional salt so independent routing decisions decorrelate.

    Raises:
        TypeError: For unsupported types (lists, dicts, sets are not hashable
            routing keys).
    """
    h = _salt_state(salt)
    stack = [obj]
    while stack:
        cur = stack.pop()
        if isinstance(cur, float) and cur.is_integer():
            cur = int(cur)
        if cur is None:
            h = _mix(h, 0x5BF03635)
        elif isinstance(cur, int):
            h = _mix(h, cur & _MASK)
            h = _mix(h, (cur >> 64) & _MASK)
        elif isinstance(cur, float):
            h = _mix(h, hash(cur) & _MASK)
        elif isinstance(cur, str):
            h = _mix(h, zlib.crc32(cur.encode("utf-8")))
            h = _mix(h, len(cur))
        elif isinstance(cur, bytes):
            h = _mix(h, zlib.crc32(cur))
        elif isinstance(cur, tuple):
            h = _mix(h, 0xABCD1234 + len(cur))
            stack.extend(reversed(cur))
        else:
            raise TypeError(f"unhashable routing key type: {type(cur).__name__}")
    return h
