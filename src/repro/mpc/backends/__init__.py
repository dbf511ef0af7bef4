"""Execution-backend registry: a fixed serial / multiprocess / chaos table.

Backends resolve in three ways, in priority order:

1. A :class:`Backend` *instance* is used as-is (caller owns its lifetime).
2. A registered *name* (``"serial"``, ``"multiprocess"``, ``"chaos"``)
   resolves to a process-wide shared instance, created on first use —
   worker pools are expensive, so name lookups deliberately share one.
3. ``None`` falls back to the ``REPRO_BACKEND`` environment variable, then
   to ``"serial"``.  The environment hook is how CI runs the entire tier-1
   suite under a non-default backend without touching a single test.

The differential conformance harness (``tests/conformance/``) replays its
grid on every name in the table and holds it to the serial reference.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.errors import MPCError
from repro.mpc.backends.base import Backend
from repro.mpc.backends.chaos import FaultInjectingBackend
from repro.mpc.backends.multiprocess import MultiprocessBackend
from repro.mpc.backends.serial import SerialBackend

__all__ = [
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
    "FaultInjectingBackend",
    "available_backends",
    "create_backend",
    "get_backend",
    "default_backend_name",
    "shutdown_backends",
]

#: Environment variable selecting the default backend for ``backend=None``.
BACKEND_ENV = "REPRO_BACKEND"

#: Every backend by name, serial (the reference) first.
_FACTORIES: dict[str, Callable[[], Backend]] = {
    "serial": SerialBackend,
    "chaos": FaultInjectingBackend,
    "multiprocess": MultiprocessBackend,
}
_SHARED: dict[str, Backend] = {}


def available_backends() -> tuple[str, ...]:
    """Backend names, serial (the reference) first."""
    return tuple(_FACTORIES)


def _known_name(spec: str | None) -> str:
    name = spec if spec is not None else default_backend_name()
    if name not in _FACTORIES:
        raise MPCError(
            f"unknown backend {name!r}; registered: {available_backends()}"
        )
    return name


def default_backend_name() -> str:
    """The name ``backend=None`` resolves to (env override or serial)."""
    return os.environ.get(BACKEND_ENV, "serial")


def get_backend(spec: "Backend | str | None" = None) -> Backend:
    """Resolve a backend instance from an instance, name, or ``None``."""
    if isinstance(spec, Backend):
        return spec
    name = _known_name(spec)
    inst = _SHARED.get(name)
    if inst is None:
        inst = _SHARED[name] = _FACTORIES[name]()
    return inst


def create_backend(spec: "Backend | str | None" = None) -> Backend:
    """A *fresh* backend instance the caller owns (and must close).

    The serving front door (:mod:`repro.serve`) gives each engine replica
    its own backend so replicas execute on disjoint worker pools — the
    whole point of running replicas is overlapping their backend I/O,
    which the process-wide shared instances of :func:`get_backend` would
    serialize.  An explicit :class:`Backend` instance is passed through
    as-is (the caller already owns its lifetime and has chosen to share
    it).
    """
    if isinstance(spec, Backend):
        return spec
    return _FACTORIES[_known_name(spec)]()


def shutdown_backends() -> None:
    """Close and forget every shared backend instance (tests, atexit)."""
    for inst in _SHARED.values():
        inst.close()
    _SHARED.clear()

