"""Execution-backend registry.

Backends resolve in three ways, in priority order:

1. A :class:`Backend` *instance* is used as-is (caller owns its lifetime).
2. A registered *name* (``"serial"``, ``"multiprocess"``, ...) resolves to
   a process-wide shared instance, created on first use — worker pools are
   expensive, so name lookups deliberately share one.
3. ``None`` falls back to the ``REPRO_BACKEND`` environment variable, then
   to ``"serial"``.  The environment hook is how CI runs the entire tier-1
   suite under a non-default backend without touching a single test.

New backends call :func:`register_backend`; the differential conformance
harness (``tests/conformance/``) picks up every registered name
automatically and holds it to the serial reference.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.errors import MPCError
from repro.mpc.backends.base import Backend, deliver_local
from repro.mpc.backends.chaos import FaultInjectingBackend
from repro.mpc.backends.multiprocess import MultiprocessBackend
from repro.mpc.backends.serial import SerialBackend

__all__ = [
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
    "FaultInjectingBackend",
    "deliver_local",
    "register_backend",
    "available_backends",
    "create_backend",
    "get_backend",
    "default_backend_name",
    "shutdown_backends",
]

#: Environment variable selecting the default backend for ``backend=None``.
BACKEND_ENV = "REPRO_BACKEND"

_FACTORIES: dict[str, Callable[[], Backend]] = {}
_SHARED: dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (overwrites quietly).

    The factory is called at most once per process for name-based lookups;
    the resulting instance is shared.
    """
    _FACTORIES[name] = factory
    _SHARED.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, serial (the reference) first."""
    names = sorted(_FACTORIES)
    if "serial" in names:
        names.remove("serial")
        names.insert(0, "serial")
    return tuple(names)


def default_backend_name() -> str:
    """The name ``backend=None`` resolves to (env override or serial)."""
    return os.environ.get(BACKEND_ENV, "serial")


def get_backend(spec: "Backend | str | None" = None) -> Backend:
    """Resolve a backend instance from an instance, name, or ``None``."""
    if isinstance(spec, Backend):
        return spec
    name = spec if spec is not None else default_backend_name()
    inst = _SHARED.get(name)
    if inst is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise MPCError(
                f"unknown backend {name!r}; registered: {available_backends()}"
            )
        inst = _SHARED[name] = factory()
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
    name = spec if spec is not None else default_backend_name()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise MPCError(
            f"unknown backend {name!r}; registered: {available_backends()}"
        )
    return factory()


def shutdown_backends() -> None:
    """Close and forget every shared backend instance (tests, atexit)."""
    for inst in _SHARED.values():
        inst.close()
    _SHARED.clear()


register_backend("serial", SerialBackend)
register_backend("multiprocess", MultiprocessBackend)
register_backend("chaos", FaultInjectingBackend)
