"""The serial in-process backend: the conformance reference.

Runs every per-server loop inline in the calling process — exactly the
execution the simulator had before the backend seam existed.  All other
backends are differentially tested against this one.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.mpc.backends.base import Backend

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Single-process execution; the reference for every other backend."""

    name = "serial"

    def run_ops(
        self,
        ops: Sequence[tuple[Callable, Sequence[list], Any, Any]],
        meter: Any = None,
        span: Any = None,
    ) -> list[Any]:
        """The trivial loop, counted as one request round.

        ``meter``/``span`` are accepted for interface parity and ignored:
        nothing crosses a process boundary, so there is no wire traffic
        to attribute and no worker round to trace.
        """
        self.requests += 1
        return [
            [fn(part, common, i) for i, part in enumerate(parts)]
            for fn, parts, common, _owner in ops
        ]
