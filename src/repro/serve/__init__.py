"""The serving tier: a multi-replica front door over engines.

One :class:`~repro.engine.session.Engine` holds one warm cluster.  This
package puts a :class:`Frontdoor` in front of N engine replicas, each
with its *own* backend worker pool and the whole catalog, and gives it
three mechanisms:

* **routing** — a stable hash of the query text picks the replica, so
  one text keeps its result and plan caches hot on one engine;
* **admission** — a bounded per-replica backlog with typed load-shed
  (:class:`~repro.errors.AdmissionRejected`), so overload fails fast at
  the door instead of queueing without bound;
* **micro-batching** — a small gather window per replica coalescing
  queued texts into one :meth:`Engine.submit_batch` call, where the
  engine parses, binds and records every request itself.

See DESIGN.md section 10 for the contracts.
"""

from repro.serve.frontdoor import Frontdoor, FrontdoorStats

__all__ = ["Frontdoor", "FrontdoorStats"]
