"""The sharded serving tier: a multi-replica front door over engines.

One :class:`~repro.engine.session.Engine` holds one warm cluster; the
ROADMAP's serving story needs many.  This package puts a
:class:`Frontdoor` in front of N engine replicas (each with its *own*
backend worker pool over a replicated or partitioned catalog) and gives
it the three serving-tier mechanisms:

* **admission** — a bounded per-replica backlog with typed load-shed
  (:class:`~repro.errors.AdmissionRejected`), so overload fails fast at
  the door instead of queueing without bound;
* **routing** — canonical-form-affine (one query's canonical form always
  lands on the same replica, keeping its result/plan caches hot) with
  least-loaded spill on hot keys;
* **micro-batching** — a small gather window per replica coalescing
  queued requests into one :meth:`Engine.submit_batch` call;
* **plan shipping** — when a replica executes a query cold, the front
  door exports its plan as a prepared statement
  (:meth:`Engine.export_plan <repro.engine.session.Engine.export_plan>`:
  query text + algorithm request, a JSON record) and installs it into
  every other replica that holds the touched relations; each receiver
  prices it on its own data, so one prepare warms the whole tier's plan
  caches.

See DESIGN.md section 10 for the contracts.
"""

from repro.serve.frontdoor import Frontdoor, FrontdoorStats

__all__ = ["Frontdoor", "FrontdoorStats"]
