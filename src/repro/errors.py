"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type.  Sub-types distinguish the three common failure domains:
malformed queries, malformed data, and misuse of the MPC simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class QueryError(ReproError):
    """A query (hypergraph) is malformed or outside an algorithm's class.

    Raised, for example, when an acyclic-only algorithm receives a cyclic
    join, or when a free-connex algorithm receives a non-free-connex
    join-aggregate query.
    """


class CyclicQueryError(QueryError):
    """The query is cyclic but an acyclic query was required."""


class ParseError(QueryError):
    """Datalog-style query text could not be parsed."""


class EngineError(ReproError):
    """Misuse of a serving-engine session (unknown relations, bad batch)."""


class SchemaError(ReproError):
    """Relation data does not match its declared schema."""


class InstanceError(ReproError):
    """An instance is inconsistent with its query (e.g. missing relations)."""


class MPCError(ReproError):
    """Misuse of the MPC simulator (bad routing targets, empty groups, ...)."""


class AllocationError(MPCError):
    """Server allocation could not satisfy the requested sub-problem demands."""


# ----------------------------------------------------------------------
# Fault taxonomy (DESIGN.md section 8).
#
# Faults are *environmental* failures — a worker process dying, a round
# hanging past its timeout — as opposed to the deterministic errors above
# (bad queries, bad data, simulator misuse).  The distinction matters
# because faults are retryable: re-executing the same pure computation on
# a respawned worker or inline in the coordinator yields the exact same
# result (the simulation is deterministic), so the multiprocess backend
# owns the whole recovery ladder (respawn -> resubmit -> inline) and the
# engine only reports what escapes it.
# ----------------------------------------------------------------------


class FaultError(MPCError):
    """Base class for recoverable environmental faults.

    Catching this type is how a caller separates retryable failures
    from deterministic errors that would fail identically on any
    backend.
    """


class WorkerDied(FaultError):
    """A backend worker process exited (or its pipe broke) mid-round."""

    def __init__(self, message: str, worker: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker


class RoundTimeout(FaultError):
    """A backend round did not complete within its configured timeout.

    Raised internally when a worker is declared hung; never surfaces to
    callers (the supervisor kills and respawns hung workers and
    resubmits their slice rather than propagating).
    """

    def __init__(self, message: str, worker: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker


class DeadlineExceeded(FaultError):
    """A query (or batch) ran past its caller-supplied deadline.

    Checked cooperatively at every ledger post — i.e. between simulated
    communication rounds — so a deadline cancels a query mid-execution,
    not just before it starts.
    """


class PlanShipError(EngineError):
    """A plan could not be exported or installed as a prepared statement.

    Raised by :meth:`repro.engine.session.Engine.export_plan` when the
    engine holds no plan-cache entry for the query, and by
    :meth:`~repro.engine.session.Engine.install_plan` when the bytes are
    not a JSON object with exactly the string fields ``algorithm`` and
    ``query``, or when that query cannot be prepared on the receiver
    (parse error, unknown relation or algorithm; the underlying error is
    chained).  A rejected install leaves the receiver's plan cache
    untouched.  The front door ships no plans.
    """


class AdmissionRejected(EngineError):
    """The serving front door shed a request at admission.

    Raised synchronously by :meth:`repro.serve.Frontdoor.submit` when the
    replica the query text hashes to has a backlog at the configured
    ``shed_after`` bound.  Nothing was enqueued, executed or recorded by
    any engine; the caller may retry later.
    """
