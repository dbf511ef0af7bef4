"""The persistent query engine: parse, prepare, cache, serve.

The serving layer over the one-shot entry points of :mod:`repro.core`:

* :func:`~repro.engine.parser.parse_query` — datalog-style text (or a
  catalog name) to a :class:`~repro.engine.parser.ParsedQuery`.
* :class:`~repro.engine.session.Engine` — a long-lived session holding
  registered base relations, one warm cluster/backend, and a prepared-plan
  cache keyed by canonical query form + bindings, re-priced when data moves.
* :meth:`~repro.engine.session.Engine.submit_batch` — a workload run in
  submission order, aggregating per-query metrics into
  :class:`~repro.engine.session.EngineStats`.

See DESIGN.md section 5 and ``examples/serving_session.py``.
"""

from repro.engine.parser import AGGREGATES, Binding, ParsedQuery, parse_query
from repro.engine.session import (
    BatchReport,
    Engine,
    EngineStats,
    ExecutionResult,
    PreparedQuery,
    QueryMetrics,
)

__all__ = [
    "AGGREGATES",
    "Binding",
    "ParsedQuery",
    "parse_query",
    "BatchReport",
    "Engine",
    "EngineStats",
    "ExecutionResult",
    "PreparedQuery",
    "QueryMetrics",
]
