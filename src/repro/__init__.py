"""repro: instance- and output-optimal MPC join algorithms.

A faithful reproduction of Hu & Yi, *Instance and Output Optimal Parallel
Algorithms for Acyclic Joins* (PODS 2019), built on a simulated MPC cluster
whose per-server received-tuple ledger implements the paper's load metric.

Quickstart::

    from repro import Hypergraph, mpc_join
    from repro.data import random_instance

    query = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("C", "D")})
    instance = random_instance(query, size=1000, dom_size=50, seed=0)
    result = mpc_join(query, instance, p=16)       # auto-dispatched
    print(result.report.summary(), result.output_size)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced claim.
"""

from repro.core import (
    ALGORITHMS,
    AggregateResult,
    JoinResult,
    auto_algorithm,
    mpc_join,
    mpc_join_aggregate,
    mpc_join_project,
    mpc_output_size,
    price_fold_orders,
)
from repro.data import Instance, Relation
from repro.engine import Engine, EngineStats, ExecutionResult, parse_query
from repro.mpc import Cluster, LoadReport
from repro.query import Hypergraph, JoinClass, classify
from repro.semiring import BOOLEAN, COUNT, MAX_TROPICAL, MIN_TROPICAL, SUM_PRODUCT, Semiring

__version__ = "1.0.0"

__all__ = [
    "Hypergraph",
    "JoinClass",
    "classify",
    "Relation",
    "Instance",
    "Cluster",
    "LoadReport",
    "JoinResult",
    "AggregateResult",
    "ALGORITHMS",
    "mpc_join",
    "mpc_join_aggregate",
    "mpc_join_project",
    "mpc_output_size",
    "price_fold_orders",
    "auto_algorithm",
    "Engine",
    "EngineStats",
    "ExecutionResult",
    "parse_query",
    "Semiring",
    "COUNT",
    "SUM_PRODUCT",
    "MIN_TROPICAL",
    "MAX_TROPICAL",
    "BOOLEAN",
    "__version__",
]
