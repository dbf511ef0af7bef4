"""The paper's algorithms: instance/output-optimal MPC joins.

Modules map to paper sections: :mod:`~repro.core.binhc` (3.1),
:mod:`~repro.core.rhierarchical` (3.2), :mod:`~repro.core.line3` (4.2),
:mod:`~repro.core.acyclic` (5.1), :mod:`~repro.core.aggregates` (6),
with the baselines :mod:`~repro.core.yannakakis` (4.1),
:mod:`~repro.core.binary_join`, :mod:`~repro.core.hypercube`, and
:mod:`~repro.core.wcoj` ([19, 24] comparators).
"""

from repro.core.acyclic import acyclic_join
from repro.core.aggregates import (
    aggregate_out,
    aggregate_total,
    annotated_reduce,
    mpc_count,
    mpc_group_by_count,
    mpc_subset_sizes,
)
from repro.core.binary_join import binary_join
from repro.core.binhc import binhc_join
from repro.core.common import JoinResult
from repro.core.hypercube import (
    hypercube_cartesian,
    hypercube_join,
    optimal_cartesian_shares,
    optimal_join_shares,
)
from repro.core.line3 import is_line3, line3_join
from repro.core.planner import (
    PlanChoice,
    enumerate_fold_orders,
    price_fold_orders,
)
from repro.core.rhierarchical import rhierarchical_join
from repro.core.runner import (
    ALGORITHMS,
    AggregateResult,
    auto_algorithm,
    mpc_join,
    mpc_join_aggregate,
    mpc_join_project,
    mpc_output_size,
    run_aggregate_algorithm,
    run_join_algorithm,
)
from repro.core.wcoj import line3_worst_case, triangle_worst_case
from repro.core.yannakakis import default_plan, left_deep_plan, yannakakis_mpc

__all__ = [
    "JoinResult",
    "AggregateResult",
    "ALGORITHMS",
    "mpc_join",
    "mpc_join_aggregate",
    "mpc_join_project",
    "mpc_output_size",
    "auto_algorithm",
    "run_join_algorithm",
    "run_aggregate_algorithm",
    "binary_join",
    "hypercube_cartesian",
    "hypercube_join",
    "optimal_cartesian_shares",
    "optimal_join_shares",
    "binhc_join",
    "yannakakis_mpc",
    "default_plan",
    "left_deep_plan",
    "rhierarchical_join",
    "is_line3",
    "line3_join",
    "acyclic_join",
    "line3_worst_case",
    "triangle_worst_case",
    "mpc_count",
    "mpc_group_by_count",
    "mpc_subset_sizes",
    "aggregate_out",
    "aggregate_total",
    "annotated_reduce",
    "PlanChoice",
    "enumerate_fold_orders",
    "price_fold_orders",
]
