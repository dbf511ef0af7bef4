"""The MPC simulator: cluster ledger, server groups, and Section 2 primitives."""

from repro.mpc.backends import (
    Backend,
    MultiprocessBackend,
    SerialBackend,
    available_backends,
    get_backend,
    register_backend,
    shutdown_backends,
)
from repro.mpc.cluster import Cluster, LoadReport
from repro.mpc.dangling import reduce_instance, remove_dangling
from repro.mpc.distrel import DistRelation, distribute_instance, distribute_relation
from repro.mpc.group import Group
from repro.mpc.hashing import stable_hash
from repro.mpc.packing import parallel_packing, server_allocation
from repro.mpc.primitives import (
    attach_degrees,
    count_by_key,
    distinct_keys,
    fold_by_key,
    multi_numbering,
    multi_search,
    number_rows,
    sample_sort,
    search_rows,
    semi_join,
    sum_by_key,
)
from repro.mpc.substrate import cache_disabled, sorted_run

__all__ = [
    "Cluster",
    "LoadReport",
    "Group",
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "shutdown_backends",
    "DistRelation",
    "distribute_instance",
    "distribute_relation",
    "stable_hash",
    "sample_sort",
    "sum_by_key",
    "fold_by_key",
    "count_by_key",
    "multi_numbering",
    "number_rows",
    "multi_search",
    "search_rows",
    "semi_join",
    "attach_degrees",
    "distinct_keys",
    "parallel_packing",
    "server_allocation",
    "remove_dangling",
    "reduce_instance",
    "sorted_run",
    "cache_disabled",
]
