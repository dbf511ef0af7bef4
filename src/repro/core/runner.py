"""Public entry points: algorithm dispatch.

* :func:`mpc_join` — run one of the paper's join algorithms on a fresh
  simulated cluster and return results + the load ledger.
* :func:`mpc_join_aggregate` — free-connex join-aggregate queries
  (Theorems 9/10), including ``COUNT GROUP BY`` and total aggregates.
* :func:`mpc_output_size` — ``|Q(R)|`` with linear load (Corollary 4).

``algorithm="auto"`` runs, for an acyclic join, the applicable candidate
with the least predicted load on this data and ``p``
(:func:`repro.core.planner.choose`): Yannakakis along its priced fold
order, or the paper's Section 5.1, 4.2 or 3.2 algorithm where the shape
admits it.  The paper's algorithms win asymptotically, once ``IN >= p^2``
or ``p^3``; below that a priced Yannakakis often moves less.  Cyclic
queries fall back to worst-case-optimal HyperCube shares
(:func:`auto_algorithm`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.acyclic import acyclic_join
from repro.core.aggregates import (
    aggregate_out,
    aggregate_total,
    annotated_reduce,
    mpc_count,
)
from repro.core.binhc import binhc_join
from repro.core.common import JoinResult
from repro.core.hypercube import hypercube_join
from repro.core.line3 import is_line3, line3_join
from repro.core.planner import choose
from repro.core.rhierarchical import rhierarchical_join
from repro.core.wcoj import line3_worst_case, triangle_worst_case
from repro.core.yannakakis import yannakakis_mpc
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.mpc.backends import Backend
from repro.mpc.cluster import Cluster, LoadReport
from repro.mpc.distrel import DistRelation, distribute_instance
from repro.obs import WireMeter
from repro.query.classify import JoinClass, classify
from repro.query.ghd import output_join_tree, residual_output_query
from repro.query.hypergraph import Hypergraph
from repro.semiring import Semiring

__all__ = [
    "AGG_ALGORITHMS",
    "ALGORITHMS",
    "AggregateResult",
    "mpc_join",
    "mpc_join_aggregate",
    "mpc_join_project",
    "mpc_output_size",
    "auto_algorithm",
    "run_join_algorithm",
    "run_aggregate_algorithm",
]

#: Downstream algorithms accepted by :func:`mpc_join_aggregate`.
AGG_ALGORITHMS = ("auto", "rhierarchical", "acyclic", "yannakakis")

#: Names accepted by :func:`mpc_join`.
ALGORITHMS = (
    "auto",
    "yannakakis",
    "line3",
    "acyclic",
    "rhierarchical",
    "binhc",
    "binhc-multiround",
    "hypercube",
    "wc-line3",
    "wc-triangle",
)


def auto_algorithm(query: Hypergraph) -> str:
    """The class's paper algorithm: the strongest guarantee by shape alone.

    For a cyclic query this is what ``auto`` runs.  For an acyclic one it
    is one of the candidates :func:`repro.core.planner.choose` prices.
    """
    cls = classify(query)
    if cls <= JoinClass.R_HIERARCHICAL:
        return "rhierarchical"
    if cls == JoinClass.ACYCLIC:
        return "line3" if is_line3(query) else "acyclic"
    if len(query.attributes) == 3 and len(query.edge_names) == 3:
        return "wc-triangle"
    return "hypercube"


def mpc_join(
    query: Hypergraph,
    instance: Instance,
    p: int,
    algorithm: str = "auto",
    plan: Sequence[str] | None = None,
    validate: bool = False,
    backend: Backend | str | None = None,
) -> JoinResult:
    """Simulate one MPC join and report its load.

    Args:
        query: The join hypergraph.
        instance: Relations matching the query.
        p: Number of servers.
        algorithm: One of :data:`ALGORITHMS`; ``"auto"`` (see the module
            docstring) runs the chosen candidate with the chosen plan.
        plan: Fold order (Yannakakis only).
        validate: Cross-check the emitted results against the RAM oracle
            (raises on mismatch).
        backend: Execution backend (instance, registered name, or ``None``
            for the process default).  Any backend must produce the exact
            outputs and ledger of the serial reference (``tests/conformance``).

    Returns:
        :class:`~repro.core.common.JoinResult` with the emitted relation,
        the load report, and metadata (algorithm, IN, OUT, p).
    """
    if algorithm not in ALGORITHMS:
        raise QueryError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    if algorithm == "auto" and query.is_acyclic():
        choice = choose(query, instance, p)
        algorithm = choice.algorithm
        plan = choice.plan.order if plan is None else plan
    elif algorithm == "auto":
        algorithm = auto_algorithm(query)
    cluster = Cluster(p, backend=backend)
    # This call's own meter: deltas of the backend's cumulative counter
    # would count what other callers of a shared backend ship meanwhile.
    cluster.wire_meter = WireMeter()
    group = cluster.root_group()
    rels = distribute_instance(instance, group)
    result = run_join_algorithm(group, query, rels, algorithm, plan=plan)

    out = JoinResult(
        relation=result,
        report=cluster.snapshot(),
        meta={
            "algorithm": algorithm,
            "p": p,
            "backend": cluster.backend.name,
            "in_size": instance.input_size,
            "out_size": result.total_size(),
            # Physical bytes the backend shipped across processes for this
            # join (0 for in-process backends).  Purely observational: the
            # ledger above counts logical tuples and never encoded bytes.
            "wire_bytes": cluster.wire_meter.bytes,
        },
    )
    if validate:
        from repro.ram.yannakakis import yannakakis as ram_yannakakis

        expected = set(ram_yannakakis(instance).rows)
        got = out.row_set()
        if got != expected:
            raise AssertionError(
                f"{algorithm} produced {len(got)} rows, oracle has "
                f"{len(expected)}; missing={list(expected - got)[:3]} "
                f"extra={list(got - expected)[:3]}"
            )
    return out


def run_join_algorithm(
    group,
    query: Hypergraph,
    rels: dict[str, "DistRelation"],
    algorithm: str,
    plan: Sequence[str] | None = None,
) -> "DistRelation":
    """Engine seam: run a *resolved* algorithm on distributed relations.

    This is the execution body of :func:`mpc_join` factored out so that a
    long-lived session (:class:`repro.engine.Engine`) can run a prepared
    plan against an existing cluster and already-distributed relations.
    ``algorithm`` must be a concrete name (``"auto"`` is resolved by the
    callers); ``plan`` is consulted by Yannakakis only.
    """
    if algorithm == "yannakakis":
        return yannakakis_mpc(group, query, rels, plan=plan)
    if algorithm == "line3":
        return line3_join(group, query, rels)
    if algorithm == "acyclic":
        return acyclic_join(group, query, rels)
    if algorithm == "rhierarchical":
        return rhierarchical_join(group, query, rels)
    if algorithm == "binhc":
        return binhc_join(group, query, rels)
    if algorithm == "binhc-multiround":
        return binhc_join(group, query, rels, remove_dangling_first=True)
    if algorithm == "hypercube":
        return hypercube_join(group, query, rels)
    if algorithm == "wc-line3":
        return line3_worst_case(group, query, rels)
    if algorithm == "wc-triangle":
        return triangle_worst_case(group, query, rels)
    raise QueryError(
        f"unknown resolved algorithm {algorithm!r}; pick from {ALGORITHMS[1:]}"
    )


def mpc_output_size(
    query: Hypergraph,
    instance: Instance,
    p: int,
    backend: Backend | str | None = None,
) -> tuple[int, LoadReport]:
    """``|Q(R)|`` with linear load in O(1) rounds (Corollary 4)."""
    cluster = Cluster(p, backend=backend)
    group = cluster.root_group()
    rels = distribute_instance(instance, group)
    count = mpc_count(group, query, rels)
    return count, cluster.snapshot()


@dataclass
class AggregateResult:
    """Outcome of a join-aggregate execution (Section 6).

    Attributes:
        relation: Annotated output relation over the output attributes
            (``None`` for total aggregation).
        scalar: The semiring scalar for ``y = {}`` (``None`` otherwise).
        report: Load ledger.
        meta: Algorithm metadata.
    """

    relation: Relation | None
    scalar: Any
    report: LoadReport
    meta: dict[str, Any] = field(default_factory=dict)


def mpc_join_project(
    query: Hypergraph,
    output_attrs,
    instance: Instance,
    p: int,
    algorithm: str = "auto",
    backend: Backend | str | None = None,
) -> AggregateResult:
    """Evaluate a free-connex join-project query ``pi_y Q(R)`` (Section 6).

    Join-project (conjunctive) queries are the Boolean-semiring special
    case of join-aggregates; the result relation holds the distinct
    projections with annotation ``True``.
    """
    from repro.semiring import BOOLEAN

    annotated = instance.with_uniform_annotations(BOOLEAN)
    return mpc_join_aggregate(
        query, output_attrs, annotated, BOOLEAN, p, algorithm=algorithm,
        backend=backend,
    )


def mpc_join_aggregate(
    query: Hypergraph,
    output_attrs,
    instance: Instance,
    semiring: Semiring,
    p: int,
    algorithm: str = "auto",
    backend: Backend | str | None = None,
) -> AggregateResult:
    """Evaluate a free-connex join-aggregate query (Theorems 9/10).

    The instance's relations must be annotated with ``semiring`` (use
    :meth:`~repro.data.instance.Instance.with_uniform_annotations` for
    COUNT-style queries).

    Args:
        output_attrs: The output (free) attributes ``y``.
        algorithm: ``"auto"`` (out-hierarchical queries use the
            instance-optimal join), ``"rhierarchical"``, ``"acyclic"``, or
            ``"yannakakis"`` for the downstream join on the residual query.
    """
    cluster = Cluster(p, backend=backend)
    # This call's own meter: deltas of the backend's cumulative counter
    # would count what other callers of a shared backend ship meanwhile.
    cluster.wire_meter = WireMeter()
    group = cluster.root_group()
    rels = distribute_instance(instance, group, annotate=True)
    for n, rel in instance.relations.items():
        if not rel.annotated:
            raise QueryError(f"relation {n!r} is not annotated; annotate first")

    relation, scalar, meta = run_aggregate_algorithm(
        group, query, output_attrs, rels, semiring, algorithm=algorithm
    )
    meta.update(
        {
            "p": p,
            "backend": cluster.backend.name,
            "in_size": instance.input_size,
            "wire_bytes": cluster.wire_meter.bytes,
        }
    )
    return AggregateResult(
        relation=relation,
        scalar=scalar,
        report=cluster.snapshot(),
        meta=meta,
    )


def run_aggregate_algorithm(
    group,
    query: Hypergraph,
    output_attrs,
    rels: dict[str, DistRelation],
    semiring: Semiring,
    algorithm: str = "auto",
) -> tuple[Relation | None, Any, dict[str, Any]]:
    """Engine seam for join-aggregates: run on distributed relations.

    The execution body of :func:`mpc_join_aggregate`, factored out so a
    long-lived session can run a prepared aggregate against an existing
    cluster.  ``rels`` must already be distributed *with annotation columns*
    (``distribute_instance(..., annotate=True)``).

    Section 6 in one sweep: no full reducer runs first.  A bottom-up fold
    toward the output root keeps exactly the tuples that have a completion
    below them; the residual join, through its own reducer, keeps exactly
    the tuples that have a completion among the residual relations.

    Returns:
        ``(relation, scalar, meta)`` — the annotated output relation (or
        ``None`` for total aggregation), the total-aggregate scalar (or
        ``None``), and algorithm metadata.

    Raises:
        QueryError: ``algorithm`` is not in :data:`AGG_ALGORITHMS`; checked
            before any step runs, also for a total aggregate (which never
            reads it).
    """
    if algorithm not in AGG_ALGORITHMS:
        raise QueryError(
            f"unknown downstream algorithm {algorithm!r}; pick from {AGG_ALGORITHMS}"
        )
    y = frozenset(output_attrs)
    reduced_query, rels = annotated_reduce(group, query, rels, semiring, "agg/reduce")

    if not y:
        scalar = aggregate_total(group, reduced_query, rels, semiring, "agg/total")
        return None, scalar, {"y": ()}

    scaffold = output_join_tree(reduced_query, y)
    residual_rels = aggregate_out(group, scaffold, rels, semiring, "agg/aggro")
    residual_query = residual_output_query(scaffold)
    # Keep only edges that actually produced residual relations.
    residual_query = Hypergraph(
        {n: residual_query.attrs_of(n) for n in residual_query.edge_names
         if n in residual_rels},
        name=residual_query.name,
    )
    residual_query, residual_rels = annotated_reduce(
        group, residual_query, residual_rels, semiring, "agg/res-reduce"
    )

    if algorithm == "auto":
        from repro.query.classify import is_r_hierarchical

        algorithm = (
            "rhierarchical" if is_r_hierarchical(residual_query) else "acyclic"
        )
    if algorithm == "rhierarchical":
        result = rhierarchical_join(group, residual_query, residual_rels, "agg/join")
    elif algorithm == "acyclic":
        result = acyclic_join(group, residual_query, residual_rels, "agg/join")
    else:
        result = yannakakis_mpc(group, residual_query, residual_rels, label="agg/join")

    # Final local pass: multiply the annotation columns of each result row.
    y_sorted = tuple(sorted(y))
    w_positions = [i for i, a in enumerate(result.attrs) if a.startswith("#")]
    y_positions = [result.attrs.index(a) for a in y_sorted]
    rows: list[tuple] = []
    annotations: list[Any] = []
    for part in result.parts:
        for row in part:
            rows.append(tuple(row[i] for i in y_positions))
            annotations.append(
                semiring.times_all(row[i] for i in w_positions)
            )
    relation = Relation("result", y_sorted, rows, annotations, semiring)
    return relation, None, {
        "y": y_sorted,
        "downstream": algorithm,
        "out_size": len(relation),
    }
