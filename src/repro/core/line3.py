"""The output-optimal line-3 join algorithm (paper Section 4.2, Theorem 5).

``R1(A,B) join R2(B,C) join R3(C,D)`` with load O(IN/p + sqrt(IN*OUT)/p):

1. Remove dangling tuples; compute OUT (both MPC primitives).
2. ``tau = sqrt(OUT/IN)``.  A value ``b in dom(B)`` is *heavy* if its degree
   in ``R1`` exceeds ``tau``; split ``R1`` and ``R2`` accordingly.
3. Two sub-joins with opposite join orders:

   * ``Q1 = R1^H join (R2^H join R3)`` — the intermediate has size
     <= OUT/tau since each of its results meets >= tau heavy R1 partners;
   * ``Q2 = (R1^L join R2^L) join R3`` — the intermediate has size
     <= IN*tau since light B values bound the fan-out.

   Balancing the two at ``tau = sqrt(OUT/IN)`` gives the theorem.

The module is a faithful specialization of Section 4.2 (the general
machinery lives in :mod:`repro.core.acyclic`); keeping it separate lets the
benchmarks reproduce the paper's exposition directly.
"""

from __future__ import annotations

import math
from repro.core.aggregates import mpc_count
from repro.core.binary_join import binary_join
from repro.core.common import canonical_attrs, concat_distrels
from repro.errors import QueryError
from repro.mpc.dangling import remove_dangling
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import attach_degrees, count_by_key
from repro.query.hypergraph import Hypergraph

__all__ = ["is_line3", "line3_join"]


def is_line3(query: Hypergraph) -> tuple[str, str, str] | None:
    """Match the line-3 shape; return edge names in path order."""
    if len(query.edge_names) != 3:
        return None
    names = list(query.edge_names)
    # The middle edge shares an attribute with both others.
    for mid in names:
        others = [n for n in names if n != mid]
        a, b = others
        sa = query.attrs_of(mid) & query.attrs_of(a)
        sb = query.attrs_of(mid) & query.attrs_of(b)
        if (
            len(query.attrs_of(mid)) == 2
            and len(sa) == 1
            and len(sb) == 1
            and sa != sb
            and not (query.attrs_of(a) & query.attrs_of(b))
        ):
            return a, mid, b
    return None


def line3_tau(out_size: float, in_size: float) -> float:
    """The heavy threshold ``tau = sqrt(OUT/IN)`` (at least 1): a B value
    is heavy if its degree in R1 exceeds it."""
    return max(1.0, math.sqrt(out_size / max(1, in_size)))


def line3_join(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "line3",
) -> DistRelation:
    """Compute a line-3 join with load O(IN/p + sqrt(IN*OUT)/p).

    Args:
        query: Must be shaped ``R1(A,B) join R2(B,C) join R3(C,D)`` (any
            names; the path order is auto-detected).

    Raises:
        QueryError: If the query is not a line-3 join.
    """
    shape = is_line3(query)
    if shape is None:
        raise QueryError(f"{query.name} is not a line-3 join")
    n1, n2, n3 = shape

    working = remove_dangling(group, query, rels, f"{label}/dangling")
    schema = canonical_attrs([working[n].attrs for n in query.edge_names])
    out_size = mpc_count(group, query, working, f"{label}/out")
    if out_size == 0:
        return DistRelation.empty("result", schema, group.size)
    tau = line3_tau(out_size, sum(working[n].total_size() for n in query.edge_names))

    # --- Step 1: classify B values by their degree in R1. ----------------
    # The degree table is counted on r1's sorted run, which the r1 split
    # then reuses; the r2 lookup is safe for search_rows because the
    # dangling-free instance makes r1's B values cover r2's.
    b_attr = tuple(sorted(query.attrs_of(n1) & query.attrs_of(n2)))
    r1 = working[n1]
    r2 = working[n2]
    r3 = working[n3]
    degs = count_by_key(group, r1, b_attr, label=f"{label}/deg")

    def split(rel: DistRelation) -> tuple[DistRelation, DistRelation]:
        withdeg = attach_degrees(
            group, rel, b_attr, f"{label}/split-{rel.name}", degree_parts=degs
        )
        h_parts, l_parts = [], []
        for part in withdeg:
            hp, lp = [], []
            for row, deg in part:
                if deg > tau:
                    hp.append(row)
                else:
                    lp.append(row)
            h_parts.append(hp)
            l_parts.append(lp)
        return (
            DistRelation(rel.name, rel.attrs, h_parts, owned=True),
            DistRelation(rel.name, rel.attrs, l_parts, owned=True),
        )

    r1_heavy, r1_light = split(r1)
    r2_heavy, r2_light = split(r2)

    pieces = []
    # --- Q1 = R1^H join (R2^H join R3): right-to-left order. -------------
    if r1_heavy.total_size() and r2_heavy.total_size():
        r23 = binary_join(group, r2_heavy, r3, f"{label}/q1-r23")
        q1 = binary_join(group, r1_heavy, r23, f"{label}/q1-final")
        pieces.append(q1)
    # --- Q2 = (R1^L join R2^L) join R3: left-to-right order. -------------
    if r1_light.total_size() and r2_light.total_size():
        r12 = binary_join(group, r1_light, r2_light, f"{label}/q2-r12")
        q2 = binary_join(group, r12, r3, f"{label}/q2-final")
        pieces.append(q2)

    if not pieces:
        return DistRelation.empty("result", schema, group.size)
    return concat_distrels("result", group, pieces).aligned(schema)
