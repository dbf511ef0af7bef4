"""One key equality under every algorithm: Python ``==``.

``Relation`` dedups with Python equality and the RAM oracle joins with
it, so ``1``, ``True`` and ``1.0`` are one key.  Every MPC path must agree:
the sort-based primitives (ranks tie exactly where ``==`` does,
:func:`repro.mpc.substrate.rank_keys`) and the hash-routed algorithms
(:func:`repro.mpc.hashing.stable_hash` hashes equal keys alike).  Key
columns here mix ``int``, ``bool``, ``float``, ``str`` and ``None``, so
both the raw sort and its ``orderable`` fallback run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ALGORITHMS, mpc_join, mpc_join_aggregate, mpc_output_size
from repro.core.line3 import is_line3
from repro.data import Instance, Relation
from repro.query import catalog
from repro.query.classify import is_r_hierarchical
from repro.ram.yannakakis import group_by_count, join_size, yannakakis
from repro.semiring import COUNT

#: Values that are pairwise equal across types (``1``/``True``/``1.0``,
#: ``0``/``False``/``-0.0``) beside ones Python cannot compare with them.
KEYS = [0, 1, 2, True, False, 1.0, -0.0, 2.5, "x", "1", None]

#: Per query, free-connex output attributes for the COUNT aggregate.
QUERIES = {
    "binary": (catalog.binary_join(), [(), ("B",), ("A",), ("A", "B")]),
    "line3": (catalog.line3(), [(), ("B",), ("A", "B"), ("B", "C")]),
}


def applicable(query) -> list[str]:
    """The join algorithms of :data:`ALGORITHMS` that run ``query``."""
    line3 = is_line3(query) is not None
    shaped = {"line3": line3, "wc-line3": line3,
              "rhierarchical": is_r_hierarchical(query), "wc-triangle": False}
    return [a for a in ALGORITHMS if shaped.get(a, True)]


def binary(r1, r2) -> Instance:
    return Instance(catalog.binary_join(), {
        "R1": Relation("R1", ("A", "B"), r1),
        "R2": Relation("R2", ("B", "C"), r2),
    })


#: ``1`` on one side, an equal ``True`` or ``1.0`` on the other: RAM
#: joins two rows, ``(1, 1, 0)`` and ``(1, "x", 1)``.
PINNED = [
    binary([(0, 1), (1, "x"), (2, 2)], [(True, 0), ("x", 1), (5, 2)]),
    binary([(0, True), (1, "x"), (2, 2)], [(1, 0), ("x", 1), (5, 2)]),
    binary([(0, 1), (1, "x"), (2, 2)], [(1.0, 0), ("x", 1), (5, 2)]),
    binary([(0, 1.0), (1, "x"), (2, 2)], [(1, 0), ("x", 1), (5, 2)]),
]


@st.composite
def mixed_instances(draw):
    name = draw(st.sampled_from(sorted(QUERIES)))
    query, outputs = QUERIES[name]
    rels = {}
    for edge in query.edge_names:
        attrs = tuple(sorted(query.attrs_of(edge)))
        rows = draw(st.lists(
            st.tuples(*[st.sampled_from(KEYS) for _ in attrs]), max_size=6
        ))
        rels[edge] = Relation(edge, attrs, rows)
    return Instance(query, rels), draw(st.sampled_from(outputs))


def check(inst: Instance, outputs: tuple, p: int) -> None:
    query = inst.query
    want = yannakakis(inst)
    for algorithm in applicable(query):
        res = mpc_join(query, inst, p=p, algorithm=algorithm)
        assert res.output_size == len(want), algorithm
        assert res.row_set() == set(want.rows), algorithm
    assert mpc_output_size(query, inst, p)[0] == join_size(inst)
    ann = inst.with_uniform_annotations(COUNT)
    agg = mpc_join_aggregate(query, set(outputs), ann, COUNT, p=p)
    if not outputs:
        assert agg.scalar == join_size(inst)
    else:
        pos = agg.relation.positions(outputs)
        got = {tuple(row[i] for i in pos): c
               for row, c in zip(agg.relation.rows, agg.relation.annotations)}
        assert got == group_by_count(inst, outputs)


@given(mixed_instances(), st.sampled_from([1, 3]))
@example((PINNED[0], ()), 3)
@example((PINNED[1], ()), 3)
@example((PINNED[2], ("B",)), 3)
@example((PINNED[3], ("A", "B")), 3)
@example((binary([(0, None)], [(None, 0)]), ()), 3)  # a None key, no predecessor
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mixed_keys_equal_ram_under_every_algorithm(inst_outputs, p):
    inst, outputs = inst_outputs
    check(inst, outputs, p)

