"""Shared plumbing for the core MPC join algorithms.

Conventions used by every algorithm in :mod:`repro.core`:

* Distributed relations may carry *payload columns* beyond their edge's
  attributes (annotation pseudo-columns from Section 6 executions).  Join
  logic keys on edge attributes; payload columns ride along.
* Join results are returned as a :class:`~repro.mpc.distrel.DistRelation`
  whose schema is the *canonical* ordering: sorted real attributes followed
  by sorted payload columns.  Emission is local (the model's zero-cost
  ``emit``); only subsequent shuffles of results cost load.
* Results are emitted as :class:`~repro.data.columns.ColumnBlock` parts,
  never as row lists: a local join encodes what a server received once
  (inbox-sized, bounded by the load), matches keys into two index lists
  and gathers both sides by them (:func:`gather_join`); aligning permutes
  column references, concatenating extends typed arrays.  Row tuples are
  built by whoever reads ``.parts``.
* **Emission order**: side-1 rows in arrival order, each followed by its
  side-2 matches in arrival order — the order of the nested row loops this
  replaced, so per-part output digests (``golden_ledgers.json``) hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.data.columns import ColumnBlock
from repro.data.relation import Row
from repro.errors import MPCError
from repro.mpc.cluster import LoadReport
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = [
    "JoinResult",
    "canonical_attrs",
    "align_to_schema",
    "gather_join",
    "local_hash_join",
    "local_tree_join",
    "concat_distrels",
]


@dataclass
class JoinResult:
    """Outcome of one simulated MPC join execution.

    Attributes:
        relation: The emitted results, distributed as produced.
        report: The cluster's load ledger at completion.
        meta: Algorithm-specific facts (OUT, thresholds, rounds, ...).
    """

    relation: DistRelation
    report: LoadReport
    meta: dict[str, Any] = field(default_factory=dict)

    def rows(self) -> list[Row]:
        return self.relation.all_rows()

    def row_set(self) -> set[Row]:
        return set(self.relation.all_rows())

    @property
    def output_size(self) -> int:
        return self.relation.total_size()


def canonical_attrs(attr_sets: Sequence[Sequence[str]]) -> tuple[str, ...]:
    """Canonical result schema: sorted real attrs, then sorted payload cols."""
    all_attrs = set()
    for attrs in attr_sets:
        all_attrs.update(attrs)
    real = sorted(a for a in all_attrs if not a.startswith("#"))
    payload = sorted(a for a in all_attrs if a.startswith("#"))
    return tuple(real + payload)


def align_to_schema(
    block: ColumnBlock, attrs: Sequence[str], target: Sequence[str]
) -> ColumnBlock:
    """Reorder a block's columns from ``attrs`` order to ``target`` order."""
    if tuple(attrs) == tuple(target):
        return block
    return block.select([list(attrs).index(a) for a in target])


def gather_join(
    left: ColumnBlock, left_keys: Sequence, right: ColumnBlock, right_keys: Sequence
) -> ColumnBlock:
    """Pairs of a ``left`` and a ``right`` row with equal keys, as one block.

    ``left_keys[i]`` / ``right_keys[j]`` are hashable keys of row ``i`` /
    ``j`` (decoded values — codes of different dictionaries never meet).
    The result's columns are ``left``'s followed by ``right``'s; its rows
    follow the emission-order contract in the module docstring.
    """
    index: dict[Any, list[int]] = {}
    for j, key in enumerate(right_keys):
        index.setdefault(key, []).append(j)
    idx1: list[int] = []
    idx2: list[int] = []
    for i, key in enumerate(left_keys):
        bucket = index.get(key)
        if bucket is not None:
            idx1 += [i] * len(bucket)
            idx2 += bucket
    return ColumnBlock(
        len(idx1), left.take(idx1).columns + right.take(idx2).columns
    )


def _key_values(block: ColumnBlock, pos: Sequence[int]) -> list:
    """Per-row join keys of ``block`` on columns ``pos``, decoded."""
    if len(pos) == 1:
        return block.column_values(pos[0])
    if not pos:
        return [()] * block.n
    return list(zip(*[block.column_values(i) for i in pos]))


def local_hash_join(
    attrs1: Sequence[str],
    block1: ColumnBlock,
    attrs2: Sequence[str],
    block2: ColumnBlock,
) -> tuple[tuple[str, ...], ColumnBlock]:
    """In-memory natural join on shared attributes (free local computation).

    No shared attribute means a Cartesian product, ``block1``-major.
    """
    attrs1, attrs2 = tuple(attrs1), tuple(attrs2)
    shared = [a for a in attrs1 if a in attrs2]
    extra2 = [a for a in attrs2 if a not in attrs1]
    joined = gather_join(
        block1, _key_values(block1, [attrs1.index(a) for a in shared]),
        block2.select([attrs2.index(a) for a in extra2]),
        _key_values(block2, [attrs2.index(a) for a in shared]),
    )
    return attrs1 + tuple(extra2), joined


def local_tree_join(
    query: Hypergraph,
    schemas: dict[str, tuple[str, ...]],
    rows: dict[str, list[Row]],
) -> tuple[tuple[str, ...], ColumnBlock]:
    """Join one sub-instance entirely locally, folding along a join tree.

    Used when a whole (light) sub-instance has been shipped to one server:
    the join happens there for free.  Relations may carry payload columns.
    Each relation's received rows are encoded once; the folds gather.

    Returns:
        ``(attrs, block)`` in canonical schema order.
    """
    tree = join_tree(query)
    cur_attrs = dict(schemas)
    cur = {
        n: ColumnBlock.from_rows(r, len(schemas[n])) for n, r in rows.items()
    }
    for node in tree.bottom_up():
        par = tree.parent[node]
        if par is None:
            continue
        cur_attrs[par], cur[par] = local_hash_join(
            cur_attrs[par], cur[par], cur_attrs[node], cur[node]
        )
    target = canonical_attrs(list(schemas.values()))
    return target, align_to_schema(cur[tree.root], cur_attrs[tree.root], target)


def concat_distrels(
    name: str,
    group: Group,
    pieces: Sequence[DistRelation],
) -> DistRelation:
    """Concatenate result relations that share a distribution.

    Pieces are aligned to the first piece's schema; part ``i`` of the
    result is the pieces' parts ``i`` in sequence.
    """
    if not pieces:
        raise MPCError("nothing to concatenate")
    schema = pieces[0].attrs
    if any(piece.num_parts != group.size for piece in pieces):
        raise MPCError("result piece has mismatched part count")
    per_piece = [piece.aligned(schema).column_parts for piece in pieces]
    return DistRelation.from_column_parts(
        name, schema, [ColumnBlock.concat(blocks) for blocks in zip(*per_piece)]
    )
