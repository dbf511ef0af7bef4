"""Distributed relations: schema-carrying data partitioned over a group.

A :class:`DistRelation` is the MPC-side counterpart of
:class:`~repro.data.relation.Relation`: the same rows, split into one part
per local server of the group that owns it.  Rows are plain value tuples
aligned with ``attrs``; annotated executions (Section 6) thread annotations
through as extra pseudo-attribute columns, so all join machinery stays
oblivious to them.

Parts exist in up to two interchangeable representations:

* **row parts** — ``parts[i]`` is local server ``i``'s data as a list of
  tuples: the form base relations are dealt in (the base relation's own
  tuple objects, :func:`distribute_relation`), what the primitives route
  and what relations built from routed rows hold, and
* **column parts** — ``column_parts[i]`` is the same data as a typed,
  dictionary-encoded :class:`~repro.data.columns.ColumnBlock`: the form
  every join *result* is emitted in (index gathers over encoded inbox
  sides, see :mod:`repro.core.common`).

Rows exist only at the edge.  A column-backed relation builds its row view
on the first ``.parts`` access and caches it; the callers of ``.parts`` on
a join result are the next operator's routing loops (primitives that ship
rows), :meth:`all_rows` (``ExecutionResult.rows()``, ``JoinResult.rows()``)
and the aggregate runner's final annotation pass.  :meth:`aligned` — the
one schema-permutation point of ``core/`` — never touches a row of a
column-backed relation.  Either view converts to the other exactly, so
algorithms, primitives, and the ledger observe identical tuples whichever
representation a relation currently holds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# ``encode_column`` stays importable from here: the column-fence tests
# patch it under this module's name too.
from repro.data.columns import ColumnBlock, encode_column, pack_blob  # noqa: F401
from repro.data.relation import Relation, Row
from repro.errors import SchemaError
from repro.mpc.group import Group

__all__ = ["DistRelation", "distribute_instance", "distribute_relation"]


class DistRelation:
    """Rows of one relation, partitioned across a group's local servers.

    Parts are treated as immutable after construction: every transforming
    operation returns a fresh ``DistRelation``.  The performance substrate
    (:mod:`repro.mpc.substrate`) relies on that to cache per-relation
    derived state — column kinds, encoded keys, sorted runs, wire blobs —
    in ``_substrate``, keyed by object identity, with no invalidation
    needed.

    Args:
        name: Relation name.
        attrs: Attribute names in column order.
        parts: ``parts[i]`` holds local server ``i``'s rows.
        owned: The caller hands over freshly built lists it will never
            touch again, so the per-part defensive copy is skipped.  All
            internal transforming operations use this fast path; external
            callers holding onto their lists must leave it off.
    """

    def __init__(
        self,
        name: str,
        attrs: Sequence[str],
        parts: Sequence[list[Row]],
        *,
        owned: bool = False,
    ) -> None:
        self.name = name
        self.attrs: tuple[str, ...] = tuple(attrs)
        self._parts: list[list[Row]] | None = (
            list(parts) if owned else [list(p) for p in parts]
        )
        self._cols: list[ColumnBlock] | None = None
        self._substrate: dict = {}
        self._attr_pos: dict[str, int] | None = None

    @classmethod
    def from_column_parts(
        cls, name: str, attrs: Sequence[str], blocks: Sequence[ColumnBlock]
    ) -> "DistRelation":
        """Construct columnar-first; the row view materializes lazily."""
        rel = cls(name, attrs, ())
        rel._parts, rel._cols = None, list(blocks)
        arity = len(rel.attrs)
        for b in rel._cols:
            if b.arity != arity:
                raise SchemaError(
                    f"column part arity {b.arity} != {arity} attrs in {name!r}"
                )
        return rel

    @classmethod
    def empty(
        cls, name: str, attrs: Sequence[str], num_parts: int
    ) -> "DistRelation":
        """A column-backed relation with no rows on any of its parts."""
        block = ColumnBlock.from_rows([], len(attrs))
        return cls.from_column_parts(name, attrs, [block] * num_parts)

    # ------------------------------------------------------------------
    @property
    def parts(self) -> list[list[Row]]:
        """Row-tuple view of every part (lazily decoded from columns)."""
        parts = self._parts
        if parts is None:
            cols = self._cols
            assert cols is not None
            parts = self._parts = [b.rows() for b in cols]
        return parts

    @property
    def column_parts(self) -> list[ColumnBlock] | None:
        """Columnar view, or ``None`` if this relation is row-backed."""
        return self._cols

    def block(self) -> ColumnBlock:
        """Every part's rows in sequence, as one column block: a
        column-backed relation's parts concatenated, a row-backed one's
        rows encoded once (one dictionary per column)."""
        if self._cols is not None:
            return ColumnBlock.concat(self._cols)
        return ColumnBlock.from_rows(
            [row for part in self._parts for row in part], len(self.attrs)
        )

    def column_values(self, part_idx: int, col: int) -> list:
        """One part's values in one column (no row materialization needed)."""
        if self._cols is not None:
            return self._cols[part_idx].column_values(col)
        return [row[col] for row in self.parts[part_idx]]

    def aligned(
        self, schema: Sequence[str], name: str | None = None
    ) -> "DistRelation":
        """The same rows with columns in ``schema`` order, column-backed.

        An O(arity) permutation of column *references* per part.  A
        row-backed relation (a base relation that reached the result
        untouched, or rows a primitive routed) is encoded here, once.
        """
        blocks = self._cols
        if blocks is None:
            arity = len(self.attrs)
            blocks = [ColumnBlock.from_rows(p, arity) for p in self.parts]
        schema = tuple(schema)
        if schema != self.attrs:
            pos = self.positions(schema)
            blocks = [b.select(pos) for b in blocks]
        return DistRelation.from_column_parts(name or self.name, schema, blocks)

    def compact(self) -> "DistRelation":
        """Switch to columnar-only storage (drops the cached row view).

        ``.parts`` re-materializes rows on demand.  Content is unchanged,
        so identity-keyed substrate caches stay valid.
        """
        if self._cols is None:
            self._cols = self.aligned(self.attrs)._cols
        self._parts = None
        return self

    def wire_blob(self, i: int) -> bytes:
        """Part ``i``'s canonical wire encoding (cached; see ``columns.pack_blob``)."""
        cache: dict[int, bytes] = self._substrate.setdefault("wire", {})
        blob = cache.get(i)
        if blob is None:
            block = self._cols[i] if self._cols is not None else None
            blob = cache[i] = pack_blob(self.parts[i] if block is None else (), block)
        return blob

    @property
    def num_parts(self) -> int:
        return len(self._cols if self._parts is None else self._parts)

    def total_size(self) -> int:
        if self._parts is None:
            return sum(b.n for b in self._cols)
        return sum(map(len, self._parts))

    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        index = self._attr_pos
        if index is None:
            index = self._attr_pos = {a: i for i, a in enumerate(self.attrs)}
        try:
            return tuple(index[a] for a in attrs)
        except KeyError as exc:
            raise SchemaError(
                f"attributes {attrs} not all present in {self.name!r}{self.attrs}"
            ) from exc

    def all_rows(self) -> list[Row]:
        """Flatten all parts (simulation-side convenience, no load)."""
        out: list[Row] = []
        for p in self.parts:
            out.extend(p)
        return out

    def to_relation(self) -> Relation:
        """Materialize as a (deduplicated) RAM relation."""
        return Relation(self.name, self.attrs, self.all_rows())

    def with_parts(
        self,
        parts: Sequence[list[Row]],
        name: str | None = None,
        *,
        owned: bool = False,
    ) -> "DistRelation":
        return DistRelation(name or self.name, self.attrs, parts, owned=owned)

    def empty_like(self) -> "DistRelation":
        return DistRelation.empty(self.name, self.attrs, self.num_parts)

    def __repr__(self) -> str:
        return (
            f"DistRelation<{self.name}({','.join(self.attrs)}), "
            f"{self.total_size()} rows over {self.num_parts} parts>"
        )


def distribute_relation(rel: Relation, group: Group, annotate: bool = False) -> DistRelation:
    """Spread a relation evenly over a group (initial placement is free).

    Deals row slices: part ``i`` holds rows ``i, i+p, i+2p, ...`` (the
    model's "evenly distributed" initial state, the historical round-robin
    deal) — the base relation's own tuple objects, nothing encoded.  Column
    form starts at the first emit, where a local join encodes its inbox.

    Args:
        rel: The RAM relation.
        group: Target group.
        annotate: If True and ``rel`` is annotated, append the annotation as
            a trailing pseudo-attribute column named ``#w:<name>``.
    """
    rows, attrs = rel.rows, rel.attrs
    if annotate and rel.annotated:
        attrs += (f"#w:{rel.name}",)
        rows = tuple(map(tuple.__add__, rows, zip(rel.annotations)))
    p = group.size
    return DistRelation(
        rel.name, attrs, [list(rows[i::p]) for i in range(p)], owned=True
    )


def distribute_instance(instance, group: Group, annotate: bool = False) -> dict[str, DistRelation]:
    """Distribute every relation of an instance over the group."""
    return {
        name: distribute_relation(rel, group, annotate=annotate)
        for name, rel in instance.relations.items()
    }
