"""Schema-carrying relations (sets of tuples, optionally annotated).

A :class:`Relation` presents rows as Python tuples aligned with an
attribute tuple, but is *columnar-backed*: the authoritative storage is a
:class:`~repro.data.columns.ColumnBlock` (typed, dictionary-encoded
columns) derived lazily from the deduplicated rows — or supplied directly
via :meth:`Relation.from_columns`.  The row view and the column view are
always interchangeable; decoding is an exact round-trip (types included),
so every consumer of ``rows`` sees precisely what it always saw.

Natural-join semantics are set semantics: rows are deduplicated at
construction.  For annotated relations (paper Section 6) duplicates combine
their annotations with the semiring's ``plus``.  Both construction paths —
rows in, columns in — apply the identical dedup/combine pass, so the two
representations can never disagree on contents.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.columns import ColumnBlock
from repro.errors import SchemaError
from repro.semiring import Semiring

__all__ = ["Relation", "project_row"]

Row = tuple


def project_row(row: Row, positions: Sequence[int]) -> Row:
    """Project ``row`` onto the given attribute positions."""
    return tuple(row[i] for i in positions)


class Relation:
    """An immutable named relation.

    Args:
        name: Relation name (matches the hypergraph edge name).
        attrs: Attribute names, in column order.
        rows: Iterable of value tuples (one entry per attribute).
        annotations: Optional per-row annotations, parallel to ``rows``.
        semiring: Required when ``annotations`` is given; duplicate rows
            combine annotations with ``semiring.plus``.

    Raises:
        SchemaError: On arity mismatches or annotation misuse.
    """

    def __init__(
        self,
        name: str,
        attrs: Sequence[str],
        rows: Iterable[Row],
        annotations: Iterable[Any] | None = None,
        semiring: Semiring | None = None,
    ) -> None:
        self.name = name
        self.attrs: tuple[str, ...] = tuple(attrs)
        if len(set(self.attrs)) != len(self.attrs):
            raise SchemaError(f"relation {name!r} has duplicate attributes {attrs}")
        arity = len(self.attrs)

        if annotations is None:
            seen: dict[Row, None] = {}
            for row in rows:
                row = tuple(row)
                if len(row) != arity:
                    raise SchemaError(
                        f"row {row!r} has arity {len(row)}, expected {arity} in {name!r}"
                    )
                seen[row] = None
            self._rows: tuple[Row, ...] = tuple(seen)
            self._annotations: tuple[Any, ...] | None = None
            self.semiring: Semiring | None = None
        else:
            if semiring is None:
                raise SchemaError("annotated relations need a semiring")
            combined: dict[Row, Any] = {}
            rows = list(rows)
            annotations = list(annotations)
            if len(rows) != len(annotations):
                raise SchemaError(
                    f"{len(rows)} rows but {len(annotations)} annotations in {name!r}"
                )
            for row, w in zip(rows, annotations):
                row = tuple(row)
                if len(row) != arity:
                    raise SchemaError(
                        f"row {row!r} has arity {len(row)}, expected {arity} in {name!r}"
                    )
                if row in combined:
                    combined[row] = semiring.plus(combined[row], w)
                else:
                    combined[row] = w
            self._rows = tuple(combined)
            self._annotations = tuple(combined.values())
            self.semiring = semiring
        # Lazy caches (the relation is immutable): membership set for
        # __contains__/__eq__, attribute index for positions(), columnar
        # backing for the data plane and per-column counting codes for the
        # planner (each built once, shared by renames).
        self._row_set: frozenset | None = None
        self._attr_pos: dict[str, int] | None = None
        self._cols: ColumnBlock | None = None
        self._codes: dict[int, tuple[list, np.ndarray]] = {}

    @classmethod
    def from_columns(
        cls,
        name: str,
        attrs: Sequence[str],
        block: ColumnBlock,
        annotations: Iterable[Any] | None = None,
        semiring: Semiring | None = None,
    ) -> "Relation":
        """Construct from a :class:`~repro.data.columns.ColumnBlock`.

        Semantically identical to constructing from ``block.rows()`` —
        the same dedup / annotation-combining pass runs — but when the
        block holds no duplicates it is kept as the columnar backing, so
        no re-encoding ever happens on the columnar fast path.
        """
        if block.arity != len(tuple(attrs)):
            raise SchemaError(
                f"block arity {block.arity} != {len(tuple(attrs))} attrs in {name!r}"
            )
        rel = cls(name, attrs, block.rows(), annotations, semiring)
        if len(rel._rows) == block.n:
            rel._cols = block
        return rel

    # ------------------------------------------------------------------
    @property
    def rows(self) -> tuple[Row, ...]:
        return self._rows

    @property
    def columns(self) -> ColumnBlock:
        """The columnar backing (encoded lazily, then cached)."""
        cols = self._cols
        if cols is None:
            cols = self._cols = ColumnBlock.from_rows(self._rows, len(self.attrs))
        return cols

    def renamed(self, name: str, attrs: Sequence[str] | None = None) -> "Relation":
        """The same relation under a new name / attribute names.

        A metadata-only operation: rows, annotations, and the columnar
        backing are shared with ``self`` (both are immutable).  ``attrs``
        must have the original arity; passing ``None`` keeps the old names.
        """
        attrs = self.attrs if attrs is None else tuple(attrs)
        if len(attrs) != len(self.attrs):
            raise SchemaError(
                f"cannot rename {self.attrs} to {attrs}: arity differs"
            )
        clone = object.__new__(type(self))
        clone.name = name
        clone.attrs = attrs
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"relation {name!r} has duplicate attributes {attrs}")
        clone._rows = self._rows
        clone._annotations = self._annotations
        clone.semiring = self.semiring
        clone._row_set = self._row_set
        clone._attr_pos = None
        clone._cols = self._cols
        clone._codes = self._codes
        return clone

    @property
    def annotations(self) -> tuple[Any, ...] | None:
        return self._annotations

    @property
    def annotated(self) -> bool:
        return self._annotations is not None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def _rowset(self) -> frozenset:
        cached = self._row_set
        if cached is None:
            cached = self._row_set = frozenset(self._rows)
        return cached

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rowset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.attrs != other.attrs:
            # Same set of attributes in a different order still counts equal.
            if set(self.attrs) != set(other.attrs):
                return False
            other = other.reordered(self.attrs)
        if self.annotated != other.annotated:
            return False
        if not self.annotated:
            return self._rowset() == other._rowset()
        return dict(zip(self._rows, self._annotations or ())) == dict(
            zip(other._rows, other._annotations or ())
        )

    def __repr__(self) -> str:
        tag = " annotated" if self.annotated else ""
        return f"Relation<{self.name}({','.join(self.attrs)}), {len(self)} rows{tag}>"

    # ------------------------------------------------------------------
    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Column positions of the given attribute names.

        Raises:
            SchemaError: If an attribute is missing.
        """
        index = self._attr_pos
        if index is None:
            index = self._attr_pos = {a: i for i, a in enumerate(self.attrs)}
        try:
            return tuple(index[a] for a in attrs)
        except KeyError as exc:
            raise SchemaError(
                f"attributes {attrs} not all present in {self.name!r}{self.attrs}"
            ) from exc

    def key_of(self, attrs: Sequence[str]) -> Callable[[Row], Any]:
        """A fast extractor of a row's hashable key on ``attrs``.

        The key is the bare value for one attribute and a tuple otherwise
        (``()`` for none), so only keys extracted on the same number of
        attributes compare meaningfully — which is all a semi-join or a
        count over a shared separator needs, at a fraction of
        :func:`project_row`'s per-row cost.
        """
        positions = self.positions(attrs)
        return itemgetter(*positions) if positions else lambda _row: ()

    def take(self, indices: Sequence[int]) -> "Relation":
        """The rows (and annotations) at the given distinct indices.

        A subset of deduplicated rows is deduplicated, so this skips the
        constructor's dedup / annotation-combining pass.
        """
        clone = self.renamed(self.name)
        clone._rows = tuple(map(self._rows.__getitem__, indices))
        if self._annotations is not None:
            clone._annotations = tuple(map(self._annotations.__getitem__, indices))
        clone._row_set = clone._cols = None
        clone._codes = {}
        return clone

    def project(self, attrs: Sequence[str], name: str | None = None) -> "Relation":
        """Project onto ``attrs`` (set semantics; annotations combine via plus)."""
        pos = self.positions(attrs)
        if self.annotated:
            assert self.semiring is not None and self._annotations is not None
            return Relation(
                name or self.name,
                attrs,
                (project_row(r, pos) for r in self._rows),
                annotations=self._annotations,
                semiring=self.semiring,
            )
        return Relation(name or self.name, attrs, (project_row(r, pos) for r in self._rows))

    def select(self, predicate: Callable[[Mapping[str, Any]], bool]) -> "Relation":
        """Filter rows by a predicate over an attr -> value mapping."""
        return self.take([
            i
            for i, r in enumerate(self._rows)
            if predicate(dict(zip(self.attrs, r)))
        ])

    def restrict(self, filter_rows: set[Row], key_attrs: Sequence[str]) -> "Relation":
        """Keep rows whose projection onto ``key_attrs`` is in ``filter_rows``."""
        pos = self.positions(key_attrs)
        return self.take([
            i for i, r in enumerate(self._rows) if project_row(r, pos) in filter_rows
        ])

    def reordered(self, attrs: Sequence[str]) -> "Relation":
        """Return the same relation with columns permuted to ``attrs``."""
        if set(attrs) != set(self.attrs):
            raise SchemaError(f"cannot reorder {self.attrs} to {attrs}")
        pos = self.positions(attrs)
        if self.annotated:
            assert self.semiring is not None and self._annotations is not None
            return Relation(
                self.name,
                attrs,
                (project_row(r, pos) for r in self._rows),
                annotations=self._annotations,
                semiring=self.semiring,
            )
        return Relation(self.name, attrs, (project_row(r, pos) for r in self._rows))

    def column_codes(self, i: int) -> tuple[list, np.ndarray]:
        """Column ``i``'s distinct values (first-seen order, ``==``-equal
        values once) and, per row, the index of its value among them as an
        int64 array — the counting form of the column (cached; shared by
        renames)."""
        got = self._codes.get(i)
        if got is None:
            values = list(map(itemgetter(i), self._rows))
            distinct = list(dict.fromkeys(values))
            index = dict(zip(distinct, range(len(distinct))))
            got = self._codes[i] = (
                distinct, np.fromiter(map(index.__getitem__, values), np.int64, len(values))
            )
        return got

    def degrees(self, key_attrs: Sequence[str]) -> dict[Row, int]:
        """Degree of each distinct key: ``|sigma_{key=v} R|`` per value ``v``."""
        pos = self.positions(key_attrs)
        out: dict[Row, int] = {}
        for r in self._rows:
            k = project_row(r, pos)
            out[k] = out.get(k, 0) + 1
        return out

    def with_annotations(self, semiring: Semiring, default: Any | None = None) -> "Relation":
        """Attach a uniform annotation (``semiring.one`` unless given).

        The rows are already distinct, so no dedup pass runs: the result
        shares them (and the columnar backing) with ``self``.
        """
        w = semiring.one if default is None else default
        clone = self.renamed(self.name)
        clone._annotations = (w,) * len(self._rows)
        clone.semiring = semiring
        return clone

    def annotation_map(self) -> dict[Row, Any]:
        """Row -> annotation mapping (requires an annotated relation)."""
        if not self.annotated:
            raise SchemaError(f"relation {self.name!r} is not annotated")
        assert self._annotations is not None
        return dict(zip(self._rows, self._annotations))
