"""CSV import/export for relations and instances.

A relation file is a CSV whose header row names the attributes; an
instance is a directory of ``<relation>.csv`` files matching the query's
edges.  Annotated relations carry their annotation in a column named
``__weight__`` (parsed with the semiring's value type).

This is deliberately minimal — enough to run the library on real exported
data without pulling in a dataframe dependency.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Callable

from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.errors import SchemaError
from repro.query.hypergraph import Hypergraph
from repro.semiring import Semiring

__all__ = [
    "WEIGHT_COLUMN",
    "read_relation_csv",
    "write_relation_csv",
    "read_instance_dir",
    "write_instance_dir",
    "infer_query",
]

WEIGHT_COLUMN = "__weight__"


def read_relation_csv(
    path: str | Path,
    name: str | None = None,
    semiring: Semiring | None = None,
    weight_parser: Callable[[str], object] = float,
) -> Relation:
    """Load a relation from a CSV file with a header row.

    Args:
        path: CSV file path.
        name: Relation name (defaults to the file stem).
        semiring: If given and a ``__weight__`` column exists, rows become
            annotated (duplicates combine with the semiring's plus).
        weight_parser: Parses weight cells (default ``float``).

    Raises:
        SchemaError: On an empty file or ragged rows.
    """
    path = Path(path)
    rel_name = name or path.stem
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty; expected a header row") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    w_idx = header.index(WEIGHT_COLUMN) if WEIGHT_COLUMN in header else None
    attrs = [h for h in header if h != WEIGHT_COLUMN]
    width = len(header)
    if set(map(len, rows)) - {width}:
        i, row = next((i, r) for i, r in enumerate(rows) if len(r) != width)
        raise SchemaError(
            f"{path}:{i + 2}: expected {width} cells, got {len(row)}"
        )
    if w_idx is None:
        return Relation(rel_name, attrs, rows)
    data = [row[:w_idx] + row[w_idx + 1:] for row in rows]
    weights = [weight_parser(row[w_idx]) for row in rows]
    if semiring is None:
        return Relation(rel_name, attrs, data)
    return Relation(rel_name, attrs, data, weights, semiring)


def write_relation_csv(rel: Relation, path: str | Path) -> None:
    """Write a relation (annotations in ``__weight__`` if present)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if rel.annotated:
            writer.writerow([*rel.attrs, WEIGHT_COLUMN])
            for row, w in zip(rel.rows, rel.annotations or ()):
                writer.writerow([*row, w])
        else:
            writer.writerow(rel.attrs)
            writer.writerows(rel.rows)


def read_instance_dir(
    directory: str | Path,
    query: Hypergraph | None = None,
    semiring: Semiring | None = None,
) -> Instance:
    """Load an instance from a directory of ``<relation>.csv`` files.

    If ``query`` is omitted it is inferred: each file is an edge whose
    attributes are its columns.
    """
    directory = Path(directory)
    files = sorted(p for p in directory.glob("*.csv"))
    if not files:
        raise SchemaError(f"no .csv files in {directory}")
    rels = {
        p.stem: read_relation_csv(p, semiring=semiring) for p in files
    }
    if query is None:
        query = Hypergraph(
            {name: rel.attrs for name, rel in rels.items()},
            name=directory.name,
        )
    return Instance(query, rels)


def write_instance_dir(instance: Instance, directory: str | Path) -> None:
    """Write every relation of an instance as ``<relation>.csv``."""
    directory = Path(directory)
    os.makedirs(directory, exist_ok=True)
    for name, rel in instance.relations.items():
        write_relation_csv(rel, directory / f"{name}.csv")


def infer_query(directory: str | Path, name: str | None = None) -> Hypergraph:
    """Build the hypergraph implied by a directory's CSV headers."""
    directory = Path(directory)
    edges = {}
    for p in sorted(directory.glob("*.csv")):
        with open(p, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header is None:
            raise SchemaError(f"{p} is empty; expected a header row")
        edges[p.stem] = tuple(
            h.strip() for h in header if h.strip() != WEIGHT_COLUMN
        )
    if not edges:
        raise SchemaError(f"no .csv files in {directory}")
    return Hypergraph(edges, name=name or directory.name)
