"""Columnar relation storage: typed columns, dictionary encoding, wire packing.

The shared representation of the data plane — every join result,
recordings, wire parts — in place of lists of Python tuples (base
relations enter the cluster as rows and are encoded at their first emit):

* :class:`Column` — one attribute's values in typed storage with a *kind
  tag*: ``"i"`` (homogeneous ints in an ``array('q')``), ``"d"``
  (dictionary-encoded: integer codes into a list of distinct values), or
  ``"o"`` (raw object list, the escape hatch for unhashable values).
* :class:`ColumnBlock` — a fixed-arity bundle of equal-length columns, the
  columnar twin of a list of row tuples, with the three kernels results
  are built from: ``take`` (gather rows by an index list), ``select``
  (permute column references) and ``concat`` (extend typed arrays, merge
  dictionaries) — each equal to its row-list oracle, values and types.
* :func:`pack_blob` / :func:`unpack_blob` — the compact wire format the
  multiprocess backend ships instead of pickled tuple lists: per-column
  minimal-width integer arrays, shared dictionaries, and optional zlib,
  behind a one-byte format flag with a pickle fallback for anything the
  columnar form cannot represent.

The load-bearing invariant is **exact round-trip**: decoding an encoded
column yields values equal to the originals *with their original types*
(``True`` stays ``bool``, ``1`` stays ``int``, ``1.0`` stays ``float``).
Dictionary keys are therefore ``(type, value)`` pairs — plain value keys
would collapse ``1``/``True``/``1.0``, which Python's ``dict`` considers
equal, silently rewriting data on the wire.  They serve exact decode
only and do not decide key equality: every primitive ranks the decoded
values (:func:`repro.mpc.substrate.rank_keys`), where ``1``, ``True`` and
``1.0`` are one key, as in :class:`~repro.data.relation.Relation`.
Non-int values keep their *original objects* in the dictionary, so even
exotic cases (``NaN``, interned strings) survive unchanged.  The ledger never sees any of this:
encoding changes bytes on a wire, never the number of logical tuples.
"""

from __future__ import annotations

import pickle
import sys
import zlib
from array import array
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Column",
    "ColumnBlock",
    "encode_column",
    "pack_blob",
    "unpack_blob",
]

_PROTO = pickle.HIGHEST_PROTOCOL

# Signed/unsigned array typecodes by width, verified at import time (the C
# sizes of 'i'/'l' are platform-defined; we only use codes whose itemsize
# matches the width we narrowed for).
_SIGNED = [(tc, array(tc).itemsize) for tc in ("b", "h", "i", "l", "q")]
_UNSIGNED = [(tc, array(tc).itemsize) for tc in ("B", "H", "I", "L", "Q")]


def _narrow_typecode(lo: int, hi: int) -> str:
    """Smallest signed typecode holding every value in ``[lo, hi]``."""
    for tc, size in _SIGNED:
        bits = size * 8 - 1
        if -(1 << bits) <= lo and hi < (1 << bits):
            return tc
    return "q"


def _narrow_unsigned_typecode(hi: int) -> str:
    """Smallest unsigned typecode holding codes in ``[0, hi]``."""
    for tc, size in _UNSIGNED:
        if hi < (1 << (size * 8)):
            return tc
    return "Q"


class Column:
    """One attribute's values in typed storage.

    Attributes:
        kind: ``"i"`` — ``data`` is an ``array('q')`` of values that were
            all exactly ``int``; ``"d"`` — ``data`` is an integer-code
            array and ``dictionary`` the distinct values in first-seen
            order; ``"o"`` — ``data`` is the raw value list (unhashable
            values).
        data: The typed storage (see ``kind``).
        dictionary: Distinct original value objects (``"d"`` only).
    """

    __slots__ = ("kind", "data", "dictionary")

    def __init__(self, kind: str, data: Any, dictionary: list | None = None) -> None:
        self.kind = kind
        self.data = data
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.data)

    def values(self) -> list:
        """Decode back to the original values (exact types and objects)."""
        if self.kind == "i":
            return self.data.tolist()
        if self.kind == "d":
            d = self.dictionary
            assert d is not None
            # A take through an object array of the dictionary's own
            # objects, at C speed.  ``np.fromiter`` keeps tuples whole
            # (``np.array`` would split them into a second axis).
            return np.fromiter(d, object, len(d))[np.asarray(self.data)].tolist()
        return list(self.data)

    def approx_nbytes(self, seen: set[int] | None = None) -> int:
        """Approximate resident size (cache-accounting, not wire size).

        Typed arrays report their exact buffer size; dictionary values
        and raw objects are estimated via :func:`sys.getsizeof`.  A
        dictionary is counted unless its ``id`` is in ``seen`` (then added
        to it): blocks gathered from one source share their dictionaries,
        so a caller summing many columns passes one set.
        """
        if self.kind == "i":
            return self.data.itemsize * len(self.data)
        if self.kind == "d":
            base = self.data.itemsize * len(self.data)
            if seen is not None:
                if id(self.dictionary) in seen:
                    return base
                seen.add(id(self.dictionary))
            return base + sum(map(sys.getsizeof, self.dictionary or ()))
        return sum(map(sys.getsizeof, self.data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f", |dict|={len(self.dictionary)}" if self.kind == "d" else ""
        return f"Column<{self.kind}, {len(self)} values{extra}>"


def encode_column(values: Sequence[Any]) -> Column:
    """Encode one column of values, preserving exact round-trip.

    Homogeneous ``int`` columns (every value's type exactly ``int``, within
    int64) become ``array('q')``; everything else is dictionary-encoded on
    ``(type, value)`` keys — the type in the key is what keeps ``True``,
    ``1``, and ``1.0`` apart even though ``dict`` equality identifies them.
    Unhashable values fall back to a plain object list.

    A column whose values all have one exact type other than ``int`` —
    every base column of the decks — is encoded in one C-speed pass: with
    the type fixed, plain value keys are the ``(type, value)`` keys, so
    ``dict.fromkeys`` builds the dictionary (first objects, first-seen
    order) and one ``map`` over it writes the codes.
    """
    vals = values if isinstance(values, list) else list(values)
    types = set(map(type, vals))
    if types <= {int}:
        try:
            return Column("i", array("q", vals))
        except OverflowError:  # past int64: dictionary-encode below
            pass
    elif len(types) == 1:
        try:
            dictionary = list(dict.fromkeys(vals))
        except TypeError:  # unhashable values: store objects as-is
            return Column("o", list(vals))
        index = dict(zip(dictionary, range(len(dictionary))))
        return Column("d", array("q", map(index.__getitem__, vals)), dictionary)
    index: dict[tuple, int] = {}
    dictionary: list = []
    codes = array("q", bytes(0))
    try:
        append = codes.append
        for v in vals:
            k = (v.__class__, v)
            c = index.get(k)
            if c is None:
                c = index[k] = len(dictionary)
                dictionary.append(v)
            append(c)
    except TypeError:  # unhashable value somewhere: store objects as-is
        return Column("o", list(vals))
    return Column("d", codes, dictionary)


class ColumnBlock:
    """A fixed-arity bundle of equal-length columns (one rowset).

    ``n`` is stored explicitly so zero-arity rowsets (Boolean queries)
    keep their cardinality.
    """

    __slots__ = ("n", "columns")

    def __init__(self, n: int, columns: Sequence[Column]) -> None:
        self.n = n
        self.columns = tuple(columns)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], arity: int) -> "ColumnBlock":
        """Encode a list of equal-arity row tuples.

        Raises:
            ValueError: If any row's arity differs — ``zip`` would
                otherwise silently truncate to the shortest row and a
                later decode would serve corrupted rows.
        """
        if set(map(len, rows)) - {arity}:
            raise ValueError(f"rows are not uniformly arity {arity}")
        if not rows or not arity:
            return cls(len(rows), [encode_column([]) for _ in range(arity)])
        return cls(len(rows), [encode_column(col) for col in zip(*rows)])

    def __len__(self) -> int:
        return self.n

    @property
    def arity(self) -> int:
        return len(self.columns)

    def rows(self) -> list[tuple]:
        """Materialize the row-tuple view (exact round-trip)."""
        if not self.columns:
            return [()] * self.n
        return list(zip(*[c.values() for c in self.columns]))

    def column_values(self, i: int) -> list:
        return self.columns[i].values()

    def take(self, idx: Sequence[int]) -> "ColumnBlock":
        """Rows ``idx[0], idx[1], ...`` as a new block (shared dicts).

        Equals ``[rows[i] for i in idx]`` on the row view (``idx`` a
        sequence or an integer array); repeats and any order are allowed,
        which is what makes it the emit kernel of every local join (gather
        each side by its list of matching positions).
        Typed buffers are gathered at C speed; only codes move.
        """
        at = np.asarray(idx, dtype=np.int64)
        return ColumnBlock(len(at), [
            Column("o", list(map(c.data.__getitem__, at.tolist()))) if c.kind == "o"
            else Column(c.kind, _gather(c.data, at), c.dictionary)
            for c in self.columns
        ])

    def select(self, positions: Sequence[int]) -> "ColumnBlock":
        """Columns ``positions``, in that order: references, no copy."""
        return ColumnBlock(self.n, [self.columns[i] for i in positions])

    @staticmethod
    def concat(blocks: Sequence["ColumnBlock"]) -> "ColumnBlock":
        """The blocks' rows in sequence, as one block (equal arities).

        Empty blocks contribute nothing (not even their column kinds);
        a single non-empty block is returned as is.
        """
        full = [b for b in blocks if b.n]
        if len(full) < 2:
            return full[0] if full else blocks[0]
        return ColumnBlock(
            sum(b.n for b in full),
            [_concat_columns(cols) for cols in zip(*[b.columns for b in full])],
        )

    def approx_nbytes(self, seen: set[int] | None = None) -> int:
        """Approximate resident size of all columns (see ``Column``)."""
        return 64 + sum(c.approx_nbytes(seen) for c in self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnBlock<{self.n} rows x {self.arity} cols>"


def _gather(source: Any, idx: Any) -> array:
    """``array('q', [source[i] for i in idx])`` at C speed: numpy indexes,
    the result is an ``array`` like every other column buffer."""
    picked = np.asarray(source, dtype=np.int64)[np.asarray(idx, dtype=np.int64)]
    return array("q", picked.tobytes())


def _concat_columns(cols: Sequence[Column]) -> Column:
    """One column holding ``cols``' values in sequence (exact round-trip)."""
    kinds = {c.kind for c in cols}
    if kinds == {"i"}:
        data = array("q")
        for c in cols:
            data.extend(c.data)
        return Column("i", data)
    if kinds != {"d"}:
        # Kinds disagree (or an object column is involved): re-encode.
        return encode_column([v for c in cols for v in c.values()])
    if all(c.dictionary is cols[0].dictionary for c in cols):
        # Gathered from one source: the codes already agree.
        data = array("q")
        for c in cols:
            data.extend(c.data)
        return Column("d", data, cols[0].dictionary)
    # Merge dictionaries on encode_column's own ``(type, value)`` keys; the
    # codes of every later dictionary are remapped in one C-speed gather.
    dictionary = list(cols[0].dictionary)
    index = {(v.__class__, v): i for i, v in enumerate(dictionary)}
    data = array("q", cols[0].data)
    for c in cols[1:]:
        remap = []
        for v in c.dictionary:
            code = index.setdefault((v.__class__, v), len(dictionary))
            if code == len(dictionary):
                dictionary.append(v)
            remap.append(code)
        data.extend(_gather(remap, c.data))
    return Column("d", data, dictionary)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
#
# blob = flag byte + payload.  Flag bits: 0x01 = columnar payload (pickled
# ``(n, specs)``), 0x00 = pickled row list (fallback); 0x80 = payload is
# zlib-compressed.  Specs are per column:
#   ("i", narrow_signed_array)           int column
#   ("d", narrow_unsigned_codes, values) dictionary column
#   ("o", values)                        object column
# Narrowing picks the smallest array typecode covering the value range, so
# small-domain columns cost 1-2 bytes per row before compression.

_F_COLS = 0x01
_F_ZLIB = 0x80
_COMPRESS_MIN = 256


def _narrow_signed(arr: array) -> array:
    if not len(arr):
        return array("b", bytes(0))
    lo, hi = min(arr), max(arr)
    tc = _narrow_typecode(lo, hi)
    return arr if tc == arr.typecode else array(tc, arr)


def _narrow_codes(codes: array, n_values: int) -> array:
    tc = _narrow_unsigned_typecode(max(0, n_values - 1))
    return array(tc, codes)


def _pack_spec(col: Column) -> tuple:
    if col.kind == "i":
        return ("i", _narrow_signed(col.data))
    if col.kind == "d":
        d = col.dictionary or []
        # Remap codes to the values this column actually uses: a ``take``
        # shares its source's full dictionary, and shipping it verbatim
        # would send every part all distinct values of the whole source
        # (inflating the wire past the row-pickle baseline on
        # high-cardinality columns).  First-occurrence order keeps the
        # blob deterministic.
        remap: dict[int, int] = {}
        used: list = []
        codes = array("q", bytes(0))
        append = codes.append
        get = remap.get
        for c in col.data:
            nc = get(c)
            if nc is None:
                nc = remap[c] = len(used)
                used.append(d[c])
            append(nc)
        return ("d", _narrow_codes(codes, len(used)), used)
    return ("o", list(col.data))


def _pack_rows(part: Sequence) -> tuple | None:
    """Columnar packing of a row list; ``None`` when rows aren't uniform tuples."""
    n = len(part)
    if n == 0:
        return (0, ())
    first = part[0]
    if type(first) is not tuple:
        return None
    arity = len(first)
    for r in part:
        if type(r) is not tuple or len(r) != arity:
            return None
    if arity == 0:
        return (n, ())
    return (n, tuple(_pack_spec(encode_column(col)) for col in zip(*part)))


def _pack_block(block: ColumnBlock) -> tuple:
    return (block.n, tuple(_pack_spec(c) for c in block.columns))


def _finish(flag: int, payload: bytes) -> bytes:
    if len(payload) > _COMPRESS_MIN:
        z = zlib.compress(payload, 1)
        if len(z) < len(payload):
            return bytes((flag | _F_ZLIB,)) + z
    return bytes((flag,)) + payload


def pack_blob(part: Sequence, block: ColumnBlock | None = None) -> bytes:
    """Serialize one part for the wire (columnar when possible).

    Args:
        part: The row list the receiver must reconstruct exactly.
        block: The part's already-encoded :class:`ColumnBlock`, when the
            owner is columnar-backed — skips re-encoding from rows.

    May raise whatever :mod:`pickle` raises on unpicklable values; callers
    (the multiprocess backend) already treat that as "run inline".
    """
    packed = _pack_block(block) if block is not None else _pack_rows(part)
    if packed is None:
        return _finish(0x00, pickle.dumps(list(part), _PROTO))
    return _finish(_F_COLS, pickle.dumps(packed, _PROTO))


def unpack_blob(blob: bytes) -> list[tuple]:
    """Invert :func:`pack_blob`: the exact original row list."""
    flag = blob[0]
    payload = blob[1:]
    if flag & _F_ZLIB:
        payload = zlib.decompress(payload)
    data = pickle.loads(payload)
    if not flag & _F_COLS:
        return data
    n, specs = data
    return ColumnBlock(n, [Column(*spec) for spec in specs]).rows()
