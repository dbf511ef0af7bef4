"""The PSRS kernel every Section-2 primitive sorts with, and its caches.

Paper Section 2 reduces sum-by-key, multi-numbering, multi-search and
semi-join to one linear-load sort; :func:`psrs` is that sort, once.  The
comparable *sort keys* of one pass are ranked against their sorted
distinct values (:func:`rank_keys`), and the pass runs on int64 ranks
(:func:`arrange`): one stable ``argsort`` of the items, concatenated in
``(src, j)`` order, *is* the global ``(key, uid)`` order, every
destination is a contiguous slice of it between two splitters, and all
three communication steps are charged to the ledger by their per-server
counts (:func:`charge_pass`).  Callers scan the resulting
:class:`Arrangement` as arrays and fetch items only when they emit.
Sample and splitter traffic scales with the data: ``min(p, ceil(n_i /
p))`` samples per source (:func:`sample_indices`), ``min(p, #samples)``
ranges (:func:`pick_splitters`).

* **Raw keys where they order like** :func:`orderable`.  A column that is
  statically homogeneous (int/float-only or str-only; :func:`column_kind`,
  detected once per relation) stamps one constant type tag on every value,
  so projected keys over such columns compare exactly like their
  encodings and are ranked as they are (:class:`TagStamp`; for keys with
  no relation behind them, :func:`sort_keys` scans the type tags).  Any
  other key list is encoded first — same ranks, bit-identical arrangement
  and ledger.
* **Sorted runs, paid once per execution.**  :func:`sorted_run` runs the
  pass for a ``(relation, key)`` pair once and caches it on the relation.
  The ledger is charged for it once per execution (ledger epoch,
  :attr:`Cluster.epoch`): rows already range-partitioned on the key do not
  move again, so a repeat call in the same epoch posts nothing, and the
  first call in a later epoch posts the recorded pass in full.  The cache
  can never go stale: :class:`~repro.mpc.distrel.DistRelation` parts are
  immutable after construction and every relation-producing operation
  returns a fresh object.

``set_caching(False)`` / :func:`cache_disabled` bypass every cache *and*
the homogeneity tags: the bypass path re-sorts :func:`orderable`
encodings each time — charged by the same once-per-epoch rule — and is
the reference the correctness tests compare against (identical outputs
*and* identical ledgers).  See DESIGN.md section 3 for the full argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.data.columns import _order_tag_of
from repro.data.relation import Row
from repro.errors import MPCError
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.hashing import stable_hash
from repro.plan.trace import prim_span

__all__ = [
    "orderable",
    "coordinator_for",
    "caching_enabled",
    "set_caching",
    "cache_disabled",
    "column_kind",
    "key_encoder",
    "key_tags",
    "sort_keys",
    "projected_keys",
    "TagStamp",
    "rank_keys",
    "sample_indices",
    "pick_splitters",
    "Arrangement",
    "arrange",
    "psrs",
    "charge_pass",
    "SortedRun",
    "sorted_run",
]

_ENABLED = True


def caching_enabled() -> bool:
    """Whether the substrate caches (encoders + sorted runs) are active."""
    return _ENABLED


def set_caching(enabled: bool) -> None:
    """Globally enable/disable the substrate caches (used by tests/benches)."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Run a block with every substrate cache bypassed (the reference path)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prev


# ----------------------------------------------------------------------
# Key encoding
# ----------------------------------------------------------------------

def orderable(value: Any) -> tuple:
    """Map a value to a type-tagged key so mixed types sort deterministically."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    if isinstance(value, tuple):
        return (5, tuple(orderable(v) for v in value))
    raise TypeError(f"cannot order value of type {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class TagStamp:
    """``key -> orderable(key)`` for tuple keys whose position ``i`` always
    holds values of the one type tag ``tags[i]``.

    The encoding stamps a constant onto every component, so such keys
    compare *exactly* like their encodings — ``(5, ((t0, a), (t1, b)))``
    orders as ``(a, b)`` does once ``t0``/``t1`` are fixed — and a sort may
    use them raw.  Returned by :func:`key_encoder` and
    :func:`pair_key_encoder` when the homogeneity tags agree.
    """

    tags: tuple[int, ...]

    def __call__(self, key: tuple) -> tuple:
        return (5, tuple(zip(self.tags, key)))


def column_kind(rel: DistRelation, col: int) -> int | None:
    """Statically detect a homogeneous column; cached once per relation.

    Returns the :func:`orderable` type tag (``2`` for int/float, ``3`` for
    str) when *every* value in the column has exactly that Python type
    (``bool`` — an ``int`` subclass with a different tag — disqualifies),
    else ``None``.  With caching disabled no scan happens and ``None`` is
    returned, which routes every encoder through plain :func:`orderable`.

    A row-backed relation (every base relation) answers with one C-speed
    type-set scan of the column.  A column-backed one reads the columns'
    order tags, known since they were encoded; a dictionary column reports
    homogeneity of its *dictionary* — a superset of the part's values
    after a ``take`` — so the tag can only be conservative (``None`` where
    a scan might find homogeneity), never falsely homogeneous; every
    encoder fast path emits bit-identical keys either way.
    """
    if not _ENABLED:
        return None
    kinds: dict[int, int | None] = rel._substrate.setdefault("kinds", {})
    if col in kinds:
        return kinds[col]
    blocks = rel.column_parts
    if blocks is None:
        kind = _order_tag_of(map(itemgetter(col), chain.from_iterable(rel.parts)))
    else:
        tags = {b.columns[col].order_tag for b in blocks if b.n}
        kind = tags.pop() if len(tags) == 1 else None
    kinds[col] = kind
    return kind


def _column_lut(rel: DistRelation, col: int) -> dict | None:
    """``(type, value) -> orderable(value)`` read from column dictionaries.

    For a dictionary-encoded column the :func:`orderable` form of each
    *distinct* value is computed once (per relation, cached) and key
    encoding becomes a lookup — the recursion never re-runs per row.  The
    ``(type, value)`` key mirrors the dictionary encoder's own key, so
    ``1``/``True``/``1.0`` resolve to their distinct orderable forms.
    Returns ``None`` when the relation is row-backed (a base relation: its
    heterogeneous columns encode per value), the column has no dictionary,
    or a dictionary value defies :func:`orderable` (the per-row fallback
    then raises at the same site the reference would).
    """
    if not _ENABLED:
        return None
    blocks = rel.column_parts
    if blocks is None:
        return None
    store: dict[int, dict | None] = rel._substrate.setdefault("luts", {})
    if col in store:
        return store[col]
    lut: dict | None = {}
    for block in blocks:
        c = block.columns[col]
        if c.kind != "d":
            continue
        try:
            for v in c.dictionary or ():
                lut[(v.__class__, v)] = orderable(v)  # type: ignore[index]
        except TypeError:
            lut = None
            break
    if not lut:
        lut = None
    store[col] = lut
    return lut


def _value_encoder(tag: int | None, lut: dict | None) -> Callable[[Any], tuple]:
    """Single-value ``orderable`` equivalent: tag fast path, LUT, recursion."""
    if tag is not None:
        return lambda v: (tag, v)
    if lut is not None:
        get = lut.get

        def enc(v: Any) -> tuple:
            ok = get((v.__class__, v))
            return orderable(v) if ok is None else ok

        return enc
    return orderable


def key_encoder(rel: DistRelation, pos: Sequence[int]) -> Callable[[Row], tuple]:
    """``key -> orderable(key)`` for keys projected from ``rel`` at ``pos``.

    For callers that already hold projected key tuples (the generic
    primitives) but know which relation/columns they came from.  Columns
    without a homogeneity tag resolve through their dictionary LUTs.
    """
    pos = tuple(pos)
    tags = [column_kind(rel, i) for i in pos]
    if None not in tags:
        return TagStamp(tuple(tags))
    luts = [_column_lut(rel, i) if t is None else None for i, t in zip(pos, tags)]
    if not any(luts):
        return orderable
    encs = [_value_encoder(t, lut) for t, lut in zip(tags, luts)]
    if len(encs) == 1:
        e0 = encs[0]
        return lambda key: (5, (e0(key[0]),))
    return lambda key: (5, tuple(e(v) for e, v in zip(encs, key)))


def pair_key_encoder(
    rel1: DistRelation,
    pos1: Sequence[int],
    rel2: DistRelation,
    pos2: Sequence[int],
) -> Callable[[Row], tuple] | None:
    """A shared fast key encoder for keys projected from *two* relations.

    When both projections are homogeneous with matching type tags, one
    tag-stamping encoder serves keys from either side.  Otherwise each
    position merges the two relations' dictionary LUTs — an encoder built
    from them is valid for values of *either* side (values absent from
    both dictionaries fall back to :func:`orderable`, bit-identically).
    Returns ``None`` only when no fast path exists at any position, so
    callers can use plain :func:`orderable` without wrapper overhead.
    """
    pos1 = tuple(pos1)
    pos2 = tuple(pos2)
    tags1 = [column_kind(rel1, i) for i in pos1]
    tags2 = [column_kind(rel2, i) for i in pos2]
    if tags1 == tags2 and None not in tags1:
        return TagStamp(tuple(tags1))
    encs: list[Callable[[Any], tuple]] = []
    useful = False
    for j in range(len(pos1)):
        t1, t2 = tags1[j], tags2[j]
        if t1 is not None and t1 == t2:
            encs.append(_value_encoder(t1, None))
            useful = True
            continue
        lut1 = _column_lut(rel1, pos1[j]) if t1 is None else None
        lut2 = _column_lut(rel2, pos2[j]) if t2 is None else None
        merged: dict | None = None
        if lut1 or lut2:
            merged = dict(lut1 or ())
            merged.update(lut2 or ())
            useful = True
        encs.append(_value_encoder(None, merged))
    if not useful:
        return None
    if len(encs) == 1:
        e0 = encs[0]
        return lambda key: (5, (e0(key[0]),))
    return lambda key: (5, tuple(e(v) for e, v in zip(encs, key)))


def key_tags(flat: list) -> int | tuple[int, ...] | None:
    """The :func:`orderable` type tag every key shares, by C-speed scans.

    Scalar keys: :func:`_order_tag_of` of them all.  Tuple keys of one
    width: the tuple of the tags of each position.  ``None`` when some
    position mixes tags (or widths, or scalars with tuples) or ``flat`` is
    empty.  Keys with shared tags compare exactly like their encodings.
    """
    if not flat or type(flat[0]) is not tuple:
        return _order_tag_of(flat)
    if set(map(type, flat)) != {tuple} or len(set(map(len, flat))) != 1:
        return None
    tags = tuple(_order_tag_of(map(itemgetter(i), flat)) for i in range(len(flat[0])))
    return None if None in tags else tags


def sort_keys(
    keys: Sequence[list], encoder: Callable[[Any], tuple] | None
) -> Sequence[list]:
    """What a generic primitive ranks per-source ``keys`` on.

    The keys themselves when they order exactly like their
    :func:`orderable` encodings: a :class:`TagStamp` says so for keys
    projected from homogeneous columns, and without an encoder one
    :func:`key_tags` scan over every source decides (the cache-bypassed
    reference never scans).  Otherwise their encodings under ``encoder``
    (an ``orderable`` equivalent) or :func:`orderable` itself.
    """
    if isinstance(encoder, TagStamp) or (
        encoder is None and _ENABLED
        and key_tags(list(chain.from_iterable(keys))) is not None
    ):
        return keys
    enc = encoder or orderable
    return [list(map(enc, part)) for part in keys]


def projected_keys(rel: DistRelation, pos: Sequence[int]) -> list[list[Row]]:
    """Per-part projected key tuples, cached per ``(relation, positions)``.

    Columnar-backed relations build the key tuples straight from decoded
    column value lists — no row tuples are touched (or materialized).
    """
    pos = tuple(pos)
    if _ENABLED:
        cache: dict[tuple, list] = rel._substrate.setdefault("keys", {})
        got = cache.get(pos)
        if got is not None:
            return got
    blocks = rel.column_parts
    if blocks is not None:
        keys = [list(zip(*[b.column_values(i) for i in pos])) for b in blocks]
    else:
        keys = [_sort_part(part, (pos, False), 0) for part in rel.parts]
    if _ENABLED:
        cache[pos] = keys
    return keys


# ----------------------------------------------------------------------
# Coordinator selection (memoized: labels repeat across primitive calls)
# ----------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _coordinator(size: int, label: str) -> int:
    return stable_hash(label, salt=0x5EED) % size


def coordinator_for(group: Group, label: str) -> int:
    """Pick the coordinator server for a primitive step.

    Rotating the coordinator by a hash of the step label spreads the O(p)
    boundary-stitching traffic evenly instead of hot-spotting one server —
    the simulation analogue of the aggregation trees of [14, 18].  Labels
    repeat across primitive calls, so the choice is memoized (bounded:
    recursive algorithms mint depth-specific labels).
    """
    return _coordinator(group.size, label)


# ----------------------------------------------------------------------
# The PSRS kernel: the one linear-load sort every primitive reduces to
# ----------------------------------------------------------------------

def sample_indices(n: int, p: int) -> list[int]:
    """The ``s = min(p, ceil(n / p))`` evenly spaced sample positions of a
    sorted part of ``n`` items: one sample per ``g = ceil(n / s)`` items.

    Samples in proportion to data: the gather of ``S`` samples is at most
    ``n_total / p + p`` units, never more than the data share it balances,
    and a sample stands for the same number of items on every source.  With
    per-source spacings ``g_i`` and ``q = min(p, S)`` ranges
    (:func:`pick_splitters`), a range holds at most ``ceil(S / q) + 1``
    sample gaps plus one partial gap per source, so no partition exceeds
    ``(ceil(S / q) + 1) * max(g_i) + sum(g_i)`` items — for even parts
    ``n/p + max(n/p, p^2)``, times at most ``1 + 1/2p``, plus ``O(p)``.
    """
    s = min(p, -(-n // p))
    return [(k * n) // s for k in range(s)]


def pick_splitters(flat: Sequence, p: int) -> list:
    """The ``min(p, S) - 1`` range splitters from the ``S`` gathered, sorted
    samples: ranges in proportion to samples, so a two-item sort broadcasts
    one splitter, not ``p - 1`` copies of it."""
    m = len(flat)
    q = min(p, m)
    return [flat[(k * m) // q] for k in range(1, q)]


def rank_keys(keys: Sequence[Sequence]) -> tuple[list, np.ndarray]:
    """Rank per-source sort keys against their sorted distinct values.

    Returns ``(flat, ranks)``: the keys concatenated in source order, and
    the int64 index of each in ``sorted(set(flat))``, in the same order.
    Equal keys share a rank (``1``/``1.0``, ``0.0``/``-0.0``) exactly where
    ``sorted`` ties them, so a stable sort on ranks is a stable sort on
    keys.  NaN keys are outside the contract.
    """
    flat = list(chain.from_iterable(keys))
    values = flat
    if flat and type(flat[0]) is tuple and set(map(len, flat)) == {1}:
        # Comparable with a tuple, all are tuples: 1-tuples rank as their
        # one value, which hashes and compares faster.
        values = list(map(itemgetter(0), flat))
    distinct = sorted(set(values))
    index = dict(zip(distinct, range(len(distinct))))
    return flat, np.fromiter(map(index.__getitem__, values), np.int64, len(flat))


@dataclass(slots=True, eq=False)
class Arrangement:
    """Where one PSRS pass puts every item, by *flat position*: the
    sources' items concatenated in source order, so flat order is uid order.

    ``order`` lists flat positions in global ``(key, uid)`` order, and
    ``ranks`` / ``srcs`` the items' ranks and sources along it; destination
    ``d`` holds ``order[cuts[d]:cuts[d + 1]]``; ``spl`` are the splitters'
    positions in ``order``; ``starts[s]`` is source ``s``'s first flat
    position; ``charges`` is what :func:`charge_pass` bills (``None`` on
    one server, where nothing moves).
    """

    order: np.ndarray
    ranks: np.ndarray
    srcs: np.ndarray
    starts: np.ndarray
    cuts: list[int]
    spl: list[int]
    charges: tuple | None

    def slices(self) -> Iterator[tuple[int, int]]:
        """Each destination's ``(lo, hi)`` bounds in ``order``."""
        return zip(self.cuts, self.cuts[1:])

    def parts(self, keys: list) -> list[tuple[list, list[int], list[int]]]:
        """Per destination, ``(sort_keys, srcs, js)`` lists in global order,
        ``keys`` being the pass's flat sort keys."""
        order, srcs = self.order.tolist(), self.srcs.tolist()
        js = (self.order - self.starts[self.srcs]).tolist()
        return [
            (list(map(keys.__getitem__, order[lo:hi])), srcs[lo:hi], js[lo:hi])
            for lo, hi in self.slices()
        ]

    def splitters(self, keys: list) -> list[tuple]:
        """The at most ``p - 1`` ``(sort_key, uid)`` range splitters."""
        starts = self.starts.tolist()
        return [
            (keys[f], (s, f - starts[s]))
            for f, s in zip(self.order[self.spl].tolist(), self.srcs[self.spl].tolist())
        ]


def _arrange(sizes: Sequence[int], ranks: np.ndarray) -> Arrangement:
    """:func:`arrange` without the ledger: where every item lands, and the
    per-server counts that moving it there costs."""
    p = len(sizes)
    offsets = [0, *accumulate(sizes)]
    starts = np.array(offsets)
    # Flat order is uid order: a stable sort on rank is the (key, uid) order.
    order = np.argsort(ranks, kind="stable")
    # The narrowest dtype: a stable sort of 8/16-bit ids is a radix sort.
    srcs = np.repeat(np.arange(p, dtype=np.min_scalar_type(p)), sizes)[order]
    n = len(order)
    if p == 1:
        return Arrangement(order, ranks[order], srcs, starts, [0, n], [], None)

    # Regular sampling: evenly spaced pivots of each source's sorted items
    # (a stable sort of the source ids along the global order lists them),
    # each counted as one unit of communication at the coordinator.
    by_src = np.argsort(srcs, kind="stable")
    picks: list[int] = []
    sample_sizes = []
    for s, n_s in enumerate(sizes):
        idxs = sample_indices(n_s, p)
        picks += [offsets[s] + i for i in idxs]
        sample_sizes.append(len(idxs))
    # Positions in the global order sort the samples by (key, uid).
    spl = pick_splitters(np.sort(by_src[np.array(picks, np.intp)]).tolist(), p)

    # An item lands on the server numbered by how many splitters are <= its
    # (key, uid): in global order, the slice between two splitters.  Ranges
    # past the last splitter (all of them, with no items) are empty.
    cuts = [0, *spl] + [n] * (p - len(spl))
    counts = np.diff(cuts)
    dest = np.repeat(np.arange(p), counts)
    received = (counts - np.bincount(dest[srcs == dest], minlength=p)).tolist()
    charges = (sample_sizes, received)
    return Arrangement(order, ranks[order], srcs, starts, cuts, spl, charges)


def arrange(
    group: Group, sizes: Sequence[int], ranks: np.ndarray, label: str
) -> Arrangement:
    """One regular-sampling sort pass over flat int64 ``ranks``, source
    ``s`` holding ``sizes[s]`` of them, charged.  The global order is
    ``(rank, uid)``, so a key heavier than ``n/p`` spreads over servers.
    Load: the partition bound of :func:`sample_indices` per server, plus at
    most ``n/p + p`` sample units at the coordinator."""
    if len(sizes) != group.size:
        raise MPCError(f"expected {group.size} parts, got {len(sizes)}")
    arr = _arrange(sizes, ranks)
    charge_pass(group, label, arr)
    return arr


def psrs(
    group: Group, keys: Sequence[list], label: str
) -> tuple[list[tuple[list, list[int], list[int]]], list[tuple], tuple | None]:
    """One regular-sampling sort pass over per-source sort-key lists.

    ``keys[src][j]`` is the sort key of source ``src``'s item ``j``: any
    mutually comparable, hashable values, ranked by :func:`rank_keys` and
    arranged by :func:`arrange`.  Returns ``(parts, splitters, charges)``:
    ``parts[d] = (ks, srcs, js)``, destination ``d``'s sort keys and
    origins in global order; the at most ``p - 1`` ``(key, uid)`` range
    splitters; what :func:`charge_pass` billed.
    """
    flat, ranks = rank_keys(keys)
    arr = arrange(group, [len(k) for k in keys], ranks, label)
    return arr.parts(flat), arr.splitters(flat), arr.charges


def charge_pass(group: Group, label: str, arr: Arrangement) -> None:
    """Post one PSRS pass's three steps — sample gather, splitter
    broadcast, shuffle — to the ledger by their per-server counts.

    Every backend's ``exchange`` is the in-process ``deliver_local`` and
    only its counts reach :meth:`Cluster.tally_members`, so charging the
    counts is ledger-exact on every backend.  This is the only function
    that posts a pass: a fresh sort, a cached run first used in a later
    epoch and the cache-bypassed reference all go through it and cannot
    drift apart.
    """
    if arr.charges is None:
        return
    sample_sizes, received = arr.charges
    coord = coordinator_for(group, label)
    counts = [0] * group.size
    counts[coord] = sum(sample_sizes) - sample_sizes[coord]
    group.cluster.tally_members(group.members, counts, f"{label}/sample")
    group.broadcast(arr.spl, f"{label}/splitters", src=coord)
    group.cluster.tally_members(group.members, received, f"{label}/shuffle")


# ----------------------------------------------------------------------
# Sorted runs
# ----------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class SortedRun:
    """One PSRS pass over a relation's rows, keyed by one projection.

    Items are numbered by flat position over ``rel.parts`` (parts
    concatenated in order), which also indexes caller-side payloads.

    Attributes:
        scalar: Whether keys are bare column values (True) or 1+-tuples.
        tags: The columns' homogeneity tags when every one is set — the
            run is then ranked on the raw keys — else ``None`` (ranked on
            :func:`orderable` encodings).
        keys: ``keys[f]`` is the projected key of flat row ``f``.
        sort_keys: What the pass ranked: ``keys`` itself when raw, else
            their encodings.
        arr: The :class:`Arrangement`; the origin ``(src, j)`` ties equal
            keys apart, so heavy keys spread over servers.  Its charges let
            the first use in a later epoch bill the pass without re-sorting.
    """

    scalar: bool
    tags: tuple[int, ...] | None
    keys: list
    sort_keys: list
    arr: Arrangement

    @property
    def parts(self) -> list[tuple[list, list[int], list[int]]]:
        """Per destination, ``(sort_keys, srcs, js)`` in global order."""
        return self.arr.parts(self.sort_keys)

    @property
    def splitters(self) -> list[tuple]:
        """The global ``(sort_key, uid)`` range splitters."""
        return self.arr.splitters(self.sort_keys)

    def union_ranks(self, keys: Sequence[list]) -> tuple[np.ndarray, np.ndarray]:
        """Rank outside per-source ``keys`` in one space with this run's.

        Returns the outside keys' ranks (flat, in source order) and the
        run's ranks along its order.  A raw run stays raw only while every
        outside key carries the run's type tags (:func:`key_tags`);
        otherwise both sides are ranked as :func:`orderable` encodings — of
        the run, only its distinct keys (one per rank), whose order the
        encoding keeps.
        """
        arr = self.arr
        firsts = np.flatnonzero(np.diff(arr.ranks, prepend=-1))
        distinct = list(map(self.sort_keys.__getitem__, arr.order[firsts].tolist()))
        flat = list(chain.from_iterable(keys))
        tags = self.tags[0] if self.scalar and self.tags else self.tags
        if tags is None or flat and key_tags(flat) != tags:
            keys = [list(map(orderable, part)) for part in keys]
            distinct = distinct if tags is None else list(map(orderable, distinct))
        ranks = rank_keys([distinct, *keys])[1]
        return ranks[len(distinct):], ranks[:len(distinct)][arr.ranks]


def sorted_run(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str,
    scalar: bool = False,
) -> SortedRun:
    """Sort ``rel``'s rows globally by their key projection, paid once per
    execution.

    The relation remembers, per ``(group members, key positions, scalar)``,
    the ledger epoch (:attr:`Cluster.epoch`) in which the arrangement was
    last paid for.  In that epoch the rows are already range-partitioned on
    the key and do not move again: a later call posts nothing.  The first
    call in any other epoch — the next query on an engine that kept the
    relation, or another cluster — posts the whole pass under its own label
    (:func:`charge_pass`), so a query's ledger never depends on what ran
    before it.  The rule is the execution's, not the cache's: with caching
    disabled the pass is re-sorted every time and charged just the same.
    """
    with prim_span(
        group.cluster, "SampleSort",
        f"run {rel.name}[{','.join(key_attrs)}] {label}",
    ):
        pos = rel.positions(key_attrs)
        cache_key = (group.members, pos, bool(scalar))
        runs: dict[tuple, SortedRun] = (
            rel._substrate.setdefault("runs", {}) if _ENABLED else {}
        )
        run = runs.get(cache_key)
        if run is None:
            tags = tuple(column_kind(rel, i) for i in pos)
            # With caching disabled this is the reference path: pass no owner
            # so backends also skip their worker-local memoization.
            local = group.map_parts(
                _sort_part,
                rel.parts,
                (pos, bool(scalar)),
                owner=rel if _ENABLED else None,
            )
            raw = None not in tags
            skeys = local if raw else [list(map(orderable, k)) for k in local]
            flat, ranks = rank_keys(skeys)
            run = runs[cache_key] = SortedRun(
                scalar, tags if raw else None,
                flat if raw else list(chain.from_iterable(local)),
                flat, _arrange([len(k) for k in local], ranks),
            )
        paid: dict[tuple, int] = rel._substrate.setdefault("paid", {})
        if paid.get(cache_key) != group.cluster.epoch:
            charge_pass(group, label, run.arr)
            paid[cache_key] = group.cluster.epoch
        return run


def _sort_part(part: list, common: tuple, idx: int) -> list:
    """Per-server key projection (backend-shippable).

    ``common = (pos, scalar)`` is a pure-data descriptor, so any
    :class:`~repro.mpc.backends.Backend` can run this in a worker process.
    Returns the projected keys: bare values when ``scalar``, else tuples.
    Rows are never compared.
    """
    pos, scalar = common
    if scalar or len(pos) == 1:
        values = map(itemgetter(pos[0]), part)
        return list(values) if scalar else list(zip(values))
    return list(map(itemgetter(*pos), part)) if pos else [()] * len(part)
