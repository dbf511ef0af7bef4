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
  encodings and are ranked as they are.  Column type tags are the one
  statement of this: :func:`column_tags` reads them for the sides a key
  comes from, and :func:`sort_keys` takes them (for keys with no relation
  behind them, it scans the keys' own tags).  Any other key list is
  encoded first — same ranks, bit-identical arrangement and ledger.
* **Sorted runs, paid once per execution.**  :func:`sorted_run` runs the
  pass for a ``(relation, key)`` pair once and caches it on the relation.
  The ledger is charged for it once per execution (ledger epoch,
  :attr:`Cluster.epoch`): rows already range-partitioned on the key do not
  move again, so a repeat call in the same epoch posts nothing, and the
  first call in a later epoch posts the recorded pass in full.  The cache
  can never go stale: :class:`~repro.mpc.distrel.DistRelation` parts are
  immutable after construction and every relation-producing operation
  returns a fresh object.

:func:`cache_disabled` bypasses every cache *and* the homogeneity tags:
the bypass path re-sorts :func:`orderable` encodings each time — charged
by the same once-per-epoch rule — and is the reference the correctness
tests compare against (identical outputs *and* identical ledgers).  See
DESIGN.md section 3 for the full argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Iterator, Sequence

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
    "cache_disabled",
    "column_kind",
    "column_tags",
    "key_tags",
    "sort_keys",
    "projected_keys",
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


def column_kind(rel: DistRelation, col: int) -> int | None:
    """Statically detect a homogeneous column; cached once per relation.

    Returns the :func:`orderable` type tag (``2`` for int/float, ``3`` for
    str) when *every* value in the column has exactly that Python type
    (``bool`` — an ``int`` subclass with a different tag — disqualifies),
    else ``None``.  With caching disabled no scan happens and ``None`` is
    returned, which ranks every key on its :func:`orderable` encoding.

    A row-backed relation (every base relation) answers with one C-speed
    type-set scan of the column.  A column-backed one reads the columns'
    order tags, known since they were encoded; a dictionary column reports
    homogeneity of its *dictionary* — a superset of the part's values
    after a ``take`` — so the tag can only be conservative (``None`` where
    a scan might find homogeneity), never falsely homogeneous; ranks are
    bit-identical either way.
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


def column_tags(
    *sides: tuple[DistRelation, Sequence[int]],
) -> tuple[int, ...] | None:
    """The :func:`column_kind` tags that keys projected from every
    ``(rel, pos)`` side share, position by position.

    Keys with one constant type tag per position compare exactly like
    their :func:`orderable` encodings — ``(5, ((t0, a), (t1, b)))`` orders
    as ``(a, b)`` once ``t0``/``t1`` are fixed — so a sort may rank keys
    from any side raw.  ``None`` when some position has no tag (always,
    with caching disabled) or two sides disagree.
    """
    shared = {tuple(column_kind(rel, i) for i in pos) for rel, pos in sides}
    if len(shared) != 1:
        return None
    tags = shared.pop()
    return None if None in tags else tags


def sort_keys(keys: Sequence[list], tags: tuple[int, ...] | None) -> Sequence[list]:
    """What a generic primitive ranks per-source ``keys`` on.

    The keys themselves when they order exactly like their
    :func:`orderable` encodings: ``tags`` (:func:`column_tags`) says so for
    keys projected from homogeneous columns, and without tags one
    :func:`key_tags` scan over every source decides (the cache-bypassed
    reference never scans).  Otherwise their :func:`orderable` encodings.
    """
    if tags is not None or (
        _ENABLED and key_tags(list(chain.from_iterable(keys))) is not None
    ):
        return keys
    return [list(map(orderable, part)) for part in keys]


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
            tags = column_tags((rel, pos))
            # With caching disabled this is the reference path: pass no owner
            # so backends also skip their worker-local memoization.
            local = group.map_parts(
                _sort_part,
                rel.parts,
                (pos, bool(scalar)),
                owner=rel if _ENABLED else None,
            )
            raw = tags is not None
            skeys = local if raw else [list(map(orderable, k)) for k in local]
            flat, ranks = rank_keys(skeys)
            run = runs[cache_key] = SortedRun(
                scalar, tags,
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
