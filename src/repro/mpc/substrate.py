"""The PSRS kernel every Section-2 primitive sorts with, and its caches.

Paper Section 2 reduces sum-by-key, multi-numbering, multi-search and
semi-join to one linear-load sort; :func:`psrs` is that sort, once.  The
keys of one pass are ranked against their sorted distinct values
(:func:`rank_keys`), and the pass runs on int64 ranks (:func:`arrange`):
one stable ``argsort`` of the items, concatenated in ``(src, j)`` order,
*is* the global ``(key, uid)`` order, every destination is a contiguous
slice of it between two splitters, and all three communication steps are
charged to the ledger by their per-server counts (:func:`charge_pass`).
Callers scan the resulting :class:`Arrangement` as arrays and fetch items
only when they emit.  Sample and splitter traffic scales with the data:
``min(p, ceil(n_i / p))`` samples per source (:func:`sample_count`),
``min(p, #samples)`` ranges (:func:`pick_splitters`).

* **One key rule.**  :func:`rank_keys` alone decides key order and key
  equality, for every primitive and every algorithm: the distinct raw
  keys, sorted raw, or by :func:`orderable` when Python cannot compare
  two of them.  Equal ranks are exactly Python ``==``, the equality
  :class:`~repro.data.relation.Relation` and the RAM oracle use.
* **Sorted runs, paid once per execution.**  :func:`sorted_run` runs the
  pass for a ``(relation, key)`` pair once and caches it on the relation.
  The ledger is charged for it once per execution (ledger epoch,
  :attr:`Cluster.epoch`): rows already range-partitioned on the key do not
  move again, so a repeat call in the same epoch posts nothing, and the
  first call in a later epoch posts the recorded pass in full.  The cache
  can never go stale: :class:`~repro.mpc.distrel.DistRelation` parts are
  immutable after construction and every relation-producing operation
  returns a fresh object.

:func:`cache_disabled` bypasses every cache: the bypass path re-projects
and re-sorts the raw keys each time — charged by the same once-per-epoch
rule — and is the reference the correctness tests compare against
(identical outputs *and* identical ledgers).  See DESIGN.md section 3 for
the full argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.data.relation import Row
from repro.errors import MPCError
from repro.mpc.cluster import prim_span
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.hashing import stable_hash

__all__ = [
    "orderable",
    "coordinator_for",
    "coordinator_roundtrip",
    "cache_disabled",
    "projected_keys",
    "map_keys",
    "rank_keys",
    "sample_count",
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
    """Run a block with every substrate cache bypassed (the reference path):
    keys are projected and their raw values re-sorted on every pass."""
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
    """Map a value to a type-tagged key so mixed types sort deterministically.

    One class per kind of value, numbers (``bool`` included) in one, so
    two values tie exactly where Python ``==`` does: :func:`rank_keys`'
    order for keys Python cannot compare raw.
    """
    if value is None:
        return (0,)
    if isinstance(value, (int, float)):  # bool too: True ties with 1
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    if isinstance(value, tuple):
        return (5, tuple(orderable(v) for v in value))
    raise TypeError(f"cannot order value of type {type(value).__name__}")


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
        keys = [_sort_part(part, pos, 0) for part in rel.parts]
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


def coordinator_roundtrip(
    group: Group,
    summaries: Sequence[Any],
    compute: Callable[[list[Any]], list[Any]],
    label: str,
) -> list[Any]:
    """Send one summary per server to a coordinator, compute, reply one each.

    The O(p)-unit coordinator step every boundary stitch, carry and packing
    pass shares: ``p - 1`` units under ``{label}/gather``, ``p - 1`` under
    ``{label}/reply``.
    """
    coord = coordinator_for(group, label)
    outboxes = [[(coord, (i, s))] for i, s in enumerate(summaries)]
    inboxes = group.exchange(outboxes, f"{label}/gather")
    received = sorted(inboxes[coord], key=itemgetter(0))
    replies = compute([s for _, s in received])
    if len(replies) != group.size:
        raise MPCError("coordinator must reply to every server")
    outboxes2: list[list[tuple[int, Any]]] = [[] for _ in range(group.size)]
    outboxes2[coord] = [(i, r) for i, r in enumerate(replies)]
    inboxes2 = group.exchange(outboxes2, f"{label}/reply")
    return [box[0] for box in inboxes2]


# ----------------------------------------------------------------------
# The PSRS kernel: the one linear-load sort every primitive reduces to
# ----------------------------------------------------------------------

def sample_count(n: int, p: int) -> int:
    """How many samples a sorted part of ``n`` items sends:
    ``min(p, ceil(n / p))``."""
    return min(p, -(-n // p))


def sample_indices(n: int, p: int) -> list[int]:
    """The ``s =`` :func:`sample_count` evenly spaced sample positions of a
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
    s = sample_count(n, p)
    return [(k * n) // s for k in range(s)]


def pick_splitters(flat: Sequence, p: int) -> list:
    """The ``min(p, S) - 1`` range splitters from the ``S`` gathered, sorted
    samples: ranges in proportion to samples, so a two-item sort broadcasts
    one splitter, not ``p - 1`` copies of it."""
    m = len(flat)
    q = min(p, m)
    return [flat[(k * m) // q] for k in range(1, q)]


def rank_keys(keys: Sequence[Sequence]) -> tuple[list, np.ndarray]:
    """Rank per-source sort keys against their sorted distinct values: the
    one rule for key order and key equality.

    Returns ``(flat, ranks)``: the keys concatenated in source order, and
    the int64 index of each in the sorted distinct keys, in the same order.
    The distinct keys are a ``set``, so ranks tie exactly where Python
    ``==`` does (``1``/``True``/``1.0``, ``0.0``/``-0.0``), as in
    :class:`~repro.data.relation.Relation` and the RAM oracle.  They sort
    raw; only when Python cannot compare two of them (``1`` against
    ``"x"``) do they sort by :func:`orderable`.  A raw sort that succeeds
    compared keys within one type class only, where :func:`orderable`
    orders alike, so the two sorts never disagree.  A stable sort on ranks
    is a stable sort on keys.  NaN keys are outside the contract.
    """
    flat = list(chain.from_iterable(keys))
    values = flat
    if (
        flat and type(flat[0]) is tuple
        and set(map(type, flat)) == {tuple} and set(map(len, flat)) == {1}
    ):
        # 1-tuples rank as their one value, which hashes and compares faster.
        values = list(map(itemgetter(0), flat))
    distinct = set(values)
    try:
        distinct = sorted(distinct)
    except TypeError:
        distinct = sorted(distinct, key=orderable)
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
        """Per destination, ``(keys, srcs, js)`` lists in global order,
        ``keys`` being the pass's flat keys."""
        order, srcs = self.order.tolist(), self.srcs.tolist()
        js = (self.order - self.starts[self.srcs]).tolist()
        return [
            (list(map(keys.__getitem__, order[lo:hi])), srcs[lo:hi], js[lo:hi])
            for lo, hi in self.slices()
        ]

    def splitters(self, keys: list) -> list[tuple]:
        """The at most ``p - 1`` ``(key, uid)`` range splitters."""
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
    hashable values :func:`orderable` covers, ranked by :func:`rank_keys`
    and arranged by :func:`arrange`.  Returns ``(parts, splitters, charges)``:
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

    Delivery is not a backend's to vary: :meth:`Group.exchange` delivers
    in process and only its counts reach :meth:`Cluster.tally_members`,
    so charging the counts is ledger-exact on every backend.  This is the
    only function that posts a pass: a fresh sort, a cached run first
    used in a later epoch and the cache-bypassed reference all go through
    it and cannot drift apart.
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
        keys: ``keys[f]`` is the projected key of flat row ``f``; the pass
            ranked them (:func:`rank_keys`).
        arr: The :class:`Arrangement`; the origin ``(src, j)`` ties equal
            keys apart, so heavy keys spread over servers.  Its charges let
            the first use in a later epoch bill the pass without re-sorting.
    """

    keys: list
    arr: Arrangement

    def union_ranks(self, keys: Sequence[list]) -> tuple[np.ndarray, np.ndarray]:
        """Rank outside per-source ``keys`` in one space with this run's.

        Returns the outside keys' ranks (flat, in source order) and the
        run's ranks along its order.  Of the run, only its distinct keys
        (one per rank) are ranked again.
        """
        arr = self.arr
        firsts = np.flatnonzero(np.diff(arr.ranks, prepend=-1))
        distinct = list(map(self.keys.__getitem__, arr.order[firsts].tolist()))
        ranks = rank_keys([distinct, *keys])[1]
        return ranks[len(distinct):], ranks[:len(distinct)][arr.ranks]


def sorted_run(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str,
) -> SortedRun:
    """Sort ``rel``'s rows globally by their key projection, paid once per
    execution.

    The relation remembers, per ``(group members, key positions)``,
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
        cache_key = (group.members, pos)
        runs: dict[tuple, SortedRun] = (
            rel._substrate.setdefault("runs", {}) if _ENABLED else {}
        )
        run = runs.get(cache_key)
        if run is None:
            local = map_keys(group, rel, pos)
            flat, ranks = rank_keys(local)
            run = runs[cache_key] = SortedRun(
                flat, _arrange([len(k) for k in local], ranks)
            )
        paid: dict[tuple, int] = rel._substrate.setdefault("paid", {})
        if paid.get(cache_key) != group.cluster.epoch:
            charge_pass(group, label, run.arr)
            paid[cache_key] = group.cluster.epoch
        return run


def map_keys(group: Group, rel: DistRelation, pos: Sequence[int]) -> list[list]:
    """Per-server key tuples of ``rel``'s parts, as one backend round
    (:meth:`Group.map_parts`)."""
    # With caching disabled this is the reference path: pass no owner so
    # backends also skip their worker-local memoization.
    return group.map_parts(
        _sort_part, rel.parts, tuple(pos),
        owner=rel if _ENABLED else None,
    )


def _sort_part(part: list, pos: tuple, idx: int) -> list:
    """Per-server key projection (backend-shippable).

    ``pos``, the key positions, is a pure-data descriptor, so any
    :class:`~repro.mpc.backends.Backend` can run this in a worker process.
    Returns the projected key tuples.  Rows are never compared.
    """
    if len(pos) == 1:
        return list(zip(map(itemgetter(pos[0]), part)))
    return list(map(itemgetter(*pos), part)) if pos else [()] * len(part)
