"""The PSRS kernel every Section-2 primitive sorts with, and its caches.

Paper Section 2 reduces sum-by-key, multi-numbering, multi-search and
semi-join to one linear-load sort; :func:`psrs` is that sort, once.  It
takes per-source lists of comparable *sort keys* and returns, per
destination, index arrays — sort key and origin ``(src, j)`` in global
``(key, uid)`` order — so callers allocate nothing per item until they
emit.  Local sorts are stable index sorts, routing is one bisect per
splitter and sorted source, the destination merge is a stable index sort
of the received slices, and all three communication steps are charged to
the ledger by their per-server counts (:func:`charge_pass`).  Sample and
splitter traffic scales with the data: ``min(p, ceil(n_i / p))`` samples
per source (:func:`sample_indices`), ``min(p, #samples)`` ranges
(:func:`pick_splitters`).

* **Raw keys where they order like** :func:`orderable`.  A column that is
  statically homogeneous (int/float-only or str-only; :func:`column_kind`,
  detected once per relation) stamps one constant type tag on every value,
  so projected keys over such columns compare exactly like their
  encodings and are sorted as they are (:class:`TagStamp`).  Any other
  key list is encoded first — same kernel, different key list,
  bit-identical arrangement and ledger.
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

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

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
    "projection_encoder_from_tags",
    "scalar_encoder_from_tag",
    "key_encoder",
    "projected_keys",
    "TagStamp",
    "sample_indices",
    "pick_splitters",
    "index_sort",
    "merge_slices",
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


# The orderable() type tags of the two homogeneity fast paths, and the
# exact Python types each admits (``bool`` carries its own tag).
_TAG_NUM = 2
_TAG_STR = 3
_TAG_TYPES = {_TAG_NUM: (int, float), _TAG_STR: (str,)}


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


def projection_encoder_from_tags(
    pos: tuple[int, ...], tags: Sequence[int | None]
) -> Callable[[Row], tuple]:
    """Build the row encoder from a plain ``(positions, tags)`` descriptor.

    The descriptor is picklable, so execution backends can rebuild the
    exact encoder inside a worker process (:func:`_sort_part`).
    """
    if all(t is not None for t in tags):
        if len(pos) == 1:
            i0, t0 = pos[0], tags[0]
            return lambda row: (5, ((t0, row[i0]),))
        if len(pos) == 2:
            (i0, i1), (t0, t1) = pos, tags
            return lambda row: (5, ((t0, row[i0]), (t1, row[i1])))
        pairs = tuple(zip(pos, tags))
        return lambda row: (5, tuple((t, row[i]) for i, t in pairs))
    return lambda row: (5, tuple(orderable(row[i]) for i in pos))


def scalar_encoder_from_tag(col: int, tag: int | None) -> Callable[[Row], tuple]:
    """``row -> orderable(row[col])`` from a :func:`column_kind` tag."""
    if tag is not None:
        return lambda row: (tag, row[col])
    return lambda row: orderable(row[col])


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
        if len(pos) == 1:
            i0 = pos[0]
            keys = [[(v,) for v in b.column_values(i0)] for b in blocks]
        else:
            keys = [
                list(zip(*[b.column_values(i) for i in pos])) for b in blocks
            ]
    elif len(pos) == 1:
        i0 = pos[0]
        keys = [[(row[i0],) for row in part] for part in rel.parts]
    else:
        keys = [
            [tuple(row[i] for i in pos) for row in part] for part in rel.parts
        ]
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


def index_sort(keys: list) -> list[int]:
    """Stable index sort: positions of ``keys`` in key order, ties in index
    order — which for one source's items *is* uid order."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def merge_slices(
    sorted_keys: Sequence[list], orders: Sequence[list[int]],
    cuts: Sequence[Sequence[int]],
) -> tuple[list[tuple[list, list[int], list[int]]], list[int]]:
    """Route sorted sources by cut points and merge at each destination.

    Source ``s`` sends ``sorted_keys[s][cuts[s][d]:cuts[s][d + 1]]`` to
    destination ``d``, which stable-sorts the slices concatenated in
    source order — equal keys stay in ``(src, j)`` order.  Returns the
    per-destination ``(keys, srcs, js)`` index arrays and the units each
    destination received from *other* servers (the exchange's ledger
    counts; a server's own slice never crosses the network).
    """
    p = len(sorted_keys)
    parts, received = [], []
    for d in range(p):
        ks, srcs, js = [], [], []
        for s in range(p):
            lo, hi = cuts[s][d], cuts[s][d + 1]
            if lo < hi:
                ks += sorted_keys[s][lo:hi]
                srcs += [s] * (hi - lo)
                js += orders[s][lo:hi]
        received.append(len(ks) - (cuts[d][d + 1] - cuts[d][d]))
        perm = index_sort(ks)
        parts.append((
            list(map(ks.__getitem__, perm)),
            list(map(srcs.__getitem__, perm)),
            list(map(js.__getitem__, perm)),
        ))
    return parts, received


def psrs(
    group: Group,
    keys: Sequence[list],
    label: str,
    orders: Sequence[list[int]] | None = None,
) -> tuple[list[tuple[list, list[int], list[int]]], list[tuple], tuple | None]:
    """One regular-sampling sort pass over per-source sort-key lists.

    ``keys[src][j]`` is the sort key of source ``src``'s item ``j``; any
    mutually comparable values (raw projected keys or :func:`orderable`
    encodings — the kernel never looks inside).  The global order is
    ``(key, uid)`` with ``uid = (src, j)``, so a key heavier than ``n/p``
    spreads over servers.  ``orders`` are the per-source
    :func:`index_sort` results when the caller already ran them (through
    :meth:`Group.map_parts`).

    Returns ``(parts, splitters, charges)``: ``parts[d] = (ks, srcs, js)``
    lists destination ``d``'s items in global order as parallel arrays —
    sort key and origin, so callers fetch ``source[src][j]`` only when they
    emit; ``splitters`` are the at most ``p - 1`` ``(key, uid)`` range
    bounds; ``charges`` is what :func:`charge_pass` needs besides them to
    bill the pass (``None`` on a single server, where nothing moves).

    Load: the partition bound of :func:`sample_indices` per server, plus at
    most ``n/p + p`` sample units at the coordinator.
    """
    parts, splitters, charges = _arrange(group.size, keys, orders)
    charge_pass(group, label, splitters, charges)
    return parts, splitters, charges


def _arrange(
    p: int, keys: Sequence[list], orders: Sequence[list[int]] | None
) -> tuple[list[tuple[list, list[int], list[int]]], list[tuple], tuple | None]:
    """:func:`psrs` without the ledger: where every item lands, and the
    per-server counts that moving it there costs."""
    if len(keys) != p:
        raise MPCError(f"expected {p} parts, got {len(keys)}")
    if orders is None:
        orders = [index_sort(k) for k in keys]
    sorted_keys = [list(map(k.__getitem__, o)) for k, o in zip(keys, orders)]
    if p == 1:
        return [(sorted_keys[0], [0] * len(orders[0]), orders[0])], [], None

    # Regular sampling: evenly spaced (key, uid) pivots per server, each
    # counted as one unit of communication at the coordinator.
    samples: list[tuple] = []
    sample_sizes = []
    for src, (sk, o) in enumerate(zip(sorted_keys, orders)):
        idxs = sample_indices(len(sk), p)
        samples += [(sk[i], (src, o[i])) for i in idxs]
        sample_sizes.append(len(idxs))
    samples.sort()
    splitters = pick_splitters(samples, p)

    # An item lands on the server numbered by how many splitters are <=
    # its (key, uid): one pair of bisects per splitter and sorted source.
    cuts = []
    for src, (sk, o) in enumerate(zip(sorted_keys, orders)):
        row = [0]
        for key, (s, j) in splitters:
            lo = bisect_left(sk, key)
            if src <= s:
                hi = bisect_right(sk, key, lo)
                lo = hi if src < s else bisect_left(o, j, lo, hi)
            row.append(lo)
        # Ranges past the last splitter (all of them, with no items) are empty.
        cuts.append(row + [len(sk)] * (p - len(splitters)))
    parts, received = merge_slices(sorted_keys, orders, cuts)
    return parts, splitters, (sample_sizes, received)


def charge_pass(
    group: Group, label: str, splitters: list[tuple], charges: tuple | None
) -> None:
    """Post one PSRS pass's three steps — sample gather, splitter
    broadcast, shuffle — to the ledger by their per-server counts.

    Every backend's ``exchange`` is the in-process ``deliver_local`` and
    only its counts reach :meth:`Cluster.tally_members`, so charging the
    counts is ledger-exact on every backend.  This is the only function
    that posts a pass: a fresh sort, a cached run first used in a later
    epoch and the cache-bypassed reference all go through it and cannot
    drift apart.
    """
    if charges is None:
        return
    sample_sizes, received = charges
    coord = coordinator_for(group, label)
    counts = [0] * group.size
    counts[coord] = sum(sample_sizes) - sample_sizes[coord]
    group.cluster.tally_members(group.members, counts, f"{label}/sample")
    group.broadcast(splitters, f"{label}/splitters", src=coord)
    group.cluster.tally_members(group.members, received, f"{label}/shuffle")


# ----------------------------------------------------------------------
# Sorted runs
# ----------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class SortedRun:
    """One PSRS pass over a relation's rows, keyed by one projection.

    Attributes:
        scalar: Whether keys are bare column values (True) or 1+-tuples.
        tags: The columns' homogeneity tags when every one is set — the
            run is then sorted on the raw keys — else ``None`` (sorted on
            :func:`orderable` encodings).
        keys: ``keys[src][j]`` is the projected key of ``rel.parts[src][j]``.
        splitters: The global ``(sort_key, uid)`` range splitters (at most
            ``p - 1``, :func:`pick_splitters`).
        parts: ``parts[d] = (sort_keys, srcs, js)``, destination ``d``'s
            items in global sorted order as parallel arrays; the origin
            ``(src, j)`` ties equal keys apart (heavy keys spread over
            servers) and indexes ``keys``, the relation's rows and
            caller-side payloads.

    ``_charges`` is the pass's communication profile (:func:`charge_pass`),
    so the first use in a later epoch can bill it without re-sorting.
    """

    scalar: bool
    tags: tuple[int, ...] | None
    keys: list[list]
    splitters: list[tuple]
    parts: list[tuple[list, list[int], list[int]]]
    _charges: tuple | None

    def table_keys(
        self, keys: Sequence[list]
    ) -> tuple[list[list], list[tuple], list[list]]:
        """Outside per-source ``keys`` and this run, in one key space.

        Returns ``(sort_keys, splitters, run_sort_keys_per_destination)``.
        A raw run stays raw only while every outside key carries the run's
        type tags; otherwise both sides become :func:`orderable` encodings,
        which order the run's own keys exactly as they already are.
        """
        run_keys = [part[0] for part in self.parts]
        splitters = self.splitters
        if self.tags is not None:
            kinds = [_TAG_TYPES[t] for t in self.tags]
            if self.scalar:
                fits = all(type(k) in kinds[0] for part in keys for k in part)
            else:
                fits = all(
                    type(k) is tuple and len(k) == len(kinds)
                    and all(type(v) in ts for v, ts in zip(k, kinds))
                    for part in keys for k in part
                )
            if fits:
                return keys, splitters, run_keys
            run_keys = [list(map(orderable, ks)) for ks in run_keys]
            splitters = [(orderable(k), uid) for k, uid in splitters]
        return [list(map(orderable, part)) for part in keys], splitters, run_keys


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
                (pos, tags, bool(scalar)),
                owner=rel if _ENABLED else None,
            )
            keys, skeys, orders = zip(*local)
            parts, splitters, charges = _arrange(group.size, skeys, orders)
            run = runs[cache_key] = SortedRun(
                scalar, None if None in tags else tags, list(keys),
                splitters, parts, charges,
            )
        paid: dict[tuple, int] = rel._substrate.setdefault("paid", {})
        if paid.get(cache_key) != group.cluster.epoch:
            charge_pass(group, label, run.splitters, run._charges)
            paid[cache_key] = group.cluster.epoch
        return run


def _sort_part(part: list, common: tuple, idx: int) -> tuple[list, list, list[int]]:
    """Per-server key projection + local index sort (backend-shippable).

    ``common = (pos, tags, scalar)`` is a pure-data descriptor, so any
    :class:`~repro.mpc.backends.Backend` can run this in a worker process.
    Returns ``(keys, sort_keys, order)``: the projected keys, what they are
    sorted on — the same list when every column is tagged homogeneous,
    their :func:`orderable` encodings otherwise — and the stable sorted
    positions.  Rows are never compared.
    """
    pos, tags, scalar = common
    if scalar or len(pos) == 1:
        i0 = pos[0]
        keys = [row[i0] for row in part] if scalar else [(row[i0],) for row in part]
    else:
        keys = [tuple(row[i] for i in pos) for row in part]
    if None not in tags:
        skeys = keys
    elif scalar:
        skeys = list(map(scalar_encoder_from_tag(pos[0], tags[0]), part))
    else:
        skeys = list(map(projection_encoder_from_tags(pos, tags), part))
    return keys, skeys, index_sort(skeys)
