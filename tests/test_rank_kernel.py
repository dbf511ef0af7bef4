"""The PSRS kernel and the search primitives on integer ranks.

Every pass ranks its keys against their sorted distinct values and sorts
the ranks, so the contract under test is that ranking loses nothing a
comparison sort would keep:

* keys that tie in ``sorted`` share a rank — ``1``/``1.0``, ``0.0``/
  ``-0.0``, equal strings that are different objects — and keys it tells
  apart (``1``/``True`` as :func:`orderable` encodings) do not;
* arrangement, splitters and ledger equal the message-per-item oracle of
  ``tests/test_psrs_kernel.py``;
* ``semi_join``, ``multi_search`` and ``search_rows`` equal a per-item
  predecessor oracle, and the cached path equals ``cache_disabled()``,
  outputs and full ledger, on homogeneous, mixed-type and bool-vs-int
  sides, with either side empty;
* ranking happens per call on the query path: registering and preparing
  the harness decks never reaches it.

NaN keys are outside the contract, as they already are in the existing
strategies: NaN is unequal to itself, so no sort orders it consistently.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation
from repro.engine import Engine
from repro.mpc import Cluster, cache_disabled, primitives, substrate
from repro.mpc.distrel import DistRelation
from repro.mpc.primitives import multi_search, search_rows, semi_join
from repro.mpc.substrate import orderable, psrs
from tests.test_psrs_kernel import oracle_pass


def check_pass(p, keys, sort_keys):
    """The kernel on ``sort_keys`` against the oracle on ``keys``."""
    cluster, ref = Cluster(p), Cluster(p)
    parts, splitters, _charges = psrs(cluster.root_group(), sort_keys, "t")
    want_parts, want_splitters = oracle_pass(ref, keys, "t")
    assert [list(zip(srcs, js)) for _ks, srcs, js in parts] == want_parts
    by_uid = {(s, j): k for s, part in enumerate(keys) for j, k in enumerate(part)}
    assert [(orderable(by_uid[uid]), uid) for _k, uid in splitters] == want_splitters
    # Sort keys and origins are the items' own, as Python objects.
    for ks, srcs, js in parts:
        assert all(k is sort_keys[s][j] for k, s, j in zip(ks, srcs, js))
        assert all(type(s) is int and type(j) is int for s, j in zip(srcs, js))
    assert all(type(s) is int and type(j) is int for _k, (s, j) in splitters)
    assert cluster.snapshot() == ref.snapshot()


def ab() -> str:
    return "".join(["a", "b"])  # equal to "ab", another object


# Values that tie in pairs: 1 / 1.0, 0.0 / -0.0, "ab" / ab().
_TIED_NUM = st.sampled_from([1, 1.0, 0.0, -0.0, 2, -1.5])
_TIED_STR = st.sampled_from(["ab", "a", ""]) | st.builds(ab)
_ANY = st.one_of(_TIED_NUM, _TIED_STR, st.booleans(), st.none())


@st.composite
def spread(draw, key):
    """``p`` parts of keys, some emptied, one key heavier than ``n/p``."""
    p = draw(st.integers(min_value=1, max_value=8))
    parts = [draw(st.lists(key, max_size=10)) for _ in range(p)]
    for part in parts:
        if draw(st.booleans()):
            part.clear()
    heavy = draw(key)
    n = sum(map(len, parts))
    for _ in range(n // p + draw(st.integers(min_value=1, max_value=5))):
        part = parts[draw(st.integers(min_value=0, max_value=p - 1))]
        part.insert(draw(st.integers(min_value=0, max_value=len(part))), heavy)
    return p, parts


@given(spread(st.tuples(_TIED_NUM, _TIED_STR)))
@settings(max_examples=120, deadline=None)
def test_raw_tuples_tie_where_sorted_ties_them(inst):
    p, keys = inst
    check_pass(p, keys, keys)


@given(spread(_TIED_NUM) | spread(st.tuples(_TIED_NUM)))
@settings(max_examples=80, deadline=None)
def test_scalar_and_one_tuple_keys(inst):
    """Bare numbers, and 1-tuples (ranked by their one value)."""
    p, keys = inst
    check_pass(p, keys, keys)


@given(spread(_ANY | st.tuples(_ANY, _ANY)))
@settings(max_examples=120, deadline=None)
def test_encodings_keep_one_and_true_apart(inst):
    p, keys = inst
    check_pass(p, keys, [[orderable(k) for k in part] for part in keys])


def test_ties_share_a_rank_and_bools_do_not():
    def ranks(keys):
        return substrate.rank_keys(keys)[1].tolist()

    assert ranks([[(1,), (0.0,), (2,)], [(1.0,), (-0.0,)]]) == [1, 0, 2, 1, 0]
    assert ranks([["ab", "a"], [ab()]]) == [1, 0, 1]
    assert ranks([[orderable(1), orderable(True), orderable(1.0)]]) == [1, 0, 1]


# ----------------------------------------------------------------------
# Search primitives against a per-item oracle and the reference path
# ----------------------------------------------------------------------

def by_key_and_uid(parts):
    """``((orderable(key), src, j), (key, value))`` for every pair, sorted."""
    return sorted(
        ((orderable(k), s, j), (k, v))
        for s, part in enumerate(parts) for j, (k, v) in enumerate(part)
    )


def oracle_predecessors(xs, ys):
    """Each X pair in global ``(key, uid)`` order with its predecessor: the
    last Y pair in ``(key, uid)`` order whose key is <= its key."""
    ys_sorted = by_key_and_uid(ys)
    out = []
    for (ok, _s, _j), (k, v) in by_key_and_uid(xs):
        below = [y for o, y in ys_sorted if o[0] <= ok]
        out.append((k, v, *(below[-1] if below else (None, None))))
    return out


def flatten(parts):
    return [t for part in parts for t in part]


_HOMOGENEOUS = st.integers(min_value=0, max_value=6)
_MIXED = st.one_of(
    st.integers(0, 3), st.sampled_from(["a", "b"]), st.none(), st.just(1.0)
)
_BOOL_INT = st.sampled_from([0, 1, True, False, 2])


@st.composite
def two_sides(draw):
    """Per-server ``(B, C)`` rows of two relations over one value pool, one
    side possibly empty."""
    values = draw(st.sampled_from([_HOMOGENEOUS, _MIXED, _BOOL_INT]))
    p = draw(st.integers(min_value=1, max_value=6))
    sides = []
    for name in ("R", "F"):
        n = draw(st.integers(min_value=0, max_value=5)) * draw(st.booleans())
        parts = [
            [(draw(values), f"{name}{s}.{j}") for j in range(draw(st.integers(0, n)))]
            for s in range(p)
        ]
        sides.append(parts)
    return p, sides[0], sides[1]


def run_both(p, call):
    """``call(group)``'s outputs, asserted equal with and without the
    substrate caches, ledger included."""
    out = []
    for ctx in (nullcontext(), cache_disabled()):
        cl = Cluster(p)
        with ctx:
            got = call(cl.root_group())
        out.append((got, cl.snapshot()))
    assert out[0] == out[1]
    return out[0][0]


@given(two_sides())
@settings(max_examples=120, deadline=None)
def test_multi_search_against_the_oracle(inst):
    p, xs, ys = inst

    def call(g):
        return multi_search(g, xs, ys, "ms")

    assert flatten(run_both(p, call)) == oracle_predecessors(xs, ys)


@given(two_sides())
@settings(max_examples=120, deadline=None)
def test_semi_join_against_the_oracle(inst):
    """A row survives iff its predecessor's key equals its own, as values."""
    p, r_parts, f_parts = inst

    def call(g):
        rel = DistRelation("R", ("B", "C"), r_parts)
        flt = DistRelation("F", ("B", "D"), f_parts)
        return semi_join(g, rel, flt, "sj").parts

    xs = [[((b,), (b, c)) for b, c in part] for part in r_parts]
    ys = [[((b,), None) for b, _d in part] for part in f_parts]
    want = [row for k, row, pk, _v in oracle_predecessors(xs, ys) if pk == k]
    assert flatten(run_both(p, call)) == want


@given(two_sides())
@settings(max_examples=120, deadline=None)
def test_search_rows_against_the_oracle(inst):
    p, r_parts, t_parts = inst
    table = [[((b,), c) for b, c in part] for part in t_parts]

    def call(g):
        rel = DistRelation("R", ("B", "C"), r_parts)
        return search_rows(g, rel, ("B",), table, "sr")

    xs = [[((b,), (b, c)) for b, c in part] for part in r_parts]
    assert flatten(run_both(p, call)) == oracle_predecessors(xs, table)


# ----------------------------------------------------------------------
# The set-up fence
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "workload", ["cold_emit", "cold_reduce", "paper_hard", "serve_churn"]
)
def test_set_up_never_ranks(monkeypatch, workload):
    """``register`` and ``prepare`` on every harness deck stay off the
    rank builder: ``setup_s`` pays for no part of a sort."""
    from tests.conformance.test_golden_plans import _decks_module

    def refuse(keys):
        raise AssertionError("ranked on the set-up path")

    deck = _decks_module().build_deck(workload, small=True)
    monkeypatch.setattr(substrate, "rank_keys", refuse)
    monkeypatch.setattr(primitives, "rank_keys", refuse)
    engine = Engine(deck.p, "serial")
    for name, (attrs, variants) in deck.relations.items():
        engine.register(Relation(name, attrs, variants[0]), name=name)
    for query in deck.queries:
        engine.prepare(query)
    # The fence is live: the first cold execute does reach it.
    with pytest.raises(AssertionError, match="set-up path"):
        engine.execute(deck.queries[0])
