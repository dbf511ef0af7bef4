"""The four workload decks: base relations, query texts, schedules.

A deck is data plus queries, nothing timed.  The data comes from the
library's generators at generator seeds frozen here, and does not depend
on ``--seed``: ``load_L`` and ``optimality_gap`` are gated exactly, and the
simulated load moves with every value and even with row order (shuffling
the rows of these decks moved ``load_L`` by 0.5-4 %).  ``--seed`` draws the
*schedule*: the order of the queries within each cold pass, and the order
of query shapes between ``serve_churn``'s swaps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.data import (
    add_dangling,
    embed_line3,
    line3_random_hard,
    matching_instance,
    random_instance,
    rhier_extremal,
    yannakakis_trap_doubled,
)
from repro.data.seeds import rng_for
from repro.engine import parse_query
from repro.query import catalog

#: Open-loop arrival rate of ``serve_churn`` (requests per second) and the
#: share of arrivals preceded by a relation swap.
SERVE_RATE = 25.0
SWAP_SHARE = 0.03
#: Requests per epoch (one swap each), and per rotation: three epochs swap
#: each of the three relations once (the unit a traced run replays).
EPOCH = round(1 / SWAP_SHARE)
ROTATION = 3 * EPOCH

Rows = list[tuple[str, ...]]


@dataclass
class Deck:
    """One workload's inputs.

    ``relations[name]`` is ``(attrs, variants)``; cold decks have one
    variant per relation, ``serve_churn`` two (the rows a swap alternates
    between).  ``full_joins`` are the queries ``optimality_gap`` ranges
    over; ``reads[query]`` names the relations a query's body binds.
    """

    name: str
    p: int
    relations: dict[str, tuple[tuple[str, ...], list[Rows]]]
    queries: tuple[str, ...]
    open_loop: bool = False
    full_joins: tuple[str, ...] = field(default=())
    reads: dict[str, list[str]] = field(default_factory=dict)

    def cell(self, query: str, current: dict[str, int]) -> str:
        """Key of the (query, variants of the relations it reads) cell."""
        variants = "".join(str(current[r]) for r in self.reads[query])
        return f"{self.queries.index(query)}:{variants}"


def _rename(instance, prefix: str) -> dict[str, tuple[tuple[str, ...], list[Rows]]]:
    """Instance relations keyed ``<prefix><i>`` in edge-name order, one variant."""
    out = {}
    for i, name in enumerate(sorted(instance.relations), 1):
        rel = instance.relations[name]
        out[f"{prefix}{i}"] = (rel.attrs, [[tuple(map(str, r)) for r in rel.rows]])
    return out


def _atoms(rels: dict, names: list[str]) -> str:
    return ", ".join(f"{n}({','.join(rels[n][0])})" for n in names)


def _head(rels: dict, names: list[str]) -> str:
    return ",".join(sorted({a for n in names for a in rels[n][0]}))


def _join(rels: dict, names: list[str]) -> str:
    return f"Q({_head(rels, names)}) :- {_atoms(rels, names)}"


def _count(rels: dict, names: list[str], by: str = "") -> str:
    return f"Q({by}; count) :- {_atoms(rels, names)}"


def _cold_emit(small: bool):
    # Join attributes get small domains (degree ~7 on the fork, ~40 on the
    # binary join), the others large ones, so OUT is ~100x and ~20x IN.
    n, k, bn, bk = (40, 8, 60, 5) if small else (270, 38, 500, 12)
    wide = 10 * max(n, bn)
    fork_dom = {"A": wide, "B": k, "C": k, "D": wide, "E": wide}
    rels = _rename(random_instance(catalog.fork_join(), n, fork_dom, seed=17), "F")
    rels.update(_rename(random_instance(
        catalog.binary_join(), bn, {"A": wide, "B": bk, "C": wide}, seed=7
    ), "S"))
    fork = ["F1", "F2", "F3", "F4"]
    joins = (
        _join(rels, fork),
        _join(rels, ["S1", "S2"]),
        _join(rels, fork[:3]),
        _join(rels, fork[1:]),
    )
    return 8, rels, joins + (_count(rels, fork),), joins


def _cold_reduce(small: bool):
    n, dom, dangle, m, qn, qdom = (
        (40, 20, 80, 40, 40, 14) if small else (600, 360, 1350, 950, 800, 270)
    )
    line = add_dangling(random_instance(catalog.line3(), n, dom, seed=3), dangle, seed=5)
    rels = _rename(line, "L")
    rels.update(_rename(matching_instance(catalog.star_join(3), m), "T"))
    rels.update(_rename(
        random_instance(
            catalog.q2_r_hierarchical(), qn,
            {"x1": qdom, "x2": 10 * qn, "x3": 6, "x4": 10 * qn, "x5": 6}, seed=11,
        ), "H"
    ))
    line3 = ["L1", "L2", "L3"]
    joins = (
        _join(rels, line3),
        _join(rels, ["T1", "T2", "T3"]),
        _join(rels, ["H1", "H2", "H3", "H4", "H5"]),
    )
    return 8, rels, joins + (_count(rels, line3, "B"), _count(rels, line3)), joins


def _paper_hard(small: bool):
    n = 72 if small else 1250
    rels = _rename(line3_random_hard(n, 8 * n, seed=1), "H")
    rels.update(_rename(yannakakis_trap_doubled(n, 4 * n), "Y"))
    rels.update(_rename(embed_line3(catalog.broom_join(), n, 4 * n, seed=2), "B"))
    rels.update(_rename(rhier_extremal(catalog.star_join(3), n // 3, 6 * n), "E"))
    hard = ["H1", "H2", "H3"]
    joins = (
        _join(rels, hard),
        _join(rels, ["Y1", "Y2", "Y3"]),
        _join(rels, [f"B{i}" for i in range(1, 8)]),
        _join(rels, ["E1", "E2", "E3"]),
    )
    return 16, rels, joins + (_count(rels, hard),), joins


def _serve_churn(small: bool):
    n, dom = (60, 15) if small else (400, 200)
    a = _rename(random_instance(catalog.line3(), n, dom, seed=21), "R")
    b = _rename(random_instance(catalog.line3(), n, dom, seed=22), "R")
    rels = {k: (a[k][0], a[k][1] + b[k][1]) for k in a}
    # The five examples/serve_workload/queries.txt shapes.
    queries = (
        "Q(A,B,C) :- R1(A,B), R2(B,C)",
        "Q(B,C,D) :- R2(B,C), R3(C,D)",
        "Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)",
        "Q(A; count) :- R1(A,B), R2(B,C)",
        "Q(; count) :- R1(A,B), R2(B,C), R3(C,D)",
    )
    return 8, rels, queries, queries[:3]


_BUILDERS = {
    "cold_emit": _cold_emit,
    "cold_reduce": _cold_reduce,
    "paper_hard": _paper_hard,
    "serve_churn": _serve_churn,
}


def build_deck(workload: str, small: bool = False) -> Deck:
    """The deck for ``workload`` (``small`` = smoke sizes)."""
    p, rels, queries, full_joins = _BUILDERS[workload](small)
    return Deck(
        name=workload,
        p=p,
        relations=rels,
        queries=tuple(queries),
        open_loop=workload == "serve_churn",
        full_joins=tuple(full_joins),
        reads={q: sorted({b.relation for b in parse_query(q).bindings}) for q in queries},
    )


@dataclass
class Request:
    due: float | None          # seconds after the pass starts; None = closed loop
    query: str
    swap: tuple[str, int] | None   # (relation, variant) registered first


def closed_schedule(deck: Deck, seed: int, passes: int) -> list[list[Request]]:
    """``passes`` cold-deck passes: every distinct query once, one client,
    in an order drawn per pass from ``seed``."""
    rng: random.Random = rng_for(seed, "closed_schedule", deck.name)
    return [
        [Request(due=None, query=q, swap=None) for q in rng.sample(deck.queries, len(deck.queries))]
        for _ in range(passes)
    ]


def serve_schedule(deck: Deck, seed: int, total: int) -> list[Request]:
    """The open-loop schedule: ``total`` Poisson arrivals at ``SERVE_RATE``.

    The arrival times come from one frozen generator seed; ``seed`` draws
    which shape each arrival asks for.  Which arrivals bunch up decides how
    deep the queue behind each cold request gets: redrawing the times per
    seed spread the p95 latency of ten seeds by 21 %, the shapes alone by 3 %.

    The composition is fixed too: the schedule is cut into epochs of
    ``1 / SWAP_SHARE`` requests, each epoch opens with a swap (relations
    round-robin, variants alternating) and holds every query shape equally
    often in a drawn order.  Every shape reading the swapped relation
    therefore runs cold exactly once per epoch (about 13 % of requests),
    whatever the seed.
    """
    arrivals: random.Random = rng_for(0, "serve_arrivals")
    rng: random.Random = rng_for(seed, "serve_shapes")
    epoch = EPOCH
    names = sorted(deck.relations)
    current = {n: 0 for n in names}
    out: list[Request] = []
    t = 0.0
    for i in range(total):
        if i % epoch == 0:
            span = min(epoch, total - i)
            shapes = [deck.queries[j % len(deck.queries)] for j in range(span)]
            rng.shuffle(shapes)
            rel = names[(i // epoch) % len(names)]
            current[rel] ^= 1
            swap = (rel, current[rel])
        else:
            swap = None
        t += arrivals.expovariate(SERVE_RATE)
        out.append(Request(due=t, query=shapes[i % epoch], swap=swap))
    return out
