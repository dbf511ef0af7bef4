"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.engine.session import BatchReport, Engine, EngineStats
from repro.mpc import Cluster, distribute_instance
from repro.query import catalog
from repro.ram.yannakakis import yannakakis


@pytest.fixture
def line3_query():
    return catalog.line3()


@pytest.fixture
def star3_query():
    return catalog.star_join(3)


@pytest.fixture
def triangle_query():
    return catalog.triangle()


def oracle_rows(instance: Instance) -> set:
    """Full join results per the RAM Yannakakis oracle (canonical order)."""
    return set(yannakakis(instance).rows)


def run_mpc(instance: Instance, algorithm_fn, p: int = 8, **kwargs):
    """Distribute an instance, run an algorithm function, return (rows, report).

    ``algorithm_fn(group, query, rels, **kwargs)`` must return a
    DistRelation.
    """
    cluster = Cluster(p)
    group = cluster.root_group()
    rels = distribute_instance(instance, group)
    result = algorithm_fn(group, instance.query, rels, **kwargs)
    return set(result.all_rows()), cluster.snapshot()


def assert_matches_oracle(instance: Instance, algorithm_fn, p: int = 8, **kwargs):
    """Run the algorithm and compare its emitted rows with the oracle."""
    got, report = run_mpc(instance, algorithm_fn, p=p, **kwargs)
    expected = oracle_rows(instance)
    assert got == expected, (
        f"result mismatch: {len(got)} vs {len(expected)} rows; "
        f"missing={sorted(expected - got)[:3]} extra={sorted(got - expected)[:3]}"
    )
    return report


def deck_strings(instance: Instance) -> Instance:
    """The instance as the benchmark decks hold it: every value a ``str``
    (what a CSV read yields), so columns are dictionary-encoded."""
    return Instance(instance.query, {
        name: Relation(name, rel.attrs, [tuple(map(str, r)) for r in rel.rows])
        for name, rel in instance.relations.items()
    })


def part_digest(instance: Instance, algorithm_fn, p: int = 8, **kwargs) -> str:
    """Digest of an algorithm's output *per part, in emission order*.

    Row lists, not sets: pinned against the digests of the last
    row-emitting commit, this is the emission-order contract of
    ``repro.core.common`` (and what keeps ``golden_ledgers.json`` still).
    """
    cluster = Cluster(p)
    group = cluster.root_group()
    rels = distribute_instance(instance, group)
    result = algorithm_fn(group, instance.query, rels, **kwargs)
    return hashlib.sha256(repr((result.attrs, result.parts)).encode()).hexdigest()[:16]


def threaded_batch(engine: Engine, queries: list[str], threads: int) -> BatchReport:
    """The queries as concurrent ``Engine.execute`` calls from ``threads``
    submitter threads, gathered like a batch (results in query order)."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(engine.execute, queries))
    stats = EngineStats(p=engine.p, backend=engine.backend_name)
    for res in results:
        stats.record(res.metrics)
    return BatchReport(results=results, stats=stats)
