"""The benchmark's span targets still resolve against ``src/``.

``benchmarks/harness/spans.py`` rebinds layer callables *by name* for
``--trace 1``; it lives in a directory PRs that claim a gain may not edit,
so a rename under ``src/`` would surface only as an ``AttributeError``
inside a traced benchmark run.  This resolves every entry of
``spans.TARGETS`` the way ``spans.install`` does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "harness" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("harness_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_target_resolves_as_install_resolves_it(name):
    modname, dotted, _units = spans.TARGETS[name]
    module = importlib.import_module(modname)
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        raw = getattr(module, cls_name).__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        fn = getattr(module, dotted)
    assert callable(fn), f"{name}: {modname}.{dotted} is not callable"


def test_install_and_uninstall_round_trip():
    """The real ``install`` runs against this checkout and restores it."""
    from repro.core import common
    from repro.data.columns import ColumnBlock

    before = (common.local_hash_join, common.align_to_schema, ColumnBlock.__dict__["from_rows"])
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        assert common.align_to_schema is not before[1]
        block = ColumnBlock.from_rows([(1, 2)], 2)
        assert common.align_to_schema(block, ("A", "B"), ("B", "A")).rows() == [(2, 1)]
    finally:
        uninstall()
    after = (common.local_hash_join, common.align_to_schema, ColumnBlock.__dict__["from_rows"])
    assert after == before
    assert {s[spans.NAME] for s in rec.spans} >= {"core.align_to_schema", "columns.from_rows"}
