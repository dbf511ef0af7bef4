"""A stub the benchmark harness's span table resolves; nothing calls it."""

from __future__ import annotations

from typing import Any

__all__ = ["Executor"]


# Read by benchmarks/harness/spans.py (the plan.replay span target).
class Executor:
    def replay(self, *_args: Any, **_kwargs: Any) -> None:
        raise NotImplementedError("plans are not replayed; see Engine.explain")
