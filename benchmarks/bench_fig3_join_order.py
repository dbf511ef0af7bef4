"""EXP-F3 — Figure 3 / Section 4.1: join order matters in MPC.

On the directional trap the plan shuffling the OUT-sized intermediate pays
~OUT/p while the other stays near-linear; on the doubled trap *no* order
is good, and the Section 4.2 decomposition beats both.
"""

from __future__ import annotations

import pytest

from _common import print_table
from repro.core.runner import mpc_join
from repro.data.generators import line_trap_instance

P = 8
IN_SIZE = 3000
OUT_SIZE = 120000

FWD_PLAN = ("R1", "R2", "R3")  # (R1 x R2) x R3
BWD_PLAN = ("R2", "R3", "R1")  # (R2 x R3) x R1


def _measure(instance):
    out = {}
    for name, plan in (("(R1*R2)*R3", FWD_PLAN), ("(R2*R3)*R1", BWD_PLAN)):
        res = mpc_join(instance.query, instance, p=P, algorithm="yannakakis", plan=plan)
        out[name] = res.report.load
    res = mpc_join(instance.query, instance, p=P, algorithm="line3")
    out["line3 (Sec 4.2)"] = res.report.load
    return out


@pytest.mark.benchmark(group="fig3")
def test_fig3_directional_trap(benchmark):
    inst = line_trap_instance(3, IN_SIZE, OUT_SIZE, direction="forward")
    loads = benchmark.pedantic(_measure, args=(inst,), rounds=1, iterations=1)
    print_table(
        f"Figure 3 (top): forward trap, IN={inst.input_size}, OUT={inst.output_size()}",
        ["plan", "load"],
        [[k, v] for k, v in loads.items()],
    )
    # The bad order shuffles the OUT-sized intermediate.
    assert loads["(R1*R2)*R3"] > 2 * loads["(R2*R3)*R1"]


@pytest.mark.benchmark(group="fig3")
def test_fig3_doubled_trap(benchmark):
    inst = line_trap_instance(3, IN_SIZE, OUT_SIZE // 2, doubled=True)
    loads = benchmark.pedantic(_measure, args=(inst,), rounds=1, iterations=1)
    print_table(
        f"Figure 3 (full): doubled trap, IN={inst.input_size}, OUT={inst.output_size()}",
        ["plan", "load"],
        [[k, v] for k, v in loads.items()],
    )
    # No single order wins; the heavy/light decomposition beats both.
    both = [loads["(R1*R2)*R3"], loads["(R2*R3)*R1"]]
    assert loads["line3 (Sec 4.2)"] < min(both)
    assert min(both) > 0.5 * (inst.output_size() / P)
