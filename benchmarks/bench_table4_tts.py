"""Table IV — achieved/projected time to solution (hours) for 1 revolution.

Regenerates the paper's headline table from the calibrated model
(monolithic vs coupled, ARCHER2 vs Cirrus vs production clusters), and
benchmarks the real mini-scale coupled-vs-monolithic pair to show the
mechanism (identical physics, different interface work placement).
"""

import numpy as np

from repro.coupler import CoupledDriver, CoupledRunConfig, MonolithicDriver
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.perf import ARCHER2, P458B, PerfModel, RunOptions
from repro.perf.machine import ARCHER1
from repro.perf.tables import power_model_table, table4_time_to_solution
from repro.util.tables import format_table


def test_report_table4(report, benchmark):
    table = table4_time_to_solution()
    text = format_table(table.headers, table.rows, title=table.caption,
                        floatfmt=".1f")
    power = power_model_table()
    text += "\n\n" + format_table(power.headers, power.rows,
                                  title=power.caption, floatfmt=".2f")

    model = PerfModel()
    headline = model.hours_per_revolution(P458B, ARCHER2, 512)
    production = model.hours_per_revolution(
        P458B, ARCHER1, 100_000 // 24, RunOptions(mode="monolithic"))
    text += (f"\n\nheadline: 1 revolution of 1-10_4.58B in {headline:.1f} h "
             f"on 512 ARCHER2 nodes\n"
             f"production baseline (ARCHER1 monolithic): "
             f"{production / 24:.1f} days -> {production / headline:.0f}x "
             f"speedup (paper: ~30x, order of magnitude)")
    report(text)

    assert headline < 6.0
    assert 20 < production / headline < 60
    benchmark.pedantic(table4_time_to_solution, rounds=3, iterations=1)


def test_mini_monolithic_vs_coupled(report, benchmark):
    """The real mechanism at mini scale: monolithic concentrates the
    interface search on a few ranks; coupled spreads it over CUs. Both
    placements serve through the same transfer engine, so the trapped
    effort is reported with its donor cache on and off."""
    def config(incremental=True):
        rig = rig250_config(nr=3, nt=16, nx=4, rows=3,
                            steps_per_revolution=64)
        return CoupledRunConfig(
            rig=rig, ranks_per_row=2, cus_per_interface=2,
            numerics=Numerics(inner_iters=3), inlet=FlowState(ux=0.5),
            p_out=1.0, partition_scheme="slabs", incremental=incremental)

    coupled = CoupledDriver(config()).run(4)
    monos = {inc: MonolithicDriver(config(inc)).run(4)
             for inc in (True, False)}

    _xc, pc = coupled.pressure_profile()
    rows = []
    for inc, mono in monos.items():
        _xm, pm = mono.pressure_profile()
        np.testing.assert_allclose(pm, pc, rtol=1e-9)
        label = "incremental on" if inc else "incremental off"
        rows += [
            [f"monolithic per-rank search comparisons ({label})",
             " ".join(str(c) for c in mono.rank_search_comparisons)],
            [f"monolithic search imbalance, max/mean ({label})",
             f"{mono.search_imbalance():.2f}"],
        ]
    rows += [
        ["coupled CU search comparisons (all CUs)",
         str(coupled.total_search_stats().comparisons)],
        ["physics identical (pressure profiles)", "yes"],
    ]
    text = format_table(
        ["metric", "value"], rows,
        title="Monolithic vs coupled at mini scale (the Table IV mechanism)",
    )
    report(text)
    for mono in monos.values():
        assert mono.search_imbalance() >= 1.5

    benchmark.pedantic(lambda: CoupledDriver(config()).run(2),
                       rounds=1, iterations=1)
