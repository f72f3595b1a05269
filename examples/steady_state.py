"""Steady RANS mode + per-kernel timing: Hydra's other operating point.

The paper notes Hydra solves "the compressible Reynolds Averaged
Navier-Stokes equations in their steady or unsteady formulation". This
example runs the *steady* mode on a single bladed row — pseudo-time
marching the residual to convergence — under telemetry tracing, then
prints the convergence history and the per-kernel cost table computed
from the par_loop spans (which shows the edge-flux loop dominating, as
in any real FV solver).

Run:  python examples/steady_state.py
"""

import numpy as np

from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.hydra.monitors import RunMonitor
from repro.hydra.turbulence import TurbulenceModel
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2.distribute import build_serial_problem
from repro.telemetry import tracing
from repro.util.ascii_plot import render_series
from repro.util.tables import format_table


def main() -> None:
    cfg = RowConfig(name="igv", kind=RowKind.IGV, nr=4, nt=24, nx=6,
                    turning_velocity=0.12, work_coeff=0.02,
                    wake_amplitude=0.2, blade_count=12)
    mesh = make_row_mesh(cfg)
    inflow = FlowState(ux=0.5)
    local = build_serial_problem(row_problem(mesh, inflow))
    solver = HydraSolver(local, cfg, Numerics(inner_iters=1),
                         dt_outer=0.05, inlet=inflow, p_out=1.0)
    turb = TurbulenceModel(solver)

    with tracing() as rec:
        history = solver.solve_steady(iters=300, check_every=20, tol=1e-6)
        turb.advance()

    iters = np.arange(1, len(history) + 1) * 20
    print(render_series(iters, np.log10(np.array(history)),
                        title="steady-state convergence: log10(residual) "
                              "vs pseudo-iteration"))
    print(f"\nresidual fell {history[0] / history[-1]:.1f}x over "
          f"{iters[-1]} pseudo-iterations")

    prim = solver.primitives()
    print(f"converged field: mean swirl {prim['uy'].mean():+.4f} "
          f"(IGV pre-swirl target {cfg.turning_velocity:+.4f}), "
          f"Mach {prim['mach'].mean():.3f}")
    print(f"SA working variable norm: {turb.norm():.3e}")

    print("\nwhere the time went (OP2 per-kernel spans):")
    stats = sorted(rec.loop_stats.items(),
                   key=lambda kv: kv[1].total_seconds, reverse=True)
    total = sum(st.total_seconds for _name, st in stats)
    print(format_table(
        ["kernel", "calls", "elements", "compute ms", "halo ms", "%"],
        [[name, st.calls, st.elements, st.compute_seconds * 1e3,
          st.halo_seconds * 1e3, 100.0 * st.total_seconds / total]
         for name, st in stats[:8]],
        floatfmt=".2f"))


if __name__ == "__main__":
    main()
