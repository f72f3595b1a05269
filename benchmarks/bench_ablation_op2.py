"""Ablation — OP2 backend comparison and plan quality.

Design-choice benchmarks called out in DESIGN.md: how the generated
parallelizations compare on the solver's hot loop (the edge flux), and
what the coloring plans look like on a real row mesh.
"""

import numpy as np
import pytest

from repro import op2
from repro.hydra import FlowState, row_problem
from repro.hydra.kernels import KERNELS
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2.distribute import build_serial_problem
from repro.op2.plan import build_block_plan, build_plan
from repro.util.tables import format_table


@pytest.fixture(scope="module")
def flux_loop():
    cfg = RowConfig(name="bench", kind=RowKind.STATOR, nr=6, nt=48, nx=8)
    mesh = make_row_mesh(cfg)
    local = build_serial_problem(row_problem(mesh, FlowState(ux=0.5)))
    gam = op2.Global(1, 1.4, "gam")

    def run(backend):
        op2.par_loop(
            KERNELS["flux_edge"], local.sets["edges"],
            local.dats["q"].arg(op2.READ, local.maps["pedge"], 0),
            local.dats["q"].arg(op2.READ, local.maps["pedge"], 1),
            local.dats["edgew"].arg(op2.READ),
            local.dats["res"].arg(op2.INC, local.maps["pedge"], 0),
            local.dats["res"].arg(op2.INC, local.maps["pedge"], 1),
            gam.arg(op2.READ), backend=backend)

    return run, local, mesh


@pytest.mark.parametrize("backend", ["sequential", "vectorized", "native"])
def test_flux_loop_backend(benchmark, flux_loop, backend):
    run, local, mesh = flux_loop
    run(backend)  # warm the codegen cache
    rounds = 1 if backend == "sequential" else 5
    benchmark.pedantic(run, args=(backend,), rounds=rounds, iterations=1)
    benchmark.extra_info["edges"] = mesh.n_edges


def test_report_plan_quality(report, flux_loop, benchmark):
    run, local, mesh = flux_loop
    args = [
        local.dats["res"].arg(op2.INC, local.maps["pedge"], 0),
        local.dats["res"].arg(op2.INC, local.maps["pedge"], 1),
    ]
    plan = build_plan(args, local.sets["edges"].size)
    rows = [["element coloring", plan.ncolors,
             min(len(g) for g in plan.color_groups),
             max(len(g) for g in plan.color_groups)]]
    for bs in (64, 256, 1024):
        bp = build_block_plan(args, local.sets["edges"].size, block_size=bs)
        sizes = np.bincount(bp.block_colors)
        rows.append([f"block coloring (bs={bs})", bp.ncolors,
                     int(sizes.min()), int(sizes.max())])
    report(format_table(
        ["plan", "colors", "smallest group", "largest group"], rows,
        title=f"OP2 plan quality on a {mesh.n_edges}-edge row mesh"))
    assert plan.ncolors <= 8  # structured mesh: small chromatic number
    benchmark.pedantic(build_plan, args=(args, local.sets["edges"].size),
                       rounds=1, iterations=1)


def test_codegen_compile_cost(benchmark):
    """One-off cost of generating + compiling a vectorized wrapper."""
    from repro.op2.codegen.seq import compile_wrapper
    from repro.op2.codegen.vector import generate_vectorized

    sig = (
        ("dat", op2.READ, "idx", 5, 2), ("dat", op2.READ, "idx", 5, 2),
        ("dat", op2.READ, "direct", 3, 0),
        ("dat", op2.INC, "idx", 5, 2), ("dat", op2.INC, "idx", 5, 2),
        ("gbl", op2.READ, 1),
    )

    def generate():
        src = generate_vectorized(KERNELS["flux_edge"], sig, "atomic")
        return compile_wrapper(src, "flux_edge")

    benchmark(generate)
