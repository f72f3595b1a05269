"""The atomic vectorized wrapper: bitwise its allocation-form oracle.

The production wrapper reads direct arguments as views, stages
indirect ones in the per-rank arena, scatters through cached flat
indices and turns component loops into row operations. Every kernel
the hydra, airfoil and FEM solvers run must give, on random data, the
bits of the allocation-form wrapper in ``tests/oracles/vector_alloc.py``
— over a whole iteration set and over an exec-halo sub-range
``[size, exec_size)`` — and a steady-state call must allocate no
staging block.
"""

import functools
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import op2
from repro.apps.airfoil import AirfoilApp, make_airfoil_mesh
from repro.apps.fem import PoissonApp, make_unit_square
from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.hydra.kernels import KERNELS
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2 import parloop
from repro.op2.backends.vectorized import (ARENA, _cached_scatter_index,
                                          scatter_index)
from repro.op2.codegen.seq import compile_wrapper
from repro.op2.codegen.vector import generate_vectorized
from repro.op2.distribute import build_serial_problem
from tests.oracles.vector_alloc import generate_vectorized_alloc

AIRFOIL = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"]
FEM = ["stiffness", "diag", "load", "jacobi", "resnorm"]

#: the random iteration set: owned elements, owned + exec halo
SIZE, EXEC_SIZE = 37, 49
#: target-set size of every random map (smaller than SIZE: conflicts)
NTARGET = 23

LOOP = re.compile(r"^\s*for ", re.MULTILINE)


def scatter_all(xs, acc):
    for j in range(3):
        for d in range(2):
            acc[j][d] += xs[0] * (j + 1) + d


def normalize(x):
    for i in range(3):
        x[i] = x[i] / x[0]


def shifted_range(x, f, y):
    a = f[0] * 2.0
    for i in range(1, 4):
        y[i] = x[i] * a + min(x[i], a)


def global_row(r, q, qinf):
    for i in range(4):
        q[i] = qinf[i] - r[i] if r[0] > 1.0 else -r[i]


def row_reduction(x, acc):
    for i in range(2):
        acc[i] += x[i] * x[0]


def mixed_local(x, y):
    t = 0.0
    t = x[0]
    for i in range(3):
        y[i] = t


def leaked_index(x, y):
    for i in range(3):
        y[i] = x[i]
    y[0] = x[i]


def vector_component(xs, y):
    for i in range(2):
        y[i] = xs[1][i] + xs[0, i]


def transcendental(x, y):
    for i in range(3):
        y[i] = exp(x[i])  # noqa: F821


def written_then_read_elsewhere(x, y):
    for i in range(3):
        y[i] = x[i]
        x[i] = y[0]


#: (kernel, signature, becomes row operations)
EDGE_KERNELS = {
    "shifted_range": (shifted_range,
                      (("dat", op2.READ, "idx", 4, 2), ("gbl", op2.READ, 1),
                       ("dat", op2.INC, "idx", 4, 2)), True),
    "global_row": (global_row, (("dat", op2.READ, "direct", 4, 0),
                                ("dat", op2.WRITE, "direct", 4, 0),
                                ("gbl", op2.READ, 4)), True),
    "row_reduction": (row_reduction, (("dat", op2.READ, "direct", 2, 0),
                                      ("gbl", op2.INC, 2)), True),
    "mixed_local": (mixed_local, (("dat", op2.READ, "direct", 3, 0),
                                  ("dat", op2.WRITE, "idx", 3, 2)), False),
    "leaked_index": (leaked_index, (("dat", op2.READ, "direct", 3, 0),
                                    ("dat", op2.WRITE, "direct", 3, 0)),
                     False),
    "vector_component": (vector_component,
                         (("dat", op2.READ, "all", 2, 3),
                          ("dat", op2.WRITE, "direct", 2, 0)), False),
    "transcendental": (transcendental, (("dat", op2.READ, "direct", 3, 0),
                                        ("dat", op2.WRITE, "direct", 3, 0)),
                       False),
    "written_then_read_elsewhere": (
        written_then_read_elsewhere, (("dat", op2.RW, "direct", 3, 0),
                                      ("dat", op2.INC, "idx", 3, 2)), False),
}


def _solver_loops() -> None:
    cfg = RowConfig(name="rotor", kind=RowKind.ROTOR, nr=3, nt=12, nx=5,
                    turning_velocity=0.2, work_coeff=0.1)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    local = build_serial_problem(row_problem(make_row_mesh(cfg), inflow))
    solver = HydraSolver(local, cfg, Numerics(inner_iters=1, smooth_eps=0.2),
                         dt_outer=0.05, inlet=inflow, p_out=1.0)
    solver.run(1)
    solver.residual_norm()
    solver.mass_flow("inlet")
    solver.mean_total_pressure()
    AirfoilApp(make_airfoil_mesh(ni=8, nj=4)).iterate(1)
    PoissonApp(make_unit_square(5)).iterate(1)


@functools.cache
def captured_loops() -> dict[str, tuple]:
    """``kernel name -> (kernel, signature)`` of every loop the three
    solvers run."""
    seen: dict[str, tuple] = {}
    real = parloop.execute_loop

    def record(loop, backend_name):
        seen.setdefault(loop.kernel.name, (loop.kernel, loop.signature()))
        real(loop, backend_name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parloop, "execute_loop", record)
        _solver_loops()
    seen["scatter_all"] = (op2.Kernel(scatter_all),
                           (("dat", op2.READ, "direct", 1, 0),
                            ("dat", op2.INC, "all", 2, 3)))
    return seen


def random_bindings(signature, rng):
    """Random ``flatten_bindings``-style arrays for ``signature``, and
    the ``(map position, dim)`` of every indirect increment."""
    flat, increments = [], []
    for i, sig in enumerate(signature):
        if sig[0] == "gbl":
            _, access, dim = sig
            flat.append(rng.uniform(1.1, 1.6, dim) if access is op2.READ
                        else np.full(dim, {op2.INC: 0.0, op2.MIN: np.inf,
                                           op2.MAX: -np.inf}[access]))
            continue
        _, access, addressing, dim, arity = sig
        rows = EXEC_SIZE if addressing == "direct" else NTARGET
        flat.append(rng.uniform(0.5, 2.0, (rows, dim)))
        if addressing == "direct":
            continue
        table = rng.integers(0, NTARGET, (EXEC_SIZE, arity))
        table.setflags(write=False)
        flat.append(table if addressing == "all" else table[:, i % arity])
        if access is op2.INC:
            increments.append((len(flat) - 1, dim))
    return flat, increments


@pytest.mark.parametrize("extent", ["full", "exec_halo"])
@pytest.mark.parametrize("name", [*KERNELS, *AIRFOIL, *FEM, "scatter_all"])
def test_atomic_wrapper_is_bitwise_the_alloc_form(name, extent):
    kernel, signature = captured_loops()[name]
    start, end = (0, SIZE) if extent == "full" else (SIZE, EXEC_SIZE)
    new = compile_wrapper(generate_vectorized(kernel, signature),
                          name)
    old = compile_wrapper(generate_vectorized_alloc(kernel, signature), name)
    rng = np.random.default_rng(sum(map(ord, name)))
    flat, increments = random_bindings(signature, rng)
    want = [a.copy() for a in flat]
    for buf in ARENA.buffers:  # stale slot contents must not leak in
        buf.fill(0xFF)
    scatter = [scatter_index(flat[pos][start:end], dim)
               for pos, dim in increments]
    with np.errstate(all="ignore"):
        new(np, ARENA.slot, start, end, *flat, *scatter)
        old(np, np.arange(start, end), *want)
    for got, ref in zip(flat, want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("extent", ["full", "exec_halo"])
@pytest.mark.parametrize("name", sorted(EDGE_KERNELS))
def test_batching_rule_edge_cases_are_bitwise_the_alloc_form(name, extent):
    fn, signature, batched = EDGE_KERNELS[name]
    kernel = op2.Kernel(fn)
    src = generate_vectorized(kernel, signature)
    assert (LOOP.search(src) is None) == batched
    start, end = (0, SIZE) if extent == "full" else (SIZE, EXEC_SIZE)
    new = compile_wrapper(src, name)
    old = compile_wrapper(generate_vectorized_alloc(kernel, signature), name)
    flat, increments = random_bindings(signature, np.random.default_rng(7))
    want = [a.copy() for a in flat]
    scatter = [scatter_index(flat[pos][start:end], dim)
               for pos, dim in increments]
    new(np, ARENA.slot, start, end, *flat, *scatter)
    old(np, np.arange(start, end), *want)
    for got, ref in zip(flat, want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["zero_res", "save_state", "rk_stage",
                                  "dual_source", "shift_history",
                                  "smooth_gather", "smooth_update"])
def test_component_loops_become_row_operations(name):
    kernel, signature = captured_loops()[name]
    src = generate_vectorized(kernel, signature)
    assert not LOOP.search(src)
    assert "[:, 0:5]" in src


@pytest.mark.parametrize("name", ["residual_norm", "update", "scatter_all"])
def test_accumulating_and_nested_loops_stay_loops(name):
    kernel, signature = captured_loops()[name]
    assert LOOP.search(generate_vectorized(kernel, signature))


def test_loop_carried_read_stays_a_loop_and_matches_sequential():
    kernel = op2.Kernel(normalize)
    sig = (("dat", op2.RW, "direct", 3, 0),)
    assert "for i in range(3)" in generate_vectorized(kernel, sig)
    data = np.random.default_rng(5).uniform(0.5, 2.0, (40, 3))
    results = {}
    for backend in ("sequential", "vectorized"):
        nodes = op2.Set(40, "nodes")
        x = op2.Dat(nodes, 3, data=data)
        op2.par_loop(kernel, nodes, x.arg(op2.RW), backend=backend)
        results[backend] = x.data_ro.copy()
    assert results["vectorized"].tobytes() == results["sequential"].tobytes()
    # x[0] becomes 1 first, so the other components keep their values;
    # one row operation would have divided them by the old x[0]
    assert results["vectorized"][:, 1:].tobytes() == data[:, 1:].tobytes()


def copy_pair(src, dst):
    dst[0] = src[0]


def test_a_directly_written_dat_bound_twice_is_rejected():
    nodes = op2.Set(4, "nodes")
    x = op2.Dat(nodes, 1, name="xalias")
    with pytest.raises(ValueError, match="'xalias'.*'copy_pair'"):
        op2.par_loop(op2.Kernel(copy_pair), nodes, x.arg(op2.READ),
                     x.arg(op2.WRITE), backend="vectorized")


def test_a_dat_incremented_through_two_map_columns_is_accepted():
    nodes, edges = op2.Set(3, "nodes"), op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 0]])
    r = op2.Dat(nodes, 1)
    op2.par_loop(op2.Kernel(copy_pair), edges, r.arg(op2.INC, pedge, 0),
                 r.arg(op2.INC, pedge, 1), backend="vectorized")


def test_scatter_index_is_cached_per_map_column_and_range():
    nodes, edges = op2.Set(4, "nodes"), op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]])
    r = op2.Dat(nodes, 2)
    flat = _cached_scatter_index(r.arg(op2.INC, pedge, 0), 0, 3)
    assert _cached_scatter_index(r.arg(op2.INC, pedge, 0), 0, 3) is flat
    assert not flat.flags.writeable
    assert flat.tolist() == [0, 1, 2, 3, 4, 5]
    assert _cached_scatter_index(r.arg(op2.INC, pedge, 1), 0, 3).tolist() \
        == [2, 3, 4, 5, 6, 7]
    assert _cached_scatter_index(r.arg(op2.INC, pedge, 0), 1, 3).tolist() \
        == [2, 3, 4, 5]
    assert _cached_scatter_index(r.arg(op2.INC, pedge, op2.ALL), 0, 1
                                 ).tolist() == [0, 1, 2, 3]


def test_rank_threads_stage_in_private_arenas():
    """More threads than cores, sharing one map (and so its cached
    scatter indices) and switching every microsecond, each get their
    serial result: no thread writes another's staging slots."""
    nedge, nnode, nthreads = 600, 200, 4
    rng = np.random.default_rng(13)
    nodes, edges = op2.Set(nnode, "nodes"), op2.Set(nedge, "edges")
    pedge = op2.Map(edges, nodes, 2, rng.integers(0, nnode, (nedge, 2)))
    gam = op2.Global(1, 1.4, "gam")
    cases = []
    for _ in range(nthreads):
        q = op2.Dat(nodes, 5, data=rng.uniform(0.5, 2.0, (nnode, 5)))
        q.data[:, 4] += 20.0
        w = op2.Dat(edges, 3, data=rng.uniform(-1.0, 1.0, (nedge, 3)))
        cases.append((q, w, op2.Dat(nodes, 5)))

    def flux(q, w, res):
        res.data[:] = 0.0
        op2.par_loop(KERNELS["flux_edge"], edges,
                     q.arg(op2.READ, pedge, 0), q.arg(op2.READ, pedge, 1),
                     w.arg(op2.READ), res.arg(op2.INC, pedge, 0),
                     res.arg(op2.INC, pedge, 1), gam.arg(op2.READ),
                     backend="vectorized")
        return res.data_ro.tobytes()

    want = [flux(*case) for case in cases]
    got: list[list[bytes]] = [[] for _ in cases]

    def rank(i):
        for _ in range(20):
            got[i].append(flux(*cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rank, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(nthreads):
        assert got[i] == [want[i]] * 20


# --------------------------------------------------------------------------
# allocation guard
# --------------------------------------------------------------------------

def _largest_line_allocation(fn) -> int:
    """Most memory traced at once, beyond what was live when the line
    started, by any one line of a generated wrapper while ``fn`` runs."""
    widths = [0]
    start = [0]

    def line(frame, event, arg):
        if event in ("line", "return"):
            cur, peak = tracemalloc.get_traced_memory()
            widths.append(peak - start[0])
            tracemalloc.reset_peak()
            start[0] = cur
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith("<op2-generated:"):
            start[0] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return line
        return None

    tracemalloc.start()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return max(widths)


def test_steady_state_flux_edge_allocates_no_staging_block():
    nedge, nnode = 4000, 1000
    rng = np.random.default_rng(11)
    nodes, edges = op2.Set(nnode, "nodes"), op2.Set(nedge, "edges")
    pedge = op2.Map(edges, nodes, 2, rng.integers(0, nnode, (nedge, 2)))
    q = op2.Dat(nodes, 5, data=rng.uniform(0.5, 2.0, (nnode, 5)))
    q.data[:, 4] += 20.0  # positive pressure
    w = op2.Dat(edges, 3, data=rng.uniform(-1.0, 1.0, (nedge, 3)))
    res = op2.Dat(nodes, 5)
    gam = op2.Global(1, 1.4, "gam")

    def flux():
        op2.par_loop(KERNELS["flux_edge"], edges,
                     q.arg(op2.READ, pedge, 0), q.arg(op2.READ, pedge, 1),
                     w.arg(op2.READ), res.arg(op2.INC, pedge, 0),
                     res.arg(op2.INC, pedge, 1), gam.arg(op2.READ),
                     backend="vectorized")

    flux()  # compiles the wrapper, sizes the arena, caches the indices
    staging = nedge * 5 * 8
    assert _largest_line_allocation(flux) < staging
