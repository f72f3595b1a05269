"""Bind once, run many: a bound loop computes what an unbound one does.

``op2.bind`` validates a loop once and keeps its layout, halo reads and
prepared backend calls; every ``run()`` is a freshness check and one
backend call per range. These tests hold a loop bound once and run
repeatedly bitwise equal to the backends' per-call entry point
(``execute`` with fresh reduction buffers, the unbound path), for every
kernel the hydra, airfoil and FEM solvers run, on every backend, with
``Config.lazy`` off and on (the field has no effect: every par_loop
runs when it is called), over a serial set and over a set with an exec
halo. They also
pin what a run must still read (Global storage, the config), the
exec-halo reduction discard on real ranks, and the per-run Python call
budget.
"""

import functools
import gc
import sys
import weakref

import numpy as np
import pytest

from repro import op2
from repro.apps.airfoil import AirfoilApp, make_airfoil_mesh
from repro.apps.fem import PoissonApp, make_unit_square
from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.hydra.kernels import KERNELS
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2 import parloop
from repro.op2.backends import BACKENDS, ReductionBuffers, resolve_backend
from repro.op2.backends.native import toolchain
from repro.op2.distribute import (GlobalProblem, build_serial_problem,
                                  plan_distribution)
from repro.op2.halo import SetHalo
from repro.smpi import run_ranks

AIRFOIL = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"]
FEM = ["stiffness", "diag", "load", "jacobi", "resnorm"]
BACKEND_NAMES = ["sequential", "vectorized", "native", "native-atomics",
                 "sanitizer"]

#: the random iteration set: owned elements, owned + exec halo
SIZE, EXEC_SIZE = 37, 49
#: target-set size of every random map (smaller than SIZE: conflicts)
NTARGET = 23
RUNS = 3

pytestmark = [
    pytest.mark.filterwarnings(
        "ignore:.*falling back to the vectorized backend:RuntimeWarning"),
    # random geometry: degenerate cells divide by zero on every backend
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]


def _rotor(nr=3, nt=12, nx=5, **numerics) -> HydraSolver:
    cfg = RowConfig(name="rotor", kind=RowKind.ROTOR, nr=nr, nt=nt, nx=nx,
                    turning_velocity=0.2, work_coeff=0.1)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    local = build_serial_problem(row_problem(make_row_mesh(cfg), inflow))
    return HydraSolver(local, cfg, Numerics(**numerics), dt_outer=0.05,
                       inlet=inflow, p_out=1.0)


@functools.cache
def captured_loops() -> dict[str, tuple]:
    """``kernel name -> (kernel, native signature)`` of every loop the
    three solvers run."""
    seen: dict[str, tuple] = {}
    real = parloop.execute_loop

    def record(loop, backend_name):
        seen.setdefault(loop.kernel.name,
                        (loop.kernel, loop.native_signature()))
        real(loop, backend_name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parloop, "execute_loop", record)
        solver = _rotor(inner_iters=1, smooth_eps=0.2)
        solver.run(1)
        solver.residual_norm()
        solver.mass_flow("inlet")
        solver.mean_total_pressure()
        AirfoilApp(make_airfoil_mesh(ni=8, nj=4)).iterate(1)
        PoissonApp(make_unit_square(5)).iterate(1)
    return seen


def test_every_solver_kernel_is_captured():
    assert set(captured_loops()) == set(KERNELS) | set(AIRFOIL) | set(FEM)


def _values(rng, rows: int, dim: int) -> np.ndarray:
    """Random values; 4- and 5-component ones as a flow state (density
    near 1, small momentum, energy enough for a positive pressure), so
    the scalar kernels' ``sqrt`` stays in its domain."""
    if dim not in (4, 5):
        return rng.uniform(0.5, 1.5, (rows, dim))
    state = rng.uniform(-0.2, 0.2, (rows, dim))
    state[:, 0] = rng.uniform(0.8, 1.2, rows)
    state[:, -1] = rng.uniform(2.5, 3.5, rows)
    return state


def random_loop(nsig: tuple, exec_halo: bool, seed: int) -> tuple:
    """A loop of signature ``nsig`` over random data: ``(iterset, args,
    dats, globals)``. With ``exec_halo`` the iteration set carries an
    import-exec halo of ``EXEC_SIZE - SIZE`` elements (no communicator:
    a run finds every dat fresh and exchanges nothing)."""
    rng = np.random.default_rng(seed)
    iterset = op2.Set(SIZE, "elems")
    if exec_halo:
        iterset.halo = SetHalo(comm=None, n_exec=EXEC_SIZE - SIZE,
                               n_nonexec=0,
                               global_ids=np.arange(EXEC_SIZE))
    targets = op2.Set(NTARGET, "targets")
    maps: dict[int, op2.Map] = {}
    args, dats, gbls = [], [], []
    for k, sig in enumerate(nsig):
        if sig[0] == "gbl":
            _, access, dim = sig[:3]
            start = {op2.READ: rng.uniform(1.1, 1.6, dim),
                     op2.INC: np.full(dim, 0.5), op2.MIN: np.full(dim, 9.0),
                     op2.MAX: np.full(dim, -9.0)}[access]
            g = op2.Global(dim, start, name=f"g{k}")
            gbls.append(g)
            args.append(g.arg(access))
            continue
        _, access, addressing, dim, arity, idx = sig[:6]
        if addressing == "direct":
            d = op2.Dat(iterset, dim, _values(rng, iterset.total_size, dim),
                        name=f"d{k}")
            args.append(d.arg(access))
        else:
            if arity not in maps:
                # distinct targets per row, as in a mesh
                rows = np.argsort(rng.random((iterset.exec_size, NTARGET)),
                                  axis=1)[:, :arity]
                maps[arity] = op2.Map(iterset, targets, arity, rows,
                                      name=f"m{arity}")
            d = op2.Dat(targets, dim, _values(rng, NTARGET, dim),
                        name=f"d{k}")
            args.append(d.arg(access, maps[arity],
                              op2.ALL if addressing == "all" else idx))
        dats.append(d)
    return iterset, args, dats, gbls


def unbound_run(kernel, iterset, args, backend_name: str) -> None:
    """One run through the backend's per-call entry point, with fresh
    reduction buffers per range: the loop as an unbound par_loop ran it."""
    loop = op2.BoundLoop(kernel, iterset, args)
    backend = resolve_backend(backend_name)
    reductions = ReductionBuffers(args)
    backend.execute(loop, 0, iterset.size, reductions)
    if iterset.exec_size > iterset.size and loop.has_indirect_writes:
        backend.execute(loop, iterset.size, iterset.exec_size,
                        ReductionBuffers(args))
    loop._mark_written_stale()
    reductions.finalize(None)


def _between_runs(run: int, dats, args) -> None:
    """Every dat fresh (nothing to exchange), READ Globals moved."""
    for d in dats:
        d.fresh_for = "full"
    for a in args:
        if a.is_global and a.access is op2.READ:
            a.data._data *= 1.0 + 0.125 * run


def _assert_bitwise(got, want, what):
    for a, b in zip(got, want):
        assert a._data.dtype == b._data.dtype
        assert np.array_equal(a._data, b._data, equal_nan=True), \
            f"{what}: {a.name} differs"


@pytest.mark.parametrize("exec_halo", [False, True], ids=["full", "exec"])
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name", sorted(set(KERNELS) | set(AIRFOIL)
                                        | set(FEM)))
def test_bound_equals_unbound(name, backend, lazy, exec_halo):
    kernel, nsig = captured_loops()[name]
    seed = sum(map(ord, name))
    ref_set, ref_args, ref_dats, ref_gbls = random_loop(nsig, exec_halo, seed)
    iterset, args, dats, gbls = random_loop(nsig, exec_halo, seed)
    with op2.configure(lazy=lazy):
        bound = op2.bind(kernel, iterset, *args, backend=backend)
        for run in range(RUNS):
            _between_runs(run, ref_dats, ref_args)
            _between_runs(run, dats, args)
            unbound_run(kernel, ref_set, ref_args, backend)
            bound.run()
            _assert_bitwise(dats, ref_dats, f"run {run}")
            _assert_bitwise(gbls, ref_gbls, f"run {run}")


def test_bind_returns_the_binding_par_loop_runs():
    kernel, nsig = captured_loops()["flux_edge"]
    iterset, args, _, _ = random_loop(nsig, False, 1)
    bound = op2.bind(kernel, iterset, *args)
    assert op2.bind(kernel, iterset, *args) is bound
    assert op2.bind(kernel, iterset, *args, backend="sequential") is not bound
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parloop, "execute_loop",
                   lambda loop, name: seen.append(loop))
        op2.par_loop(kernel, iterset, *args)
        op2.par_loop(kernel, iterset, *list(args))
        fresh = [a.data.arg(a.access) if a.is_global
                 else a.data.arg(a.access, a.map, a.idx) for a in args]
        op2.par_loop(kernel, iterset, *fresh)
    assert seen[0] is bound and seen[1] is bound and seen[2] is not bound
    ref = weakref.ref(bound)
    del bound, seen
    gc.collect()
    assert ref() is None, "the registry must not keep a dropped loop"


# -- what a run reads --------------------------------------------------------

def scale(x, y, g):
    y[0] = x[0] * g[0]


@pytest.mark.parametrize("backend", ["sequential", "vectorized", "native"])
def test_global_rebind_and_in_place_write_are_seen(backend):
    cells = op2.Set(5, "cells")
    x = op2.Dat(cells, 1, np.arange(5.0), name="x")
    y = op2.Dat(cells, 1, name="y")
    g = op2.Global(1, 2.0, name="g")
    bound = op2.bind(op2.Kernel(scale), cells, x.arg(op2.READ),
                     y.arg(op2.WRITE), g.arg(op2.READ), backend=backend)
    bound.run()
    assert y.data_ro[:, 0].tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]
    g.value = 3.0                       # in place: same storage
    bound.run()
    assert y.data_ro[:, 0].tolist() == [0.0, 3.0, 6.0, 9.0, 12.0]
    g.data = np.array([5.0])            # rebinds Global._data
    bound.run()
    assert y.data_ro[:, 0].tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]


class _Spy:
    """A backend that records its calls and runs vectorized."""

    name = "spy"

    def __init__(self):
        self.calls = 0

    def execute(self, loop, start, end, reductions):
        self.calls += 1
        BACKENDS["vectorized"].execute(loop, start, end, reductions)


def test_configure_backend_rebinds(monkeypatch):
    spy = _Spy()
    monkeypatch.setitem(BACKENDS, "spy", spy)
    cells = op2.Set(4, "cells")
    x = op2.Dat(cells, 1, np.arange(4.0), name="x")
    y = op2.Dat(cells, 1, name="y")
    g = op2.Global(1, 2.0, name="g")
    bound = op2.bind(op2.Kernel(scale), cells, x.arg(op2.READ),
                     y.arg(op2.WRITE), g.arg(op2.READ))
    with op2.configure(backend="vectorized"):
        bound.run()
    assert spy.calls == 0
    with op2.configure(backend="spy"):
        bound.run()
        bound.run()
    assert spy.calls == 2
    with op2.configure(backend="sequential"):
        bound.run()
    assert spy.calls == 2
    assert y.data_ro[:, 0].tolist() == [0.0, 2.0, 4.0, 6.0]


def copy_over(x, y):
    y[0] = x[0]


def test_configure_partial_halos_rebinds(monkeypatch):
    """The halo reads are regrouped when ``partial_halos`` changes: the
    same bound loop asks for the full scope, then the map's depth-1
    scope."""
    elems = op2.Set(4, "elems")
    elems.halo = SetHalo(comm=None, n_exec=0, n_nonexec=0,
                         global_ids=np.arange(4))
    nodes = op2.Set(3, "nodes")
    nodes.halo = SetHalo(comm=None, n_exec=1, n_nonexec=1,
                         global_ids=np.arange(5))
    m = op2.Map(elems, nodes, 1, [[0], [1], [3], [4]], "m")
    x = op2.Dat(nodes, 1, np.arange(5.0), name="x")
    y = op2.Dat(elems, 1, name="y")
    scopes = []

    def fake_exchange(sset, dats, scope="full", grouped=False):
        scopes.append(scope)
        for d in dats:
            d.mark_halo_fresh(scope)

    monkeypatch.setattr(parloop, "exchange_halos", fake_exchange)
    bound = op2.bind(op2.Kernel(copy_over), elems, x.arg(op2.READ, m, 0),
                     y.arg(op2.WRITE))
    with op2.configure(partial_halos=False):
        bound.run()
        bound.run()                     # fresh: no second exchange
    x.mark_halo_stale()
    with op2.configure(partial_halos=True):
        bound.run()
    assert scopes == ["full", "m@own"]


# -- the exec-halo reduction on real ranks ------------------------------------

def count_edges(x1, r1, cnt):
    r1[0] += x1[0]
    cnt[0] += 1.0


def test_exec_halo_reduction_discarded_exactly_once_on_two_ranks():
    n = 24
    gp = GlobalProblem()
    gp.add_set("nodes", n)
    gp.add_set("edges", n)
    table = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    gp.add_map("pedge", "edges", "nodes", table)
    gp.add_dat("x", "nodes", np.ones((n, 1)))
    gp.add_dat("r", "nodes", np.zeros((n, 1)))
    node_owner = np.minimum(np.arange(n) * 2 // n, 1)
    layouts = plan_distribution(
        gp, 2, {"nodes": node_owner, "edges": node_owner[table[:, 0]]})

    def rank_fn(comm):
        local = op2.build_local_problem(gp, layouts[comm.rank], comm)
        edges, pedge = local.sets["edges"], local.maps["pedge"]
        assert edges.exec_size > edges.size, "needs an exec halo"
        cnt = op2.Global(1, 0.0, name="cnt")
        bound = op2.bind(op2.Kernel(count_edges), edges,
                         local.dats["x"].arg(op2.READ, pedge, 1),
                         local.dats["r"].arg(op2.INC, pedge, 0),
                         cnt.arg(op2.INC))
        counts = []
        for _ in range(3):
            bound.run()
            counts.append(cnt.value)
        return counts

    for counts in run_ranks(2, rank_fn, transport="thread"):
        assert counts == [24.0, 48.0, 72.0]


# -- the per-run cost -----------------------------------------------------------

def _calls_per(fn, repeat: int) -> float:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        for _ in range(repeat):
            fn()
    finally:
        sys.setprofile(None)
    return calls / repeat


def test_a_native_run_makes_at_most_30_python_calls():
    with op2.configure(backend="native"):
        solver = _rotor(nr=2, nt=3, nx=2)
        solver.advance_physical()       # every loop bound and prepared
        solver.residual_norm()
        solver.mass_flow("inlet")
        solver.mass_flow("outlet")
        solver.mean_total_pressure()
        assert set(solver._sites.loops) == set(solver._sites.sites)
        nloops = len(_recorded(solver.inner_iteration))
        per_loop = _calls_per(solver.inner_iteration, 3) / nloops
        assert per_loop <= 30, f"{per_loop:.1f} Python calls per par_loop"
        for name, bound in solver._sites.loops.items():
            per_run = _calls_per(bound.run, 5)
            assert per_run <= 30, f"{name}: {per_run:.1f} calls per run()"


def test_a_solver_binds_each_site_once_on_its_first_run():
    solver = _rotor(nr=2, nt=3, nx=2)
    assert solver._sites.loops == {}, \
        "construction must not bind (or parse)"
    solver.advance_physical()
    bound = dict(solver._sites.loops)
    assert "flux_edge" in bound and "residual_norm" not in bound
    solver.advance_physical()
    assert all(solver._sites.loops[name] is loop
               for name, loop in bound.items())


def _recorded(fn) -> list:
    loops = []
    real = op2.par_loop

    def recording(kernel, iterset, *args, **kwargs):
        loops.append(kernel)
        return real(kernel, iterset, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(op2, "par_loop", recording)
        fn()
    return loops


# -- plans die with their maps -----------------------------------------------

@pytest.mark.parametrize("backend", ["native", "sanitizer"])
def test_a_dropped_solver_frees_its_maps(backend):
    with op2.configure(backend=backend):
        solver = _rotor(nr=2, nt=3, nx=2, smooth_eps=0.2)
        solver.advance_physical()
    pedge = solver.local.maps["pedge"]
    # the flux and the smoothing loops write through the same columns;
    # a native run without a compiler falls back and plans nothing
    planned = backend == "sanitizer" or toolchain() is not None
    assert len(pedge._plans) == int(planned)
    ref = weakref.ref(pedge)
    del solver, pedge
    gc.collect()
    assert ref() is None, "a plan cache or a binding keeps the map alive"
