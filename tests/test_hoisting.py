"""Map-invariant hoisting: per-node work once per node, bitwise as before.

The hoisting analysis (``repro.op2.codegen.hoist``) picks a kernel's
single-endpoint locals; the compiled wrappers evaluate them in a node
pre-pass into a scratch array the element loop reads. These tests pin

* the analysis: what ``flux_edge``, ``res_calc`` and ``nut_flux_edge``
  hoist, and that nothing is hoisted through a written dat, inside a
  loop, through a reassigned or an integer local, or without the
  signature's record of shared dats;
* the wrappers: every hydra, turbulence, airfoil and FEM kernel on
  ``native`` and on the ``native-atomics`` oracle equals its unhoisted
  wrapper (``tests/oracles/compiled.py``) bitwise, over the owned range
  and the exec halo, on one and two OpenMP threads, and in distributed
  runs;
* the pre-pass covers exactly the referenced rows: NaN in every
  unreferenced halo row changes nothing and warns nothing, and scratch
  rows nobody references are never written.

The ``vectorized`` generator does not hoist: a hoisted numpy wrapper
measured no faster on the 1-2 row (``repro.op2.codegen.vector``).
"""

import functools
import warnings

import numpy as np
import pytest

from repro import op2, telemetry
from repro.apps.airfoil import AirfoilApp, make_airfoil_mesh
from repro.apps.fem import PoissonApp, make_unit_square
from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.hydra.kernels import KERNELS
from repro.hydra.turbulence import KERNELS as TURBULENCE, TurbulenceModel
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2 import parloop
from repro.op2.backends.native import hoisted_rows, toolchain
from repro.op2.codegen import generate_native
from repro.op2.codegen.hoist import hoist_plan
from repro.op2.distribute import (build_local_problem, build_serial_problem,
                                  gather_dat, plan_distribution)
from repro.op2.halo import SetHalo
from repro.smpi import run_ranks
from tests.oracles.compiled import generate_oracle, uncached

HAVE_CC = toolchain() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

AIRFOIL = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"]
FEM = ["stiffness", "diag", "load", "jacobi", "resnorm"]
ALL_KERNELS = sorted({*KERNELS, *TURBULENCE, *AIRFOIL, *FEM})

#: random iteration set: owned elements, owned + exec halo
SIZE, EXEC_SIZE = 37, 49
#: random target set: owned rows, + exec halo, + nonexec halo
NTARGET, TARGET_EXEC, TARGET_TOTAL = 23, 27, 31

R, I = op2.READ, op2.INC


def _rotor() -> HydraSolver:
    cfg = RowConfig(name="rotor", kind=RowKind.ROTOR, nr=3, nt=12, nx=5,
                    turning_velocity=0.2, work_coeff=0.1)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    local = build_serial_problem(row_problem(make_row_mesh(cfg), inflow))
    return HydraSolver(local, cfg, Numerics(inner_iters=1, smooth_eps=0.2),
                       dt_outer=0.05, inlet=inflow, p_out=1.0)


@functools.cache
def captured_loops() -> dict[str, tuple]:
    """``kernel name -> (kernel, native signature)`` of every loop the
    hydra (with turbulence), airfoil and FEM solvers run."""
    seen: dict[str, tuple] = {}
    real = parloop.execute_loop

    def record(loop, backend_name):
        seen.setdefault(loop.kernel.name,
                        (loop.kernel, loop.native_signature()))
        real(loop, backend_name)

    with pytest.MonkeyPatch.context() as mp, \
            op2.configure(backend="sequential"):
        mp.setattr(parloop, "execute_loop", record)
        solver = _rotor()
        solver.run(1)
        turbulence = TurbulenceModel(solver)
        turbulence.advance()
        turbulence.norm()
        solver.residual_norm()
        solver.mass_flow("inlet")
        solver.mean_total_pressure()
        AirfoilApp(make_airfoil_mesh(ni=8, nj=4)).iterate(1)
        PoissonApp(make_unit_square(5)).iterate(1)
    return seen


def test_every_solver_kernel_is_captured():
    assert set(captured_loops()) == set(ALL_KERNELS)


# -- the analysis ----------------------------------------------------------

def _plan(name):
    kernel, nsig = captured_loops()[name]
    return hoist_plan(kernel, nsig)


def test_flux_edge_hoists_one_shared_group():
    plan = _plan("flux_edge")
    assert len(plan.groups) == 1
    group = plan.groups[0]
    assert group.members == (0, 1)
    assert group.params == ("q1", "q2")
    assert group.frontiers == (("ul", "vl", "sl", "pl", "cl"),
                               ("ur", "vr", "sr", "pr", "cr"))
    assert group.label == "q"
    assert group.global_params == ("gam",)
    # plain loads stay in the element body; the reciprocals go
    assert "rl" not in plan.loads and "rl" not in plan.dropped
    assert plan.dropped == {"il", "ir"}


@pytest.mark.parametrize("name,frontier", [
    ("res_calc", ("ri1", "p1")),
    ("nut_flux_edge", ("u1", "v1", "s1")),
])
def test_edge_kernels_hoist_their_endpoint_state(name, frontier):
    (group,) = _plan(name).groups
    assert group.frontiers[0] == frontier
    assert len(group.members) == 2


def _tiny_loop_signature(kernel, *, written_q=False):
    """``kernel(x1, x2, y1)`` bound on a 3-edge chain: ``x`` read through
    both map columns, ``y1`` incremented — on ``x`` itself when
    ``written_q``."""
    nodes, edges = op2.Set(4, "nodes"), op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "pedge")
    x = op2.Dat(nodes, 2, np.ones((4, 2)), name="x")
    y = x if written_q else op2.Dat(nodes, 2, name="y")
    loop = op2.bind(op2.Kernel(kernel), edges, x.arg(R, pedge, 0),
                    x.arg(R, pedge, 1), y.arg(I, pedge, 0))
    return loop.kernel, loop.native_signature()


def hoistable(x1, x2, y1):
    a = 1.0 / x1[0]
    b = 1.0 / x2[0]
    y1[0] += a - b


def in_loop(x1, x2, y1):
    for i in range(2):
        a = 1.0 / x1[i]
        y1[i] += a * x2[i]


def reassigned(x1, x2, y1):
    a = 1.0 / x1[0]
    a = a * x1[1]
    c = 2.0 / x1[1]
    c += 1.0
    y1[0] += a + c + x2[0]


def integer_typed(x1, x2, y1):
    j = 1 if x1[0] > 0.5 else 0
    y1[0] += j * x2[0]


def golden_flux(x1, x2, w, r1, r2, rms):
    f = w[0] * (x1[0] - x2[0])
    r1[0] += f
    r2[0] -= f
    rms[0] += f * f


def test_tiny_kernel_hoists_both_endpoints():
    plan = hoist_plan(*_tiny_loop_signature(hoistable))
    (group,) = plan.groups
    assert group.frontiers == (("a",), ("b",))


def test_nothing_hoisted_through_a_written_dat():
    assert not hoist_plan(*_tiny_loop_signature(hoistable,
                                                written_q=True)).groups


@pytest.mark.parametrize("kernel", [in_loop, reassigned, integer_typed])
def test_loop_reassigned_and_integer_locals_never_hoist(kernel):
    assert not hoist_plan(*_tiny_loop_signature(kernel)).groups


def test_golden_flux_and_smooth_gather_hoist_nothing():
    nodes, edges = op2.Set(4, "nodes"), op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "pedge")
    x = op2.Dat(nodes, 2, np.ones((4, 2)), name="x")
    r = op2.Dat(nodes, 1, name="r")
    w = op2.Dat(edges, 1, name="w")
    loop = op2.bind(op2.Kernel(golden_flux), edges, x.arg(R, pedge, 0),
                    x.arg(R, pedge, 1), w.arg(R), r.arg(I, pedge, 0),
                    r.arg(I, pedge, 1), op2.Global(1, 0.0).arg(I))
    assert not hoist_plan(loop.kernel, loop.native_signature()).groups
    assert not _plan("smooth_gather").groups


def test_signature_without_shared_dats_hoists_nothing():
    kernel, nsig = captured_loops()["flux_edge"]
    bare = tuple(sig[:6] if sig[0] == "dat" else sig for sig in nsig)
    assert not hoist_plan(kernel, bare).groups
    # and the generator then emits the unhoisted wrapper
    assert "hoisted" not in generate_native(kernel, bare)


def test_kernels_with_nothing_to_hoist_emit_the_unhoisted_source():
    for name, (kernel, nsig) in captured_loops().items():
        nsig = uncached(nsig)
        if hoist_plan(kernel, nsig).groups:
            continue
        bare = tuple(sig[:6] if sig[0] == "dat" else sig for sig in nsig)
        for generate in (generate_native, generate_oracle):
            assert generate(kernel, nsig) == generate(kernel, bare), name


def test_generated_source_announces_the_hoist():
    kernel, nsig = captured_loops()["flux_edge"]
    src = generate_native(kernel, nsig)
    assert "// hoisted on q: ul vl sl pl cl" in src
    assert "_hrows0_f0" in src and "_hs0_f0" in src
    # the pre-pass runs team-parallel ahead of the colours
    assert src.index("_r < _hn0_f0") < src.index("_ncolors_f0; col++")


# -- bitwise against the unhoisted wrappers --------------------------------

def _values(rng, rows: int, dim: int) -> np.ndarray:
    """Random values; 4- and 5-component ones as a flow state, so the
    kernels' ``sqrt`` stays in its domain."""
    if dim not in (4, 5):
        return rng.uniform(0.5, 1.5, (rows, dim))
    state = rng.uniform(-0.2, 0.2, (rows, dim))
    state[:, 0] = rng.uniform(0.8, 1.2, rows)
    state[:, -1] = rng.uniform(2.5, 3.5, rows)
    return state


def random_loop(nsig: tuple, seed: int, exec_halo: bool = True,
                nan_rows: bool = False) -> tuple:
    """A loop of signature ``nsig`` over random data, arguments that
    share a dat in ``nsig`` sharing one here: ``(iterset, args, dats,
    globals)``. The iteration set carries an exec halo (``exec_halo``);
    the target set always carries exec and nonexec halo rows, which
    the maps reference only in part. With ``nan_rows`` every target
    halo row no map references is NaN. Dats and Globals ``nsig``
    records as frozen or const are frozen or const here."""
    rng = np.random.default_rng(seed)
    iterset = op2.Set(SIZE, "elems")
    if exec_halo:
        iterset.halo = SetHalo(comm=None, n_exec=EXEC_SIZE - SIZE,
                               n_nonexec=0,
                               global_ids=np.arange(EXEC_SIZE))
    targets = op2.Set(NTARGET, "targets")
    targets.halo = SetHalo(comm=None, n_exec=TARGET_EXEC - NTARGET,
                           n_nonexec=TARGET_TOTAL - TARGET_EXEC,
                           global_ids=np.arange(TARGET_TOTAL))
    maps: dict[int, op2.Map] = {}
    args, dats, gbls = [], [], []
    for k, sig in enumerate(nsig):
        if sig[0] == "gbl":
            _, access, dim = sig[:3]
            start = {R: rng.uniform(1.1, 1.6, dim), I: np.full(dim, 0.5),
                     op2.MIN: np.full(dim, 9.0),
                     op2.MAX: np.full(dim, -9.0)}[access]
            g = op2.Global(dim, start, name=f"g{k}",
                           const=sig[3:] == (True,))
            gbls.append(g)
            args.append(g.arg(access))
            continue
        _, access, addressing, dim, arity, idx, shares = sig[:7]
        if addressing != "direct" and arity not in maps:
            # distinct targets per row, as in a mesh; rows TARGET_EXEC-2
            # and up (two exec-halo rows, the nonexec halo) unreferenced
            rows = np.argsort(rng.random((iterset.exec_size,
                                          TARGET_EXEC - 2)),
                              axis=1)[:, :arity]
            maps[arity] = op2.Map(iterset, targets, arity, rows,
                                  name=f"m{arity}")
        if shares != k:
            d = args[shares].data
        elif addressing == "direct":
            d = op2.Dat(iterset, dim, _values(rng, iterset.total_size, dim),
                        name=f"d{k}")
            dats.append(d)
        else:
            d = op2.Dat(targets, dim, _values(rng, TARGET_TOTAL, dim),
                        name=f"d{k}")
            if nan_rows:
                d.data[TARGET_EXEC - 2:] = np.nan
            dats.append(d)
        if shares == k and sig[7:] == (True,):
            d.fresh_for = "full"
            d.freeze()
        if addressing == "direct":
            args.append(d.arg(access))
        else:
            args.append(d.arg(access, maps[arity],
                              op2.ALL if addressing == "all" else idx))
    return iterset, args, dats, gbls


def _run(kernel, nsig, backend, seed, threads, exec_halo=True,
         nan_rows=False, runs=2):
    iterset, args, dats, gbls = random_loop(nsig, seed, exec_halo, nan_rows)
    with op2.configure(native_threads=threads), telemetry.tracing() as rec:
        loop = op2.bind(kernel, iterset, *args, backend=backend)
        for _ in range(runs):
            for d in dats:
                d.fresh_for = "full"
            loop.run()
    # a healthy toolchain compiles every loop (capability gaps aside)
    assert rec.counters.get("op2.native.fallback", 0) == 0
    return loop, dats, gbls


def _assert_same(got, want, exact, what):
    for (gd, gg), (wd, wg) in zip(got, want):
        for a, b in zip(gd, wd):
            if exact:
                assert np.array_equal(a._data, b._data, equal_nan=True), \
                    f"{what}: dat {a.name} differs"
            else:
                np.testing.assert_allclose(a._data, b._data, rtol=1e-13,
                                           atol=1e-14, err_msg=what)
        for a, b in zip(gg, wg):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-13,
                                       atol=1e-14, err_msg=what)
            if exact:
                assert np.array_equal(a.data, b.data), \
                    f"{what}: global {a.name} differs"


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("exec_halo", [False, True], ids=["owned", "exec"])
@pytest.mark.parametrize("backend", ["native", "native-atomics"])
@pytest.mark.parametrize("name", ALL_KERNELS)
def test_hoisted_equals_unhoisted(name, backend, exec_halo, threads):
    kernel, nsig = captured_loops()[name]
    seed = sum(map(ord, name))
    _, *hoisted = _run(kernel, nsig, backend, seed, threads, exec_halo)
    _, *oracle = _run(kernel, nsig, f"{backend}-unhoisted", seed, threads,
                      exec_halo)
    # one thread: every sum in one order. Two: block-colour increments
    # keep their order, atomic increments and reduction folds do not
    exact = threads == 1 or (backend == "native"
                             and not any(s[0] == "gbl" and s[1] is not R
                                         for s in nsig))
    _assert_same([hoisted], [oracle], exact,
                 f"{name} on {backend}, {threads} threads")


@needs_cc
@pytest.mark.parametrize("backend", ["native", "native-atomics"])
@pytest.mark.parametrize("name", ["flux_edge", "nut_flux_edge", "res_calc",
                                  "bres_calc", "inlet_flux"])
def test_unreferenced_halo_rows_are_never_evaluated(name, backend):
    kernel, nsig = captured_loops()[name]
    seed = sum(map(ord, name)) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loop, dats, gbls = _run(kernel, nsig, backend, seed, 1,
                                nan_rows=True)
    _, clean_dats, clean_gbls = _run(kernel, nsig, backend, seed, 1)
    cut = TARGET_EXEC - 2  # rows at and above are NaN in the first run
    for a, b in zip(dats, clean_dats):
        rows = slice(0, cut) if a.set.name == "targets" else slice(None)
        assert np.array_equal(a._data[rows], b._data[rows]), a.name
    for a, b in zip(gbls, clean_gbls):
        assert np.array_equal(a.data, b.data), a.name

    # scratch rows outside the pre-pass rows are never written
    plan = hoist_plan(kernel, nsig)
    assert plan.groups
    iterset = loop.iterset
    for group in plan.groups:
        members = [loop.args[i] for i in group.members]
        scratch = loop.hoist_scratch(group.members, group.width)
        scratch[...] = -7.0
        for d in dats:
            d.fresh_for = "full"
        loop.run()
        covered = hoisted_rows(members, 0, iterset.size)
        if iterset.exec_size > iterset.size and loop.has_indirect_writes:
            covered = np.union1d(covered, hoisted_rows(
                members, iterset.size, iterset.exec_size))
        untouched = np.setdiff1d(np.arange(scratch.shape[0]), covered)
        assert untouched.size and (scratch[untouched] == -7.0).all()
        assert np.isfinite(scratch[covered]).all()
        assert (scratch[covered] != -7.0).all()
        assert (covered < cut).all()


# -- distributed runs --------------------------------------------------------

def _hydra_distributed(backend, nranks=2):
    from repro.hydra.problem import row_owners

    cfg = RowConfig(name="rotor", kind=RowKind.ROTOR, nr=3, nt=12, nx=6,
                    turning_velocity=0.2, work_coeff=0.1)
    mesh = make_row_mesh(cfg)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    gp = row_problem(mesh, inflow)
    layouts = plan_distribution(gp, nranks,
                                row_owners(mesh, gp, nranks, scheme="strips"))

    def rank_fn(comm):
        op2.set_config(backend=backend, native_threads=1,
                       partial_halos=True)
        local = build_local_problem(gp, layouts[comm.rank], comm)
        solver = HydraSolver(local, cfg, Numerics(), dt_outer=0.05,
                             inlet=inflow, p_out=1.0)
        turbulence = TurbulenceModel(solver)
        for _ in range(2):
            solver.run(1)
            turbulence.advance()
        return (gather_dat(comm, solver.q, layouts[comm.rank],
                           mesh.n_nodes),
                gather_dat(comm, turbulence.nut, layouts[comm.rank],
                           mesh.n_nodes))

    return run_ranks(nranks, rank_fn, transport="thread")[0]


def _airfoil_distributed(backend, nranks=2):
    from repro.apps import airfoil_owners, airfoil_problem

    mesh = make_airfoil_mesh(ni=12, nj=6)
    gp = airfoil_problem(mesh, mach=0.35)
    layouts = plan_distribution(gp, nranks, airfoil_owners(mesh, nranks))

    def rank_fn(comm):
        op2.set_config(backend=backend, native_threads=1,
                       partial_halos=True)
        local = build_local_problem(gp, layouts[comm.rank], comm)
        app = AirfoilApp.from_local(mesh, local, mach=0.35)
        app.iterate(3)
        return (gather_dat(comm, app.q, layouts[comm.rank], mesh.ncell),)

    return run_ranks(nranks, rank_fn, transport="thread")[0]


@needs_cc
@pytest.mark.parametrize("backend", ["native", "native-atomics"])
@pytest.mark.parametrize("app", [_hydra_distributed, _airfoil_distributed],
                         ids=["hydra", "airfoil"])
def test_distributed_run_equals_unhoisted(app, backend):
    got = app(backend)
    want = app(f"{backend}-unhoisted")
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
