"""Set-up-fixed values once per binding: frozen dats, const Globals and
the compiled wrappers' invariant caches.

``Dat.freeze()`` and ``op2.Global(..., const=True)`` declare what never
changes after set-up (OP2's ``op_decl_const``); the hoisting analysis
(``repro.op2.codegen.hoist``) then finds the kernel locals that follow
from it alone, and the ``native`` wrappers compute them on a binding's
first run into a cache the element body reads. These tests pin

* the declarations: every host write path of every frozen hydra dat
  and const Global raises, and binding a writing argument to one
  raises an error naming it; freezing exchanges halos only when stale;
* the analysis: what the solver kernels cache, and that nothing is
  cached without the signature's record or through a mutable Global;
* the wrappers: every hydra, turbulence, airfoil and FEM kernel on
  ``native`` equals the uncached oracle (``tests/oracles/compiled.py``)
  bitwise, over the owned range and the exec halo, on one and two
  OpenMP threads, and a 2-rank hydra run does with the same halo
  traffic; the cache is filled once, and ``Config.check_access``
  recomputes and compares it;
* the bindings: the airfoil, FEM and turbulence apps bind each call
  site once, however many iterations run.
"""

import numpy as np
import pytest

from repro import op2
from repro.apps.airfoil import AirfoilApp, make_airfoil_mesh
from repro.apps.fem import PoissonApp, make_unit_square
from repro.hydra.turbulence import TurbulenceModel
from repro.op2 import parloop
from repro.op2.codegen import generate_native
from repro.op2.codegen.hoist import hoist_plan
from tests.oracles.compiled import uncached
from tests.test_hoisting import (ALL_KERNELS, _assert_same, _rotor, _run,
                                 captured_loops, needs_cc)

R, W, INC = op2.READ, op2.WRITE, op2.INC

FROZEN = ["xyz", "edgew", "vol", "mask", "wall_nz", "inlet_area",
          "outlet_area", "deg"]
CONST = ["g_gam", "g_blade", "g_hmin", "g_qin", "g_pout", "g_smooth"]


# -- declaring what is fixed ---------------------------------------------

def _host_writes(dat):
    other = op2.Dat(dat.set, dat.dim, name="other")
    return {
        "data": lambda: dat.data.__setitem__(0, 1.0),
        "data_with_halos": lambda: dat.data_with_halos.__setitem__(0, 1.0),
        "zero": dat.zero,
        "scale": lambda: dat.scale(2.0),
        "axpy": lambda: dat.axpy(1.0, other),
        "copy_from": lambda: dat.copy_from(other),
    }


@pytest.mark.parametrize("name", FROZEN)
def test_every_host_write_to_a_frozen_hydra_dat_raises(name):
    dat = _rotor().local.dats[name]
    assert dat.frozen
    before = dat._data.copy()
    for how, write in _host_writes(dat).items():
        with pytest.raises(ValueError) as err:
            write()
        if how not in ("data", "data_with_halos"):  # numpy's own error
            assert isinstance(err.value, op2.FrozenError), how
            assert repr(name) in str(err.value), how
    assert np.array_equal(dat._data, before)
    assert dat.fresh_for == "full"  # ``data`` left the halos fresh


@pytest.mark.parametrize("name", CONST)
def test_a_const_hydra_global_cannot_be_set(name):
    g = getattr(_rotor(), name)
    assert g.const
    with pytest.raises(op2.FrozenError, match=repr(g.name)):
        g.data = np.zeros(g.dim)
    if g.dim == 1:
        with pytest.raises(op2.FrozenError, match=repr(g.name)):
            g.value = 2.0
    with pytest.raises(ValueError):
        g.data[0] = 2.0


def test_mutable_solver_globals_stay_mutable():
    solver = _rotor()
    for g in (solver.g_cfl, solver.g_coef, solver.g_wdual, solver.g_dtmin):
        assert not g.const
        g.data = np.ones(g.dim)


def copy_kernel(a, b):
    b[0] = a[0]


def sum_kernel(a, s):
    s[0] += a[0]


@pytest.mark.parametrize("access", [W, op2.RW, INC])
def test_binding_a_frozen_dat_for_writing_names_it(access):
    nodes = op2.Set(3, "nodes")
    src = op2.Dat(nodes, 1, name="src")
    frozen = op2.Dat(nodes, 1, name="coords").freeze()
    with pytest.raises(op2.FrozenError, match="frozen dat 'coords'"):
        op2.bind(op2.Kernel(copy_kernel), nodes, src.arg(R),
                 frozen.arg(access))
    op2.bind(op2.Kernel(copy_kernel), nodes, frozen.arg(R), src.arg(W))


@pytest.mark.parametrize("access", [INC, op2.MIN, op2.MAX])
def test_binding_a_const_global_for_reducing_names_it(access):
    nodes = op2.Set(3, "nodes")
    a = op2.Dat(nodes, 1, name="a")
    g = op2.Global(1, 0.0, "limit", const=True)
    with pytest.raises(op2.FrozenError, match="const global 'limit'"):
        op2.bind(op2.Kernel(sum_kernel), nodes, a.arg(R), g.arg(access))


def _two_rank_line(fn):
    """``fn(comm, dat)`` on each of two ranks sharing a 4-node line
    (one halo node each), with halo exchanges counted."""
    from repro.op2 import halo
    from repro.op2.distribute import (GlobalProblem, build_local_problem,
                                      plan_distribution)
    from repro.smpi import run_ranks

    gp = GlobalProblem()
    gp.add_set("nodes", 4)
    gp.add_set("edges", 3)
    gp.add_map("pedge", "edges", "nodes", np.array([[0, 1], [1, 2], [2, 3]]))
    gp.add_dat("x", "nodes", np.arange(4.0))
    layouts = plan_distribution(gp, 2, {"nodes": np.array([0, 0, 1, 1]),
                                        "edges": np.array([0, 0, 1])})
    calls = []
    real = halo.exchange_begin

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    def rank_fn(comm):
        x = build_local_problem(gp, layouts[comm.rank], comm).dats["x"]
        return fn(comm, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halo, "exchange_begin", counting)
        out = run_ranks(2, rank_fn, transport="thread")
    return out, calls


def test_freezing_fresh_dats_exchanges_nothing():
    def fn(comm, x):
        assert x.fresh_for == "full"
        x.freeze()

    _, calls = _two_rank_line(fn)
    assert calls == []


def test_freezing_stale_halos_refreshes_them_first():
    def fn(comm, x):
        x.data[:] += 10.0  # owned entries change, halos go stale
        assert not x.halo_fresh
        x.freeze()
        assert x.fresh_for == "full"
        return x.data_with_halos.copy()

    out, calls = _two_rank_line(fn)
    assert len(calls) == 2  # one exchange per rank
    for values in out:
        assert (values >= 10.0).all()  # halos hold the owners' new values


# -- what is cached --------------------------------------------------------

def _plan(name):
    kernel, nsig = captured_loops()[name]
    return hoist_plan(kernel, nsig)


@pytest.mark.parametrize("name,cache", [
    ("blade_force", ("mod",)),
    ("flux_edge", ("area",)),
    ("residual_norm", ("f",)),
    ("smooth_update", ("f",)),
    ("inlet_flux", ("vng",)),
    ("nut_source", ("d_lo", "d_hi")),
    ("res_calc", ("dx", "dy")),
    ("bres_calc", ("dx", "dy", "wall", "vol2")),
    ("stiffness", ("b0", "b1", "b2", "c0", "c1", "c2", "f")),
    # coef is mutable: rk_stage's f = mask * coef / vol stays per call
    ("rk_stage", ()),
    ("local_dt", ()),
])
def test_solver_kernels_cache_their_invariant_locals(name, cache):
    plan = _plan(name)
    assert plan.cache == cache


def test_flux_edge_keeps_its_hoist_and_caches_the_face_area():
    plan = _plan("flux_edge")
    (group,) = plan.groups
    assert group.frontiers[0] == ("ul", "vl", "sl", "pl", "cl")
    kernel, nsig = captured_loops()["flux_edge"]
    src = generate_native(kernel, nsig)
    assert "// cached per element: area" in src
    assert "double area = _inv[0];" in src
    assert src.count("if (*_fill_f0)") == 1
    assert src.rstrip().endswith("*_fill_f0 = 0;\n}")


def test_nothing_is_cached_without_the_record():
    for name, (kernel, nsig) in captured_loops().items():
        plan = hoist_plan(kernel, uncached(nsig))
        assert not plan.cache, name
        assert "_fill" not in generate_native(kernel, uncached(nsig)), name


def test_a_mutable_global_blocks_the_cache():
    kernel, nsig = captured_loops()["blade_force"]
    mutable = tuple(sig[:3] + (False,) if sig[0] == "gbl" else sig
                    for sig in nsig)
    assert not hoist_plan(kernel, mutable).cache


def endpoint_cos(x1, x2, y1, y2):
    c1 = cos(x1[0])  # noqa: F821
    c2 = cos(x2[0])  # noqa: F821
    y1[0] += c1 - c2
    y2[0] -= c1 - c2


def _endpoint_loop():
    nodes, edges = op2.Set(5, "nodes"), op2.Set(4, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3], [3, 4]],
                    "pedge")
    x = op2.Dat(nodes, 1, np.linspace(0.1, 0.9, 5)[:, None], name="x")
    x.freeze()
    y = op2.Dat(nodes, 1, name="y")
    return op2.bind(op2.Kernel(endpoint_cos), edges, x.arg(R, pedge, 0),
                    x.arg(R, pedge, 1), y.arg(INC, pedge, 0),
                    y.arg(INC, pedge, 1))


def test_an_invariant_endpoint_group_stays_a_per_call_prepass():
    loop = _endpoint_loop()
    nsig = loop.native_signature()
    plan = hoist_plan(loop.kernel, nsig)
    (group,) = plan.groups
    assert group.frontiers[0] == ("c1",) and not plan.cache
    assert generate_native(loop.kernel, nsig) == \
        generate_native(loop.kernel, uncached(nsig))


# -- bitwise against the uncached wrappers --------------------------------

@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("exec_halo", [False, True], ids=["owned", "exec"])
@pytest.mark.parametrize("name", ALL_KERNELS)
def test_cached_equals_uncached(name, exec_halo, threads):
    kernel, nsig = captured_loops()[name]
    seed = sum(map(ord, name)) + 7
    loop, *cached = _run(kernel, nsig, "native", seed, threads, exec_halo,
                         runs=3)
    _, *oracle = _run(kernel, nsig, "native-uncached", seed, threads,
                      exec_halo, runs=3)
    exact = threads == 1 or not any(s[0] == "gbl" and s[1] is not R
                                    for s in nsig)
    _assert_same([cached], [oracle], exact, f"{name}, {threads} threads")
    if hoist_plan(kernel, nsig).cache:
        assert loop.cache_fill(0, loop.iterset.size)[0] == 0


def _cached_blade_force():
    solver = _rotor()
    with op2.configure(backend="native"):
        solver.run(1)
    loop = solver._sites.loops["blade_force"]
    return solver, loop, loop.invariant_cache(1)


def _blade_force_once(solver, loop):
    solver.res.zero()
    with op2.configure(backend="native"):
        op2.par_loop(loop.kernel, loop.iterset, *loop.args,
                     backend=loop.backend)
    return solver.res.data_ro.copy()


@needs_cc
def test_the_cache_is_filled_on_the_first_run_only():
    solver, loop, cache = _cached_blade_force()
    clean = _blade_force_once(solver, loop)
    cache[3, 0] += 1.0  # a corrupted row is read, not recomputed
    corrupt = _blade_force_once(solver, loop)
    assert not np.array_equal(corrupt[3], clean[3])
    assert np.array_equal(np.delete(corrupt, 3, 0), np.delete(clean, 3, 0))


@needs_cc
def test_check_access_recomputes_and_compares_the_cache():
    solver, loop, cache = _cached_blade_force()
    with op2.configure(check_access=True):
        clean = _blade_force_once(solver, loop)
        cache[3, 0] += 1.0
        with pytest.raises(RuntimeError, match="'blade_force'.*changed"):
            _blade_force_once(solver, loop)
        # the recomputation repaired the row
        assert np.array_equal(_blade_force_once(solver, loop), clean)


@needs_cc
def test_two_rank_hydra_run_equals_uncached_with_the_same_traffic():
    from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
    from repro.hydra.problem import row_owners
    from repro.mesh import RowConfig, RowKind, make_row_mesh
    from repro.op2.distribute import (build_local_problem, gather_dat,
                                      plan_distribution)
    from repro.smpi import Traffic, run_ranks

    cfg = RowConfig(name="rotor", kind=RowKind.ROTOR, nr=3, nt=12, nx=6,
                    turning_velocity=0.2, work_coeff=0.1)
    mesh = make_row_mesh(cfg)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    gp = row_problem(mesh, inflow)
    layouts = plan_distribution(gp, 2,
                                row_owners(mesh, gp, 2, scheme="strips"))

    def run(backend):
        def rank_fn(comm):
            op2.set_config(backend=backend)
            local = build_local_problem(gp, layouts[comm.rank], comm)
            solver = HydraSolver(local, cfg, Numerics(inner_iters=2),
                                 dt_outer=0.05, inlet=inflow, p_out=1.0)
            solver.run(2)
            norm = solver.residual_norm()
            return (gather_dat(comm, solver.q, layouts[comm.rank],
                               mesh.n_nodes), norm)

        traffic = Traffic()
        out = run_ranks(2, rank_fn, transport="thread", traffic=traffic)
        return out[0], traffic.by_phase()

    (q, norm), traffic = run("native")
    (q_want, norm_want), traffic_want = run("native-uncached")
    assert np.array_equal(q, q_want) and norm == norm_want
    assert any(phase.startswith("halo") for phase in traffic)
    assert traffic == traffic_want


# -- bound call sites outside the solver ----------------------------------

def _count_bindings(fn) -> int:
    count = 0
    real = parloop.BoundLoop.__init__

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        real(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parloop.BoundLoop, "__init__", counting)
        fn()
    return count


@pytest.mark.parametrize("app", ["airfoil", "fem", "turbulence"])
def test_apps_bind_each_call_site_once(app):
    if app == "airfoil":
        model = AirfoilApp(make_airfoil_mesh(ni=8, nj=4))
        sites = 5

        def step():
            model.iterate(1)
    elif app == "fem":
        model = PoissonApp(make_unit_square(5))
        sites = 3

        def step():
            model.iterate(1)
    else:
        model = TurbulenceModel(_rotor())
        sites = 5

        def step():
            model.advance()
            model.norm()
    assert _count_bindings(lambda: [step() for _ in range(4)]) == sites
    assert len(model._sites.loops) == sites
    assert _count_bindings(step) == 0


def test_codegen_prints_the_cached_wrappers(capsys):
    from repro.cli import main

    assert main(["codegen", "--backend", "native"]) == 0
    out = capsys.readouterr().out
    assert "// cached per element: area" in out
    assert "// cached per element: mod" in out
    assert "double mod = _inv[0];" in out
