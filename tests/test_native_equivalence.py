"""Application-level equivalence of the compiled backends.

The differential matrix (``test_backend_differential.py``) certifies
the compiled backends on synthetic kernels; this suite certifies them
on the real applications. The airfoil solver and the Hydra row solver
run distributed — 1 and 4 ranks, both simulated-MPI transports — on
both compiled backends (the ``compiled_backend`` fixture), and
every combination must satisfy:

* a run with ``Config.lazy`` set (a field without effect, kept for the
  frozen end-to-end harness) is **bitwise-equal** to the eager run
  (``OMP_NUM_THREADS`` pinned to 1 by ``tests/conftest.py``, so
  compiled global reductions are deterministic too), and within 1e-12 of the ``vectorized`` backend's
  result on the same ranks;
* the ``op2.native.*`` telemetry counters tell a consistent story: no
  environment fallbacks with a healthy toolchain, and the atomics
  strategy actually executing its chunked compiled path.

The default shared compile cache is used deliberately — every rank and
parameterization after the first hits the disk cache, keeping the
matrix cheap.
"""

import functools

import numpy as np
import pytest

from repro import op2, telemetry
from repro.op2.backends.native import reset_native_state, toolchain
from repro.op2.distribute import (build_local_problem, gather_dat,
                                  plan_distribution)
from repro.smpi import run_ranks

HAVE_CC = toolchain() is not None
pytestmark = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")


@pytest.fixture(autouse=True)
def _fresh_native_state():
    reset_native_state()
    yield
    reset_native_state()


def _check_rank_counters(backend, counters):
    """Per-rank native telemetry of a healthy-toolchain run."""
    for rec in counters:
        # toolchain is present: no environment fallback may fire
        assert rec.get("op2.native.fallback", 0) == 0, \
            f"unexpected native fallback on {backend}: {rec}"
        if backend == "native-atomics":
            assert rec.get("op2.native.atomics_loops", 0) >= 1, \
                "the atomics strategy never executed its compiled path"
            assert rec.get("op2.native.atomics_blocks", 0) >= \
                rec.get("op2.native.atomics_loops", 0)


# -- airfoil -------------------------------------------------------------

def _airfoil_run(backend, lazy, nranks):
    from repro.apps import (AirfoilApp, airfoil_owners, airfoil_problem,
                            make_airfoil_mesh)

    mesh = make_airfoil_mesh(ni=12, nj=6)
    gp = airfoil_problem(mesh, mach=0.35)
    layouts = plan_distribution(gp, nranks, airfoil_owners(mesh, nranks))

    def rank_fn(comm):
        op2.set_config(backend=backend, lazy=lazy,
                       partial_halos=True, grouped_halos=True)
        with telemetry.tracing() as rec:
            local = build_local_problem(gp, layouts[comm.rank], comm)
            app = AirfoilApp.from_local(mesh, local, mach=0.35)
            app.iterate(3)
            q = gather_dat(comm, app.q, layouts[comm.rank], mesh.ncell)
        return q, dict(rec.counters)

    results = run_ranks(nranks, rank_fn)
    return results[0][0], [r[1] for r in results]


@functools.cache
def _reference(run, nranks):
    """The ``vectorized`` result of ``run`` (transport-invariant)."""
    return run("vectorized", False, nranks)[0]


@pytest.mark.parametrize("nranks", [1, 4])
def test_airfoil_chain_bitwise_eager(compiled_backend, smpi_transport,
                                     nranks):
    q_e, _ = _airfoil_run(compiled_backend, False, nranks)
    q, counters = _airfoil_run(compiled_backend, True, nranks)
    assert np.array_equal(q_e, q), \
        (f"airfoil lazy=True != eager on {compiled_backend} "
         f"({nranks} ranks, {smpi_transport} transport)")
    np.testing.assert_allclose(
        q, _reference(_airfoil_run, nranks), rtol=1e-12, atol=1e-13,
        err_msg=f"airfoil on {compiled_backend} ({nranks} ranks, "
                f"{smpi_transport} transport)")
    _check_rank_counters(compiled_backend, counters)


# -- hydra ---------------------------------------------------------------

def _hydra_run(backend, lazy, nranks):
    from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
    from repro.hydra.problem import row_owners
    from repro.mesh import RowConfig, RowKind, make_row_mesh

    cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=12, nx=6,
                    turning_velocity=0.0, work_coeff=0.0)
    mesh = make_row_mesh(cfg)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    gp = row_problem(mesh, inflow)
    owners = row_owners(mesh, gp, nranks, scheme="strips")
    layouts = plan_distribution(gp, nranks, owners)

    def rank_fn(comm):
        op2.set_config(backend=backend, lazy=lazy,
                       partial_halos=True, grouped_halos=True)
        with telemetry.tracing() as rec:
            local = build_local_problem(gp, layouts[comm.rank], comm)
            s = HydraSolver(local, cfg, Numerics(), dt_outer=0.05,
                            inlet=inflow, p_out=1.0)
            s.run(2)
            q = gather_dat(comm, s.q, layouts[comm.rank], mesh.n_nodes)
        return q, dict(rec.counters)

    results = run_ranks(nranks, rank_fn)
    return results[0][0], [r[1] for r in results]


@pytest.mark.parametrize("nranks", [1, 4])
def test_hydra_chain_bitwise_eager(compiled_backend, smpi_transport,
                                   nranks):
    q_e, _ = _hydra_run(compiled_backend, False, nranks)
    q, counters = _hydra_run(compiled_backend, True, nranks)
    assert np.array_equal(q_e, q), \
        (f"hydra lazy=True != eager on {compiled_backend} "
         f"({nranks} ranks, {smpi_transport} transport)")
    np.testing.assert_allclose(
        q, _reference(_hydra_run, nranks), rtol=1e-12, atol=1e-13,
        err_msg=f"hydra on {compiled_backend} ({nranks} ranks, "
                f"{smpi_transport} transport)")
    _check_rank_counters(compiled_backend, counters)
