"""One OpenMP thread budget per rank (:func:`repro.smpi.omp_threads`).

The count follows from the launch: ``OMP_NUM_THREADS`` when set, else
the usable cores shared out over the ranks of the ``run_ranks`` call,
and a forked rank whose parent already ran a multi-threaded compiled
region runs one thread (libgomp's pool does not survive ``fork``; more
threads would hang the rank). These tests delete or set the variable
themselves; the rest of the suite runs under ``OMP_NUM_THREADS=1``
(``tests/conftest.py``).
"""

import time
import warnings

import numpy as np
import pytest

from repro import op2, telemetry
from repro.apps import AirfoilApp, make_airfoil_mesh
from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.coupler import fastpath
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.op2.backends.native import reset_native_state, toolchain
from repro.smpi import omp_threads, run_ranks
from repro.smpi import threads as budget
from repro.smpi.threads import usable_cores

needs_cc = pytest.mark.skipif(toolchain() is None, reason="no C toolchain")


def test_env_first_entry_sets_the_count(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3,2")
    assert omp_threads() == 3
    assert run_ranks(2, lambda comm: omp_threads()) == [3, 3]


def test_outside_a_launch_the_caller_is_one_rank(monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert omp_threads() == usable_cores()


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_default_budget_shares_the_cores_over_the_launch(monkeypatch,
                                                         transport):
    monkeypatch.delenv("OMP_NUM_THREADS")
    # no compiled region ran in this process: the fork guard stays off
    monkeypatch.setattr(budget, "_team_entered", False)
    got = run_ranks(5, lambda comm: omp_threads(), transport=transport)
    assert got == [max(1, usable_cores() // 5)] * 5


def _airfoil(iters=2):
    app = AirfoilApp(make_airfoil_mesh(ni=64, nj=16), mach=0.4)
    with op2.configure(backend="native"):
        app.iterate(iters)
    return app.q.data_ro.copy()


@needs_cc
def test_fork_guard_runs_forked_ranks_on_one_thread(monkeypatch):
    """The parent runs a 2-thread compiled region, then forks ranks
    that run ``native`` with the variable still at 2: each runs one
    thread, counted and warned, and the launch completes."""
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert omp_threads() == 2
    want = _airfoil()

    def rank(comm):
        with warnings.catch_warnings(record=True) as caught, \
                telemetry.tracing() as rec:
            warnings.simplefilter("always")
            q = _airfoil()
        return (omp_threads(), rec.counters.get("smpi.process.omp_clamped"),
                sum("does not survive fork" in str(w.message)
                    for w in caught), q)

    reports = run_ranks(2, rank, transport="process", watchdog_s=15)
    for threads, clamped, warned, q in reports:
        assert threads == 1
        assert clamped >= 1
        assert warned == 1  # once per process
        np.testing.assert_allclose(q, want, rtol=1e-12, atol=1e-14)


def run_config(**kw):
    return CoupledRunConfig(
        rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                          steps_per_revolution=64),
        numerics=Numerics(inner_iters=2, backend="native"),
        inlet=FlowState(ux=0.5), p_out=1.0, timeout=60.0,
        ranks_per_row=2, **kw)


@needs_cc
@pytest.mark.parametrize("transport", ["thread", "process"])
def test_coupled_native_run_on_the_default_budget(monkeypatch, transport):
    """Four HS ranks and a CU rank with ``OMP_NUM_THREADS`` unset finish
    in bounded time; on a one-thread budget the monitors equal the
    pinned run's."""
    pinned = CoupledDriver(run_config(transport=transport)).run(2)
    monkeypatch.delenv("OMP_NUM_THREADS")
    driver = CoupledDriver(run_config(transport=transport))
    t0 = time.perf_counter()
    result = driver.run(2)
    assert time.perf_counter() - t0 < 120.0
    if usable_cores() // driver.n_world <= 1:
        assert result.monitor_payload() == pinned.monitor_payload()


def test_gather_apply_fallback_is_counted(monkeypatch):
    """Without a compiler ``native=True`` runs the numpy chain, bitwise,
    and each call bumps ``coupler.interp_native.fallback``."""
    rng = np.random.default_rng(3)
    w, vals = rng.random((40, 4)), rng.random((30, 5))
    pts = rng.integers(0, 30, size=(40, 4))
    want = fastpath.gather_apply(w, pts, vals)
    monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
    monkeypatch.setattr(fastpath, "_native_fn", None)
    reset_native_state()
    with telemetry.tracing() as rec:
        got = [fastpath.gather_apply(w, pts, vals, native=True)
               for _ in range(2)]
    assert fastpath.native_status().startswith("no C toolchain")
    assert rec.counters.get("coupler.interp_native.fallback") == 2
    assert all(np.array_equal(g, want) for g in got)
