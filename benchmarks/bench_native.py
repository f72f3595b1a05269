"""Compiled native backends vs the numpy backends on the airfoil.

Measured layers:

* ``test_native_vs_vectorized`` — the full five-kernel airfoil
  iteration and its hot loops (``res_calc``, ``adt_calc``) under the
  interpreted ``vectorized`` backend and the compiled ``native``
  backend — the same kernel AST, once executed by numpy and once
  emitted as C, built with the host toolchain and called through
  ``ctypes``. Per-kernel numbers come from the par_loop spans of a
  traced run (the telemetry ``tracing()`` context), wall time is
  best-of-REPS over a warmed cache (the one-time compile cost is
  reported separately as ``compile_wall``).
* ``test_native_thread_scaling`` — a 1/2/4/8-thread scaling study of
  the compiled ``native`` backend (block-color plan),
  writing ``benchmarks/out/BENCH_native_scaling.json``. Thread counts
  beyond the usable cores are still measured (they document the
  oversubscription penalty) but carry no perf bar; the
  res_calc >= 1.8x @ 4 threads acceptance bar is asserted ONLY when
  at least 4 cores are usable — on a single-core host the study
  degrades to an overhead report, which is recorded in the JSON meta.

Context for the serial numbers: on a single-core host the native win
is C versus numpy interpretation overhead at mini-app sizes (argument
marshalling, plan bookkeeping, ``np.add.at``), not OpenMP scaling.
That is the honest regime for the paper's "generated C" claim at this
scale; thread scaling is exercised functionally by the test suite and
quantitatively here whenever the host has the cores.

Acceptance bars (asserted): native >= 2x vectorized on both hot
loops; res_calc >= 1.8x at 4 threads when >= 4 cores are usable.
Under ``--smoke`` sizes shrink and all perf bars are waived — the
artifacts are still produced for CI upload, under
``benchmarks/out/smoke/``.

Writes ``benchmarks/out/BENCH_native.json`` and
``benchmarks/out/BENCH_native_scaling.json`` (telemetry bench schema).
"""

import time

import numpy as np
import pytest

from repro import op2
from repro.apps import AirfoilApp, make_airfoil_mesh
from repro.op2.backends.native import toolchain
from repro.smpi.threads import omp_threads, usable_cores
from repro.telemetry import tracing, write_bench_summary
from repro.util.tables import format_table

#: wall time is best-of-REPS (robust to scheduling noise)
REPS = 3
NITER = 10
NI, NJ = 128, 24

HOT_LOOPS = ("res_calc", "adt_calc")

#: thread-scaling study axes
SCALING_THREADS = (1, 2, 4, 8)
SCALING_BACKENDS = ("native",)


def run_airfoil(backend, mesh, niter=NITER, warm=2):
    """One traced airfoil run; also used by the CI bench smoke. The
    compiled loops run :func:`~repro.smpi.omp_threads` threads.

    Returns ``{"wall", "compile_wall", "kernels": {name: seconds},
    "q"}`` — ``compile_wall`` is the first (cache-cold) iteration pair,
    which for the native backends includes codegen + cc + dlopen.
    """
    with op2.configure(backend=backend):
        app = AirfoilApp(mesh, mach=0.4)
        t0 = time.perf_counter()
        app.iterate(warm)  # warm wrapper/plan/compile caches
        compile_wall = time.perf_counter() - t0
        with tracing() as rec:
            t0 = time.perf_counter()
            app.iterate(niter)
            wall = time.perf_counter() - t0
    kernels = {name: st.compute_seconds
               for name, st in rec.loop_stats.items()}
    return {"wall": wall, "compile_wall": compile_wall, "kernels": kernels,
            "q": app.q.data_ro.copy()}


def _best_of(fn, reps=REPS):
    best = fn()
    for _ in range(reps - 1):
        r = fn()
        if r["wall"] < best["wall"]:
            best = r
    return best


@pytest.mark.skipif(toolchain() is None, reason="no C toolchain")
def test_native_vs_vectorized(report, smoke, bench_out):
    ni, nj = (32, 8) if smoke else (NI, NJ)
    reps = 1 if smoke else REPS
    mesh = make_airfoil_mesh(ni=ni, nj=nj)
    vec = _best_of(lambda: run_airfoil("vectorized", mesh), reps)
    nat = _best_of(lambda: run_airfoil("native", mesh), reps)

    # same physics: native drifts from numpy only by FP reassociation
    np.testing.assert_allclose(nat["q"], vec["q"], rtol=1e-12, atol=1e-14)

    rows = []
    for name in sorted(vec["kernels"]):
        tv, tn = vec["kernels"][name], nat["kernels"][name]
        rows.append([name, tv * 1e3, tn * 1e3, tv / tn])
    rows.append(["TOTAL (wall)", vec["wall"] * 1e3, nat["wall"] * 1e3,
                 vec["wall"] / nat["wall"]])
    report(format_table(
        ["kernel", "vectorized ms", "native ms", "speedup"], rows,
        title=f"airfoil {mesh.ncell} cells / {mesh.nedge} edges, "
              f"{NITER} iterations, best of {reps} "
              f"(native compile+warm: {nat['compile_wall'] * 1e3:.0f} ms)",
        floatfmt=".2f"))

    # the acceptance bar: compiled wrappers at least halve the hot
    # loops (waived under --smoke: sizes too small to be meaningful)
    if not smoke:
        for name in HOT_LOOPS:
            assert nat["kernels"][name] * 2.0 <= vec["kernels"][name], (
                f"{name}: native {nat['kernels'][name]:.4f}s not 2x faster "
                f"than vectorized {vec['kernels'][name]:.4f}s")
        assert nat["wall"] < vec["wall"]

    metrics = {
        "wall_vectorized": {"value": vec["wall"], "unit": "s"},
        "wall_native": {"value": nat["wall"], "unit": "s"},
        "speedup_total": {"value": vec["wall"] / nat["wall"], "unit": "x"},
        "native_compile_and_warm": {"value": nat["compile_wall"],
                                    "unit": "s"},
    }
    for name in sorted(vec["kernels"]):
        metrics[f"kernel_{name}_vectorized"] = {
            "value": vec["kernels"][name], "unit": "s"}
        metrics[f"kernel_{name}_native"] = {
            "value": nat["kernels"][name], "unit": "s"}
        metrics[f"kernel_{name}_speedup"] = {
            "value": vec["kernels"][name] / nat["kernels"][name],
            "unit": "x"}
    write_bench_summary(bench_out, "native", metrics, meta={
        "cells": mesh.ncell, "edges": mesh.nedge, "iterations": NITER,
        "reps": reps, "wall": "best-of-reps", "smoke": smoke,
        "toolchain": toolchain()[0],
        "threads": omp_threads(),
        "note": "single-core host: speedup is compiled-C vs numpy "
                "interpretation overhead at mini-app size, not OpenMP "
                "scaling; equivalence asserted to 1e-12 rtol",
    })


@pytest.mark.skipif(toolchain() is None, reason="no C toolchain")
def test_native_thread_scaling(report, smoke, bench_out, monkeypatch):
    """1/2/4/8-thread scaling of the compiled backend on the airfoil
    hot loops, each point run under its ``OMP_NUM_THREADS``.

    The res_calc >= 1.8x @ 4 threads bar only holds where 4 cores
    exist; elsewhere (this repo's reference container is single-core)
    the run degrades gracefully to an oversubscription-overhead
    report, recorded as such in the JSON meta.
    """
    cores = usable_cores()
    ni, nj = (32, 8) if smoke else (NI, NJ)
    niter = 3 if smoke else NITER
    reps = 1 if smoke else REPS
    threads = (1, 2) if smoke else SCALING_THREADS
    mesh = make_airfoil_mesh(ni=ni, nj=nj)

    results = {}   # (backend, nthreads) -> run dict
    base_q = None
    for backend in SCALING_BACKENDS:
        for nt in threads:
            monkeypatch.setenv("OMP_NUM_THREADS", str(nt))
            r = _best_of(lambda: run_airfoil(backend, mesh, niter=niter),
                         reps)
            results[(backend, nt)] = r
            # physics is thread-count-invariant to reassociation
            if base_q is None:
                base_q = r["q"]
            np.testing.assert_allclose(r["q"], base_q,
                                       rtol=1e-12, atol=1e-14)

    rows = []
    for backend in SCALING_BACKENDS:
        t1 = results[(backend, 1)]
        for nt in threads:
            r = results[(backend, nt)]
            rows.append([
                backend, nt,
                r["wall"] * 1e3, t1["wall"] / r["wall"],
                r["kernels"]["res_calc"] * 1e3,
                t1["kernels"]["res_calc"] / r["kernels"]["res_calc"],
            ])
    report(format_table(
        ["backend", "threads", "wall ms", "speedup",
         "res_calc ms", "res_calc speedup"], rows,
        title=f"native thread scaling, airfoil {mesh.ncell} cells / "
              f"{mesh.nedge} edges, {niter} iterations, best of {reps} "
              f"({cores} usable core(s))",
        floatfmt=".2f"))

    metrics = {}
    for (backend, nt), r in results.items():
        tag = f"{backend.replace('-', '_')}_{nt}t"
        metrics[f"wall_{tag}"] = {"value": r["wall"], "unit": "s"}
        for name in HOT_LOOPS:
            metrics[f"kernel_{name}_{tag}"] = {
                "value": r["kernels"][name], "unit": "s"}
        t1 = results[(backend, 1)]
        metrics[f"speedup_{tag}"] = {
            "value": t1["wall"] / r["wall"], "unit": "x"}
        metrics[f"speedup_res_calc_{tag}"] = {
            "value": t1["kernels"]["res_calc"] / r["kernels"]["res_calc"],
            "unit": "x"}
    write_bench_summary(bench_out, "native_scaling", metrics, meta={
        "cells": mesh.ncell, "edges": mesh.nedge, "iterations": niter,
        "reps": reps, "threads": list(threads), "usable_cores": cores,
        "smoke": smoke, "toolchain": toolchain()[0],
        "scaling_bar_active": bool(cores >= 4 and not smoke),
        "note": "thread counts beyond the usable cores document the "
                "oversubscription penalty; the res_calc >= 1.8x @ 4 "
                "threads bar is asserted only with >= 4 usable cores",
    })

    # acceptance bar: only meaningful where the cores exist
    if cores >= 4 and not smoke:
        t1 = results[("native", 1)]["kernels"]["res_calc"]
        t4 = results[("native", 4)]["kernels"]["res_calc"]
        assert t1 / t4 >= 1.8, (
            f"res_calc at 4 threads only {t1 / t4:.2f}x over 1 thread "
            f"(bar: 1.8x, {cores} usable cores)")
