"""The OP2 airfoil benchmark — the DSL's canonical performance probe.

Measures the full five-kernel iteration under each generated backend
(the paper's portability artifact on its own reference app) and the
hot res_calc loop in isolation.
"""

import numpy as np
import pytest

from repro import op2
from repro.apps import AirfoilApp, make_airfoil_mesh


@pytest.fixture(scope="module")
def mesh():
    return make_airfoil_mesh(ni=96, nj=24)


@pytest.mark.parametrize("backend", ["sequential", "vectorized", "native"])
def test_airfoil_iteration(benchmark, mesh, backend):
    app = AirfoilApp(mesh, backend=backend)
    app.iterate(1)  # warm codegen/plan caches
    rounds = 1 if backend == "sequential" else 3
    benchmark.pedantic(app.iterate, args=(1,), rounds=rounds, iterations=1)
    benchmark.extra_info["cells"] = mesh.ncell
    benchmark.extra_info["edges"] = mesh.nedge


def test_report_airfoil_portability(report, mesh, benchmark):
    import time

    rows = []
    ref = None
    for backend in ["sequential", "vectorized", "native"]:
        app = AirfoilApp(mesh, backend=backend)
        app.iterate(1)
        t0 = time.perf_counter()
        app.iterate(3)
        dt = (time.perf_counter() - t0) / 3
        if ref is None:
            ref = app.q.data_ro.copy()
            err = 0.0
        else:
            err = float(np.abs(app.q.data_ro - ref).max())
        rows.append([backend, dt * 1e3, err])

    from repro.util.tables import format_table

    report(format_table(
        ["backend", "ms/iteration", "max |q - sequential|"],
        rows,
        title=f"airfoil portability: one source, {len(rows)} generated "
              f"parallelizations ({mesh.ncell} cells)",
        floatfmt=".3g"))
    for _backend, _dt, err in rows:
        assert err < 1e-10
    benchmark.pedantic(lambda: AirfoilApp(mesh).iterate(1),
                       rounds=1, iterations=1)
