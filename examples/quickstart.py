"""Quickstart: the OP2-style DSL in five minutes.

Declares a small unstructured problem (the classic airfoil-style motif:
an edge loop computing fluxes and incrementing node residuals), runs it
under every generated backend, and shows that one scalar kernel source
yields identical results from radically different parallelizations —
the paper's performance-portability claim in miniature.

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro import op2


def main() -> None:
    # -- declare the mesh ------------------------------------------------
    n = 20_000
    rng = np.random.default_rng(42)
    nodes = op2.Set(n, "nodes")
    edges = op2.Set(2 * n, "edges")
    table = rng.integers(0, n, size=(2 * n, 2))
    pedge = op2.Map(edges, nodes, 2, table, "pedge")

    x = op2.Dat(nodes, 2, data=rng.normal(size=(n, 2)), name="x")
    q = op2.Dat(nodes, 1, data=rng.normal(size=(n, 1)), name="q")
    res = op2.Dat(nodes, 1, name="res")
    rms = op2.Global(1, 0.0, "rms")

    # -- the science source: one scalar elemental kernel --------------------
    def flux(x1, x2, q1, q2, r1, r2, norm):
        dx = x1[0] - x2[0]
        dy = x1[1] - x2[1]
        qa = 0.5 * (q1[0] + q2[0])
        f = qa * dx + fabs(qa) * dy  # noqa: F821 - kernel math whitelist
        r1[0] += f
        r2[0] -= f
        norm[0] += f * f

    kernel = op2.Kernel(flux)

    # -- run it under every generated parallelization ------------------------
    print(f"edge-flux loop over {edges.size} edges, {nodes.size} nodes\n")

    def run(backend: str) -> op2.Global:
        res.data[:] = 0.0
        g = op2.Global(1, 0.0, "rms")
        op2.par_loop(kernel, edges,
                     x.arg(op2.READ, pedge, 0), x.arg(op2.READ, pedge, 1),
                     q.arg(op2.READ, pedge, 0), q.arg(op2.READ, pedge, 1),
                     res.arg(op2.INC, pedge, 0), res.arg(op2.INC, pedge, 1),
                     g.arg(op2.INC), backend=backend)
        return g

    reference = None
    for backend in ("sequential", "vectorized", "native"):
        run(backend)  # warm up: generate (and, for native, compile) once
        t0 = time.perf_counter()
        g = run(backend)
        dt = time.perf_counter() - t0
        if reference is None:
            reference = res.data_ro.copy()
            status = "reference"
        else:
            err = np.abs(res.data_ro - reference).max()
            status = f"max |diff vs sequential| = {err:.2e}"
        print(f"  {backend:14s}  {dt * 1e3:8.2f} ms   rms={g.value:.6f}   "
              f"{status}")

    # -- peek at what the code generator produced ---------------------------
    print("\none generated variant (vectorized, atomic scatter), first lines:")
    sources = kernel.generated_sources()
    key = next(k for k in sources if k[0] == "vec")
    for line in sources[key].splitlines()[:14]:
        print("   ", line)
    print("    ...")


if __name__ == "__main__":
    main()
