"""Property test: every backend computes what the sequential reference does.

This is the paper's performance-portability claim made executable: a
single kernel source must yield identical results (up to floating-point
reassociation of commutative increments) whichever generated
parallelization runs it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import op2
from tests.oracles import compiled

OTHER_BACKENDS = ["vectorized", "coloring", "atomics", "blockcolor"]


def flux_kernel(x1, x2, q1, q2, r1, r2, rms):
    """Airfoil-style edge flux: reads coordinates and state, increments
    residuals on both endpoints, accumulates a global norm."""
    dx = x1[0] - x2[0]
    dy = x1[1] - x2[1]
    qa = 0.5 * (q1[0] + q2[0])
    f = qa * dx + fabs(qa) * dy  # noqa: F821 - kernel language
    lim = f if f < 1.0 else 1.0
    r1[0] += lim
    r2[0] -= lim
    rms[0] += f * f


@st.composite
def edge_mesh(draw):
    nnodes = draw(st.integers(min_value=2, max_value=30))
    nedges = draw(st.integers(min_value=1, max_value=80))
    table = draw(
        st.lists(
            st.tuples(st.integers(0, nnodes - 1), st.integers(0, nnodes - 1)),
            min_size=nedges, max_size=nedges,
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return nnodes, np.array(table, dtype=np.int64), seed


def run_flux(nnodes, table, seed, backend):
    rng = np.random.default_rng(seed)
    nedges = table.shape[0]
    nodes = op2.Set(nnodes, "nodes")
    edges = op2.Set(nedges, "edges")
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    x = op2.Dat(nodes, 2, data=rng.normal(size=(nnodes, 2)))
    q = op2.Dat(nodes, 1, data=rng.normal(size=(nnodes, 1)))
    res = op2.Dat(nodes, 1, data=rng.normal(size=(nnodes, 1)))
    rms = op2.Global(1, 0.0, "rms")
    op2.par_loop(op2.Kernel(flux_kernel), edges,
                 x.arg(op2.READ, pedge, 0), x.arg(op2.READ, pedge, 1),
                 q.arg(op2.READ, pedge, 0), q.arg(op2.READ, pedge, 1),
                 res.arg(op2.INC, pedge, 0), res.arg(op2.INC, pedge, 1),
                 rms.arg(op2.INC), backend=backend)
    return res.data_ro.copy(), rms.value


@given(edge_mesh())
@settings(max_examples=40, deadline=None)
def test_all_backends_match_sequential(mesh):
    nnodes, table, seed = mesh
    ref_res, ref_rms = run_flux(nnodes, table, seed, "sequential")
    for backend in OTHER_BACKENDS:
        res, rms = run_flux(nnodes, table, seed, backend)
        np.testing.assert_allclose(res, ref_res, rtol=1e-12, atol=1e-12,
                                   err_msg=f"backend {backend} diverged")
        assert rms == pytest.approx(ref_rms, rel=1e-12)


def vector_kernel(xs, qs, out, lo, hi):
    """Vector-arg (idx=ALL) kernel with MIN/MAX global reductions."""
    acc = 0.0
    for i in range(3):
        acc = acc + xs[i, 0] * qs[i, 0]
    out[0] = acc
    lo[0] = min(lo[0], acc)
    hi[0] = max(hi[0], acc)


@st.composite
def cell_mesh(draw):
    nnodes = draw(st.integers(min_value=3, max_value=25))
    ncells = draw(st.integers(min_value=1, max_value=50))
    table = draw(
        st.lists(
            st.tuples(*[st.integers(0, nnodes - 1)] * 3),
            min_size=ncells, max_size=ncells,
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return nnodes, np.array(table, dtype=np.int64), seed


def run_vector(nnodes, table, seed, backend):
    rng = np.random.default_rng(seed)
    ncells = table.shape[0]
    nodes = op2.Set(nnodes, "nodes")
    cells = op2.Set(ncells, "cells")
    pcell = op2.Map(cells, nodes, 3, table, "pcell")
    x = op2.Dat(nodes, 1, data=rng.normal(size=(nnodes, 1)))
    q = op2.Dat(nodes, 1, data=rng.normal(size=(nnodes, 1)))
    out = op2.Dat(cells, 1)
    lo = op2.Global(1, np.inf, "lo")
    hi = op2.Global(1, -np.inf, "hi")
    op2.par_loop(op2.Kernel(vector_kernel), cells,
                 x.arg(op2.READ, pcell, op2.ALL),
                 q.arg(op2.READ, pcell, op2.ALL),
                 out.arg(op2.WRITE), lo.arg(op2.MIN), hi.arg(op2.MAX),
                 backend=backend)
    return out.data_ro.copy(), lo.value, hi.value


@given(cell_mesh())
@settings(max_examples=30, deadline=None)
def test_vector_args_match_sequential(mesh):
    nnodes, table, seed = mesh
    ref = run_vector(nnodes, table, seed, "sequential")
    for backend in OTHER_BACKENDS:
        got = run_vector(nnodes, table, seed, backend)
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-12)
        assert got[1] == pytest.approx(ref[1], rel=1e-12)
        assert got[2] == pytest.approx(ref[2], rel=1e-12)


def test_atomics_block_size_independence(monkeypatch):
    """Results must not depend on the thread-block size, simulated or
    compiled: at the small blocks the C chunk loop crosses chunk
    boundaries (without a toolchain the compiled oracle runs
    ``vectorized``)."""
    nnodes, nedges = 40, 200
    rng = np.random.default_rng(7)
    table = rng.integers(0, nnodes, size=(nedges, 2))
    ref_res, ref_rms = run_flux(nnodes, table, 3, "sequential")
    for block in (1, 7, 64, 10_000):
        monkeypatch.setattr(compiled, "ATOMICS_BLOCK", block)
        for backend in ("atomics", "native-atomics"):
            res, rms = run_flux(nnodes, table, 3, backend)
            np.testing.assert_allclose(res, ref_res, rtol=1e-12)
            assert rms == pytest.approx(ref_rms, rel=1e-12)
