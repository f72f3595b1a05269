"""Code generation: generated source structure and compilability."""

import numpy as np
import pytest

from repro import op2
from repro.op2.backends.vectorized import ARENA, scatter_index
from repro.op2.codegen.seq import compile_wrapper, generate_sequential
from repro.op2.codegen.vector import generate_vectorized
from repro.op2.kernel import KernelParseError


def res_calc(x1, x2, q1, q2, r1, r2, rms):
    dx = x1[0] - x2[0]
    f = 0.5 * (q1[0] + q2[0]) * dx
    r1[0] += f
    r2[0] -= f
    rms[0] += f * f


SIG = (
    ("dat", op2.READ, "idx", 2, 2),
    ("dat", op2.READ, "idx", 2, 2),
    ("dat", op2.READ, "idx", 1, 2),
    ("dat", op2.READ, "idx", 1, 2),
    ("dat", op2.INC, "idx", 1, 2),
    ("dat", op2.INC, "idx", 1, 2),
    ("gbl", op2.INC, 1),
)


def test_sequential_source_shape():
    src = generate_sequential("res_calc", SIG)
    assert "def res_calc_seq_wrapper(" in src
    assert "for _e in range(_start, _end):" in src
    assert "_kernel(" in src
    compile_wrapper(src, "res_calc")  # must be valid Python


def test_vectorized_source_atomic():
    kern = op2.Kernel(res_calc)
    src = generate_vectorized(kern, SIG)
    assert src.startswith("def res_calc_atomic_wrapper(_np, _slot, _start, "
                          "_end, ")
    assert "_np.add.at(_a4.reshape(-1), _s4, r1.reshape(-1))" in src
    assert ("x1 = _np.take(_a0, _m0[_start:_end], axis=0, "
            "out=_slot(0, (_n, 2), _a0.dtype), mode='clip')") in src
    assert "r1 = _slot(4, (_n, 1), _a4.dtype)\n    r1.fill(0.0)" in src
    assert "rms = _slot(6, (_n, 1), _g6.dtype)" in src
    assert ".sum(axis=0)" in src
    assert "_rows" not in src
    compile_wrapper(src, "res_calc")


def scatter_all(xs, acc):
    for j in range(3):
        for d in range(2):
            acc[j][d] += xs[0] * (j + 1) + d


ALL_SIG = (("dat", op2.READ, "direct", 1, 0),
           ("dat", op2.INC, "all", 2, 3))


@pytest.mark.parametrize("addressing", ["idx", "all"])
def test_flat_scatter_is_bitwise_the_2d_add_at(addressing):
    """The atomic wrapper's flat 1-D ``add.at`` sums every target's
    contributions in the order of the 2-D ``np.add.at(a, m, p)``."""
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((400, 1))
    table = rng.integers(0, 7, size=(400, 3))
    acc = rng.standard_normal((7, 2))
    if addressing == "all":
        wrapper = compile_wrapper(
            generate_vectorized(op2.Kernel(scatter_all), ALL_SIG),
            "scatter_all")
        p = np.stack([xs * (j + 1) + np.arange(2) for j in range(3)], axis=1)
        m = table
        flat = (table,)
    else:
        def one(xv, av):
            av[0] += xv[0]
            av[1] += 2.0 * xv[0]

        sig = (("dat", op2.READ, "direct", 1, 0),
               ("dat", op2.INC, "idx", 2, 3))
        wrapper = compile_wrapper(
            generate_vectorized(op2.Kernel(one), sig), "one")
        p = np.concatenate([xs, 2.0 * xs], axis=1)
        m = table[:, 1]
        flat = (m,)
    want = acc.copy()
    np.add.at(want, m, p)
    got = acc.copy()
    wrapper(np, ARENA.slot, 0, 400, xs, got, *flat, scatter_index(m, 2))
    assert got.tobytes() == want.tobytes()


def test_flat_scatter_rejects_a_non_contiguous_dat():
    wrapper = compile_wrapper(
        generate_vectorized(op2.Kernel(scatter_all), ALL_SIG),
        "scatter_all")
    acc = np.zeros((7, 4))[:, ::2]
    table = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="not C-contiguous"):
        wrapper(np, ARENA.slot, 0, 2, np.ones((2, 1)), acc, table,
                scatter_index(table, 2))


def test_subscript_rewrite():
    def k(x, y):
        y[0] = x[1]

    sig = (("dat", op2.READ, "direct", 2, 0), ("dat", op2.WRITE, "direct", 1, 0))
    src = generate_vectorized(op2.Kernel(k), sig)
    assert "x[:, 1]" in src
    assert "y[:, 0]" in src


def test_vector_arg_rewrite():
    def k(xs, m):
        m[0] = xs[0][1] + xs[1, 0]

    sig = (("dat", op2.READ, "all", 2, 3), ("dat", op2.WRITE, "direct", 1, 0))
    src = generate_vectorized(op2.Kernel(k), sig)
    assert "xs[:, 0, 1]" in src
    assert "xs[:, 1, 0]" in src


def test_ifexp_becomes_where():
    def k(x, y):
        y[0] = x[0] if x[0] > 0.0 else -x[0]

    sig = (("dat", op2.READ, "direct", 1, 0), ("dat", op2.WRITE, "direct", 1, 0))
    src = generate_vectorized(op2.Kernel(k), sig)
    assert "_np.where" in src


def test_boolop_becomes_logical():
    def k(x, y):
        y[0] = 1.0 if x[0] > 0.0 and x[0] < 2.0 else 0.0

    sig = (("dat", op2.READ, "direct", 1, 0), ("dat", op2.WRITE, "direct", 1, 0))
    src = generate_vectorized(op2.Kernel(k), sig)
    assert "_np.logical_and" in src


def test_min_becomes_minimum():
    def k(x, y):
        y[0] = min(x[0], 1.0)

    sig = (("dat", op2.READ, "direct", 1, 0), ("dat", op2.WRITE, "direct", 1, 0))
    src = generate_vectorized(op2.Kernel(k), sig)
    assert "_np.minimum" in src


def test_reserved_names_rejected():
    def k(x, y):
        _tmp = x[0]
        y[0] = _tmp

    sig = (("dat", op2.READ, "direct", 1, 0), ("dat", op2.WRITE, "direct", 1, 0))
    with pytest.raises(KernelParseError, match="reserved"):
        generate_vectorized(op2.Kernel(k), sig)


def test_data_dependent_indexing_rejected():
    def k(x, y):
        y[0] = x[0]

    # forge a kernel whose body indexes by an elementwise value
    def bad(x, y):
        y[0] = y[x[0]]

    sig = (("dat", op2.READ, "direct", 1, 0), ("dat", op2.RW, "direct", 2, 0))
    with pytest.raises(KernelParseError, match="data-dependent"):
        generate_vectorized(op2.Kernel(bad), sig)


def test_chained_comparison_rejected():
    def k(x, y):
        y[0] = 1.0 if 0.0 < x[0] < 1.0 else 0.0

    sig = (("dat", op2.READ, "direct", 1, 0), ("dat", op2.WRITE, "direct", 1, 0))
    with pytest.raises(KernelParseError, match="chained"):
        generate_vectorized(op2.Kernel(k), sig)


def test_param_count_mismatch():
    def k(x):
        x[0] = 1.0

    with pytest.raises(KernelParseError, match="parameters"):
        generate_vectorized(op2.Kernel(k), SIG)


def test_generated_sources_cached_on_kernel():
    nodes = op2.Set(4, "nodes")
    x = op2.Dat(nodes, 1, data=np.arange(4.0))
    y = op2.Dat(nodes, 1)

    def copy(xv, yv):
        yv[0] = xv[0]

    kern = op2.Kernel(copy)
    op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE),
                 backend="vectorized")
    op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE),
                 backend="sequential")
    sources = kern.generated_sources()
    assert len(sources) == 2
    kinds = {key[0] for key in sources}
    assert kinds == {"vec", "seq"}
    # every stored source is printable, non-trivial text
    for src in sources.values():
        assert "def " in src and len(src.splitlines()) > 3
