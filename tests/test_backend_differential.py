"""Differential certification across every backend.

The compiled native backends are the first paths where results come
from *machine code* rather than numpy — so they are certified
differentially, not trusted: hypothesis-generated kernels
(direct/indirect, INC/RW/READ mixes, read globals, INC/MIN/MAX
reductions) run on every backend of

    {sequential, vectorized, atomics, blockcolor, native, native-atomics,
     sanitizer}

and must agree. The fuzzed kernels run after a direct prep loop that
writes their direct input.

Tolerance model (see ``backends/native.py``; ``native_threads`` is
pinned to 1 here so global reductions are deterministic in the
compiled wrappers too):

* the elemental arithmetic pool is restricted to correctly-rounded
  operations (+, -, *, /, sqrt, fabs, min, max, comparisons) and
  native code is compiled with ``-ffp-contract=off``, so dat outputs
  pin **bitwise** along matched accumulation orders: native ==
  blockcolor (identical block-color plan order) and native-atomics ==
  atomics (identical ``ATOMICS_BLOCK`` chunk order) whenever each
  location receives increments through at most one kernel statement;
* sanitizer == blockcolor always, compiler or not: both run the same
  numpy wrapper over the same blocks of the one block plan in the same
  color order;
* kernels where several INC statements alias one dat reassociate
  (numpy scatters per statement, C per element) and are ULP-bounded
  at 1e-12 relative instead, as are global reductions and all
  comparisons against sequential, whose scatter order differs
  legitimately.

``atomics`` and ``blockcolor`` are the numpy simulations of the two
compiled strategies, kept as oracles in ``tests/oracles/backends.py``;
the compiled ``native-atomics`` is an oracle too
(``tests/oracles/compiled.py``), so its pin to ``atomics`` holds two
oracles to each other (``tests/conftest.py`` registers all three).
When no C toolchain is present
both native entries transparently run ``vectorized`` and the bitwise
pins are skipped; every other assertion still holds, so this whole
suite doubles as the no-compiler fallback proof.
A derandomized seed corpus of hand-written kernels is checked in
below; the hypothesis runs are derandomized too, keeping CI stable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import op2
from repro.op2 import plan as plan_mod
from repro.op2.backends.native import toolchain

BACKENDS = ["sequential", "vectorized", "atomics", "blockcolor",
            "native", "native-atomics", "sanitizer"]
#: bitwise pins along matched accumulation orders
BITWISE_PAIRS = [("native", "blockcolor"), ("native-atomics", "atomics"),
                 ("sanitizer", "blockcolor")]
#: pins between two runs of the same numpy wrapper: they hold for every
#: kernel and without a compiler
NUMPY_PAIRS = {("sanitizer", "blockcolor")}
NATIVE_AVAILABLE = toolchain() is not None


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Blocks of 8 elements: the meshes here have at most 40 edges, so
    at the production block size every plan would be one block and the
    block-order pins would compare single-block runs."""
    monkeypatch.setattr(plan_mod, "BLOCK_SIZE", 8)


def assert_backends_agree(run_fn, bitwise=True):
    """``run_fn(backend) -> (dats: dict, reductions: dict)``.

    Runs every backend and certifies:

    1. every backend within 1e-12 relative of sequential;
    2. sanitizer == blockcolor exactly, and when ``bitwise``, native ==
       blockcolor and native-atomics == atomics exactly. The native
       pins hold when every dat
       location receives increments through at most one kernel
       statement: each pair then applies them in identical (plan /
       chunk) order, and the restricted op pool is correctly rounded.
       Pass ``bitwise=False`` for kernels where several INC statements
       alias one dat — numpy scatters per *statement* while C
       interleaves per *element*, a legitimate reassociation.
    """
    results = {backend: run_fn(backend) for backend in BACKENDS}

    ref_dats, ref_reds = results["sequential"]
    for backend in BACKENDS[1:]:
        dats, reds = results[backend]
        for name, arr in dats.items():
            np.testing.assert_allclose(
                arr, ref_dats[name], rtol=1e-12, atol=1e-13,
                err_msg=f"dat {name!r} diverged on backend {backend}")
        for name, val in reds.items():
            assert val == pytest.approx(ref_reds[name], rel=1e-12, abs=1e-13), \
                f"reduction {name!r} diverged on backend {backend}"

    for nat, ref in BITWISE_PAIRS:
        if (nat, ref) not in NUMPY_PAIRS and not (bitwise and NATIVE_AVAILABLE):
            continue
        nat_dats, _ = results[nat]
        ref_dats2, _ = results[ref]
        for name in nat_dats:
            assert np.array_equal(nat_dats[name], ref_dats2[name]), \
                f"dat {name!r}: {nat} is not bitwise-equal to {ref}"


# -- hypothesis-generated kernels ---------------------------------------

def _expressions(leaves):
    """Strategy for kernel-language expressions over the given leaves.

    Every operation in the pool is correctly rounded (IEEE 754), which
    is what licenses the bitwise accumulation-order pins; division is
    guarded away from zero and sqrt from negatives.
    """
    leaf = st.one_of(
        st.sampled_from(leaves),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
          .map(lambda v: repr(round(v, 3))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children)
              .map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
            st.tuples(children, children)
              .map(lambda t: f"min({t[0]}, {t[1]})"),
            st.tuples(children, children)
              .map(lambda t: f"max({t[0]}, {t[1]})"),
            children.map(lambda e: f"fabs({e})"),
            children.map(lambda e: f"sqrt(fabs({e}))"),
            st.tuples(children, children)
              .map(lambda t: f"({t[0]} / (fabs({t[1]}) + 1.5))"),
            st.tuples(children, children, children)
              .map(lambda t: f"({t[0]} if {t[1]} < {t[2]} else {t[2]})"),
        )

    return st.recursive(leaf, extend, max_leaves=6)


@st.composite
def fuzz_spec(draw):
    nnodes = draw(st.integers(min_value=2, max_value=20))
    nedges = draw(st.integers(min_value=1, max_value=40))
    table = draw(st.lists(
        st.tuples(st.integers(0, nnodes - 1), st.integers(0, nnodes - 1)),
        min_size=nedges, max_size=nedges))
    da = draw(st.integers(1, 3))    # indirect-READ dat dim
    dc = draw(st.integers(1, 2))    # direct-READ dat dim
    dw = draw(st.integers(1, 2))    # direct output dat dim
    rw = draw(st.booleans())        # output dat RW (read-modify) vs WRITE
    inc_col = draw(st.integers(0, 1))
    red = draw(st.sampled_from(["inc", "min", "max"]))
    leaves = ([f"a[{i}]" for i in range(da)]
              + [f"c[{i}]" for i in range(dc)] + ["g[0]"]
              + (["w[0]"] if rw else []))
    exprs = _expressions(leaves)
    w_exprs = tuple(draw(exprs) for _ in range(dw))
    inc_expr = draw(exprs)
    red_expr = draw(exprs)
    seed = draw(st.integers(0, 2**31 - 1))
    return (nnodes, np.array(table, dtype=np.int64), da, dc, dw, rw,
            inc_col, red, w_exprs, inc_expr, red_expr, seed)


def _fuzz_kernel_source(dw, rw, red, w_exprs, inc_expr, red_expr):
    lines = ["def fuzz(a, c, g, w, inc, red):"]
    for j, expr in enumerate(w_exprs):
        lines.append(f"    w[{j}] = {expr}")
    lines.append(f"    inc[0] += {inc_expr}")
    if red == "inc":
        lines.append(f"    red[0] += {red_expr}")
    else:
        lines.append(f"    red[0] = {red}(red[0], {red_expr})")
    return "\n".join(lines)


#: direct prep loop run ahead of the fuzz kernel — reads/writes the
#: fuzz kernel's direct input
FUZZ_PREP = """
def fuzz_prep(c):
    c[0] = 0.5 * c[0] + 0.125
"""


@given(fuzz_spec())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_fuzzed_kernels_agree(spec):
    (nnodes, table, da, dc, dw, rw, inc_col, red,
     w_exprs, inc_expr, red_expr, seed) = spec
    source = _fuzz_kernel_source(dw, rw, red, w_exprs, inc_expr, red_expr)
    kernel = op2.Kernel(source)     # one kernel: wrappers compile once
    prep = op2.Kernel(FUZZ_PREP)
    nedges = table.shape[0]
    red_access, red_init = {
        "inc": (op2.INC, 0.0), "min": (op2.MIN, np.inf),
        "max": (op2.MAX, -np.inf)}[red]

    def run(backend):
        rng = np.random.default_rng(seed)
        nodes = op2.Set(nnodes, "nodes")
        edges = op2.Set(nedges, "edges")
        emap = op2.Map(edges, nodes, 2, table, "emap")
        a = op2.Dat(nodes, da, rng.normal(size=(nnodes, da)), name="a")
        c = op2.Dat(edges, dc, rng.normal(size=(nedges, dc)), name="c")
        w = op2.Dat(edges, dw, rng.normal(size=(nedges, dw)), name="w")
        inc = op2.Dat(nodes, 1, rng.normal(size=(nnodes, 1)), name="inc")
        g = op2.Global(1, 0.75, name="g")
        r = op2.Global(1, red_init, name="r")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(prep, edges, c.arg(op2.RW))
            op2.par_loop(kernel, edges,
                         a.arg(op2.READ, emap, 0), c.arg(op2.READ),
                         g.arg(op2.READ),
                         w.arg(op2.RW if rw else op2.WRITE),
                         inc.arg(op2.INC, emap, inc_col),
                         r.arg(red_access))
        return ({"w": w.data_ro.copy(), "inc": inc.data_ro.copy()},
                {"r": r.value})

    assert_backends_agree(run)


# -- derandomized seed corpus -------------------------------------------
# Hand-written kernels pinning the structural cases the fuzzer draws
# from (and some it cannot): for-loops, integer index arithmetic,
# vector (idx=ALL) arguments, MIN/MAX reductions, RW updates.

SAXPY = """
def saxpy(x, y, g):
    for j in range(3):
        y[j] = 2.5 * x[j] + g[0]
"""

EDGE_FLUX = """
def edge_flux(x1, x2, q1, q2, r1, r2, rms):
    dx = x1[0] - x2[0]
    qa = 0.5 * (q1[0] + q2[0])
    f = qa * dx + fabs(qa) * (x1[1] - x2[1])
    lim = f if f < 1.0 else 1.0
    r1[0] += lim
    r2[0] -= lim
    rms[0] += f * f
"""

CELL_GATHER = """
def cell_gather(xs, out, lo, hi):
    acc = 0.0
    for i in range(3):
        acc = acc + xs[i, 0] * xs[i, 1]
    out[0] = acc
    lo[0] = min(lo[0], acc)
    hi[0] = max(hi[0], acc)
"""

INT_INDEX = """
def int_index(x, y):
    for i in range(4):
        j = min(i, 2)
        y[i] = x[j] + abs(i - 3) * 0.5
"""

RW_UPDATE = """
def rw_update(r, q, norm):
    q[0] = q[0] * 0.9 + r[0]
    norm[0] += q[0] * q[0]
"""


def _mesh(seed, nnodes=17, nedges=33, arity=2):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, nnodes, size=(nedges, arity))
    return nnodes, nedges, table, rng


def test_corpus_saxpy_direct():
    kernel = op2.Kernel(SAXPY)

    def run(backend):
        rng = np.random.default_rng(11)
        cells = op2.Set(20, "cells")
        x = op2.Dat(cells, 3, rng.normal(size=(20, 3)), name="x")
        y = op2.Dat(cells, 3, name="y")
        g = op2.Global(1, -0.25, name="g")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(kernel, cells, x.arg(op2.READ),
                         y.arg(op2.WRITE), g.arg(op2.READ))
        return {"y": y.data_ro.copy()}, {}
    assert_backends_agree(run)


def test_corpus_edge_flux_indirect_inc():
    nnodes, nedges, table, _ = _mesh(5)
    kernel = op2.Kernel(EDGE_FLUX)

    def run(backend):
        rng = np.random.default_rng(7)
        nodes = op2.Set(nnodes, "nodes")
        edges = op2.Set(nedges, "edges")
        pedge = op2.Map(edges, nodes, 2, table, "pedge")
        x = op2.Dat(nodes, 2, rng.normal(size=(nnodes, 2)), name="x")
        q = op2.Dat(nodes, 1, rng.normal(size=(nnodes, 1)), name="q")
        res = op2.Dat(nodes, 1, rng.normal(size=(nnodes, 1)), name="res")
        rms = op2.Global(1, 0.0, name="rms")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(kernel, edges,
                         x.arg(op2.READ, pedge, 0),
                         x.arg(op2.READ, pedge, 1),
                         q.arg(op2.READ, pedge, 0),
                         q.arg(op2.READ, pedge, 1),
                         res.arg(op2.INC, pedge, 0),
                         res.arg(op2.INC, pedge, 1),
                         rms.arg(op2.INC))
        return {"res": res.data_ro.copy()}, {"rms": rms.value}
    # two INC statements alias `res`: reassociation only, not bitwise
    assert_backends_agree(run, bitwise=False)


def test_corpus_vector_args_min_max():
    nnodes, ncells, table, _ = _mesh(9, nnodes=14, nedges=25, arity=3)
    kernel = op2.Kernel(CELL_GATHER)

    def run(backend):
        rng = np.random.default_rng(3)
        nodes = op2.Set(nnodes, "nodes")
        cells = op2.Set(ncells, "cells")
        pcell = op2.Map(cells, nodes, 3, table, "pcell")
        xs = op2.Dat(nodes, 2, rng.normal(size=(nnodes, 2)), name="xs")
        out = op2.Dat(cells, 1, name="out")
        lo = op2.Global(1, np.inf, name="lo")
        hi = op2.Global(1, -np.inf, name="hi")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(kernel, cells,
                         xs.arg(op2.READ, pcell, op2.ALL),
                         out.arg(op2.WRITE),
                         lo.arg(op2.MIN), hi.arg(op2.MAX))
        return {"out": out.data_ro.copy()}, {"lo": lo.value, "hi": hi.value}
    assert_backends_agree(run)


def test_corpus_integer_index_math():
    """abs/min over integer locals in array-index position (the
    type-aware ``_C_MATH`` fix) must agree across every backend."""
    kernel = op2.Kernel(INT_INDEX)

    def run(backend):
        rng = np.random.default_rng(13)
        cells = op2.Set(12, "cells")
        x = op2.Dat(cells, 4, rng.normal(size=(12, 4)), name="x")
        y = op2.Dat(cells, 4, name="y")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(kernel, cells, x.arg(op2.READ),
                         y.arg(op2.WRITE))
        return {"y": y.data_ro.copy()}, {}
    assert_backends_agree(run)


def test_corpus_rw_update_with_reduction():
    kernel = op2.Kernel(RW_UPDATE)

    def run(backend):
        rng = np.random.default_rng(17)
        cells = op2.Set(31, "cells")
        r = op2.Dat(cells, 1, rng.normal(size=(31, 1)), name="r")
        q = op2.Dat(cells, 1, rng.normal(size=(31, 1)), name="q")
        norm = op2.Global(1, 0.0, name="norm")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(kernel, cells, r.arg(op2.READ),
                         q.arg(op2.RW), norm.arg(op2.INC))
        return {"q": q.data_ro.copy()}, {"norm": norm.value}
    assert_backends_agree(run)


def test_corpus_fused_pair_direct_then_indirect():
    """Two dependent loops (direct RW prep, then indirect INC
    consumer), certified across every backend."""
    nnodes, nedges, table, _ = _mesh(21)
    prep = op2.Kernel(FUZZ_PREP)
    kernel = op2.Kernel(EDGE_FLUX)

    def run(backend):
        rng = np.random.default_rng(23)
        nodes = op2.Set(nnodes, "nodes")
        edges = op2.Set(nedges, "edges")
        pedge = op2.Map(edges, nodes, 2, table, "pedge")
        x = op2.Dat(nodes, 2, rng.normal(size=(nnodes, 2)), name="x")
        q = op2.Dat(nodes, 1, rng.normal(size=(nnodes, 1)), name="q")
        res = op2.Dat(nodes, 1, rng.normal(size=(nnodes, 1)), name="res")
        c = op2.Dat(edges, 1, rng.normal(size=(nedges, 1)), name="c")
        rms = op2.Global(1, 0.0, name="rms")
        with op2.configure(backend=backend, native_threads=1):
            op2.par_loop(prep, edges, c.arg(op2.RW))
            op2.par_loop(kernel, edges,
                         x.arg(op2.READ, pedge, 0),
                         x.arg(op2.READ, pedge, 1),
                         q.arg(op2.READ, pedge, 0),
                         q.arg(op2.READ, pedge, 1),
                         res.arg(op2.INC, pedge, 0),
                         res.arg(op2.INC, pedge, 1),
                         rms.arg(op2.INC))
        return ({"c": c.data_ro.copy(), "res": res.data_ro.copy()},
                {"rms": rms.value})
    # EDGE_FLUX aliases `res` through two INC statements: not bitwise
    assert_backends_agree(run, bitwise=False)
