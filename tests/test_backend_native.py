"""Native backend runtime behaviour: caching, fallback, threads, chain.

The differential suite (``test_backend_differential.py``) certifies
*results*; this file certifies the *machinery* around them — the
on-disk compile cache (hits, corruption recovery), the warn-once
vectorized fallback when the toolchain is missing or broken, thread
and chain integration, and distributed execution.
"""

import os
import stat
import warnings

import numpy as np
import pytest

from repro import op2, telemetry
from repro.op2.backends import native as native_mod
from repro.op2.backends.native import (cache_dir, reset_native_state,
                                       toolchain)

HAVE_CC = toolchain() is not None

SAXPY = """
def nsaxpy(x, y, g):
    y[0] = 2.0 * x[0] + g[0]
"""

FLUX = """
def nflux(a, b, out, tot):
    f = 0.5 * (a[0] - b[0])
    out[0] += f
    tot[0] += f * f
"""


@pytest.fixture(autouse=True)
def _fresh_native(tmp_path, monkeypatch):
    """Isolate every test: private cache dir, re-armed warn-once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_native_state()
    yield
    reset_native_state()


def _run_flux(backend, kernel=None):
    rng = np.random.default_rng(42)
    nodes = op2.Set(9, "nodes")
    edges = op2.Set(14, "edges")
    table = rng.integers(0, 9, size=(14, 2))
    emap = op2.Map(edges, nodes, 2, table, "emap")
    a = op2.Dat(nodes, 1, rng.normal(size=(9, 1)), name="a")
    out = op2.Dat(nodes, 1, np.zeros((9, 1)), name="out")
    tot = op2.Global(1, 0.0, name="tot")
    op2.par_loop(kernel or op2.Kernel(FLUX), edges,
                 a.arg(op2.READ, emap, 0), a.arg(op2.READ, emap, 1),
                 out.arg(op2.INC, emap, 0), tot.arg(op2.INC),
                 backend=backend)
    return out.data_ro.copy(), tot.value


# -- fallback: missing / broken toolchain --------------------------------

def test_missing_compiler_warns_once_and_matches_vectorized(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler-xyz")
    assert toolchain() is None
    ref = _run_flux("vectorized")
    kernel = op2.Kernel(FLUX)
    with telemetry.tracing() as rec:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got_first = _run_flux("native", kernel)
            got_second = _run_flux("native", kernel)
    notices = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(notices) == 1, "fallback must warn exactly once"
    assert "falling back" in str(notices[0].message)
    # the fallback IS the vectorized backend: bitwise identical
    assert np.array_equal(got_first[0], ref[0]) and got_first[1] == ref[1]
    assert np.array_equal(got_second[0], ref[0])
    assert rec.counters.get("op2.native.fallback", 0) >= 2


def test_broken_compiler_falls_back(tmp_path, monkeypatch):
    bad_cc = tmp_path / "broken-cc"
    bad_cc.write_text("#!/bin/sh\necho 'ICE: catastrophe' >&2\nexit 1\n")
    bad_cc.chmod(bad_cc.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("REPRO_CC", str(bad_cc))
    assert toolchain() is not None  # discovered, but it cannot compile
    ref = _run_flux("vectorized")
    with telemetry.tracing() as rec:
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = _run_flux("native")
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    assert rec.counters.get("op2.native.fallback", 0) >= 1
    assert not list(cache_dir().glob("*.so"))  # nothing half-built


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_corrupted_cache_entry_recompiles():
    """A garbage object left by a previous process must be rebuilt.

    The corruption is planted *before* any load: an object that is
    already dlopen'd stays mmap'd, and clobbering a mapped file is
    undefined behaviour no userspace cache can defend against — the
    realistic failure is a truncated/stale entry from an earlier run.
    """
    from repro.op2.parloop import ParLoop

    kernel = op2.Kernel(SAXPY)

    def build_args(k):
        rng = np.random.default_rng(1)
        cells = op2.Set(8, "cells")
        x = op2.Dat(cells, 1, rng.normal(size=(8, 1)), name="x")
        y = op2.Dat(cells, 1, name="y")
        g = op2.Global(1, 0.5, name="g")
        return cells, [x.arg(op2.READ), y.arg(op2.WRITE),
                       g.arg(op2.READ)], y

    cells, args, _ = build_args(kernel)
    nsig = ParLoop(kernel, cells, args).native_signature()
    so_path = native_mod.compiled_path(kernel, nsig)
    so_path.parent.mkdir(parents=True, exist_ok=True)
    so_path.write_bytes(b"this is not a shared object")

    with telemetry.tracing() as rec:
        cells, args, y = build_args(kernel)
        op2.par_loop(kernel, cells, *args, backend="native")
    np.testing.assert_allclose(
        y.data_ro[:, 0], 2.0 * args[0].data.data_ro[:, 0] + 0.5,
        rtol=1e-15)
    assert rec.counters.get("op2.native.cache_corrupt", 0) == 1
    assert rec.counters.get("op2.native.compile", 0) == 1


# -- cache behaviour -----------------------------------------------------

@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_cache_hit_counters():
    with telemetry.tracing() as rec:
        kernel = op2.Kernel(FLUX)
        _run_flux("native", kernel)           # compile
        _run_flux("native", kernel)           # in-process memo hit
        _run_flux("native", op2.Kernel(FLUX))  # fresh kernel: disk hit
    assert rec.counters.get("op2.native.compile") == 1
    assert rec.counters.get("op2.native.cache_hit_mem", 0) >= 1
    assert rec.counters.get("op2.native.cache_hit_disk") == 1
    cached = sorted(p.name for p in cache_dir().iterdir())
    assert len([n for n in cached if n.endswith(".so")]) == 1
    assert len([n for n in cached if n.endswith(".c")]) == 1


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_cache_key_includes_flags(monkeypatch):
    _run_flux("native")
    monkeypatch.setenv("REPRO_CFLAGS", "-O0 -ffp-contract=off")
    _run_flux("native", op2.Kernel(FLUX))
    assert len(list(cache_dir().glob("*.so"))) == 2


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_cold_cache_many_process_ranks():
    """Forked ranks meeting an empty cache all build the same wrappers
    at once; none may see a sibling's half-written file and degrade."""
    from repro.smpi import run_ranks

    sources = [FLUX, FLUX.replace("0.5", "0.25"), FLUX.replace("0.5", "0.75")]

    def rank_fn(comm):
        warnings.simplefilter("error")  # a fallback warning fails the rank
        # ranks are the parallelism; libgomp's pool does not survive fork
        op2.set_config(native_threads=1)
        return [_run_flux("native", op2.Kernel(src))[1] for src in sources]

    totals = run_ranks(12, rank_fn, transport="process")
    assert all(t == totals[0] for t in totals)
    assert len(list(cache_dir().glob("*.so"))) == len(sources)


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_generated_source_is_inspectable():
    kernel = op2.Kernel(FLUX)
    _run_flux("native", kernel)
    sources = kernel.generated_sources()
    native_sources = [s for k, s in sources.items() if k[0] == "native"]
    assert len(native_sources) == 1
    assert "op_native_nflux" in native_sources[0]
    assert "#pragma omp parallel" in native_sources[0]


# -- config / execution integration --------------------------------------

@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_native_threads_config_matches_serial():
    ref = _run_flux("sequential")
    for nt in (1, 2, 4):
        with op2.configure(native_threads=nt):
            got = _run_flux("native")
        np.testing.assert_allclose(got[0], ref[0], rtol=1e-12, atol=1e-13)
        assert got[1] == pytest.approx(ref[1], rel=1e-12)


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_native_under_lazy_chain_is_bitwise_eager():
    from repro.apps import AirfoilApp, make_airfoil_mesh

    mesh = make_airfoil_mesh(ni=12, nj=6)

    def run(lazy):
        with op2.configure(backend="native", lazy=lazy):
            app = AirfoilApp(mesh, mach=0.35)
            app.iterate(3)
            op2.flush_chain()
            return app.q.data_ro.copy()

    assert np.array_equal(run(False), run(True))


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_native_distributed_matches_vectorized():
    from repro.apps import (AirfoilApp, airfoil_owners, airfoil_problem,
                            make_airfoil_mesh)
    from repro.op2.distribute import (build_local_problem, gather_dat,
                                      plan_distribution)
    from repro.smpi import run_ranks

    mesh = make_airfoil_mesh(ni=12, nj=6)
    gp = airfoil_problem(mesh, mach=0.35)

    def run(backend, nranks):
        layouts = plan_distribution(gp, nranks,
                                    airfoil_owners(mesh, nranks))

        def rank_fn(comm):
            op2.set_config(backend=backend)
            local = build_local_problem(gp, layouts[comm.rank], comm)
            app = AirfoilApp.from_local(mesh, local, mach=0.35)
            app.iterate(3)
            return gather_dat(comm, app.q, layouts[comm.rank], mesh.ncell)

        return run_ranks(nranks, rank_fn)[0]

    for nranks in (1, 4):
        q_v = run("vectorized", nranks)
        q_n = run("native", nranks)
        np.testing.assert_allclose(q_n, q_v, rtol=1e-9, atol=1e-12)


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_non_float64_dat_routes_to_fallback_without_warning():
    rng = np.random.default_rng(2)
    cells = op2.Set(6, "cells")
    x = op2.Dat(cells, 1, rng.normal(size=(6, 1)).astype(np.float32),
                dtype=np.float32, name="x32")
    y = op2.Dat(cells, 1, dtype=np.float32, name="y32")
    g = op2.Global(1, 0.5, name="g")
    with telemetry.tracing() as rec:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            op2.par_loop(op2.Kernel(SAXPY), cells, x.arg(op2.READ),
                         y.arg(op2.WRITE), g.arg(op2.READ),
                         backend="native")
    assert rec.counters.get("op2.native.unsupported", 0) >= 1
    np.testing.assert_allclose(
        np.asarray(y.data_ro, dtype=np.float64)[:, 0],
        2.0 * np.asarray(x.data_ro, dtype=np.float64)[:, 0] + 0.5,
        rtol=1e-6)


def test_toolchain_discovery_respects_repro_cc(monkeypatch):
    monkeypatch.delenv("REPRO_CC", raising=False)
    if HAVE_CC:
        cc, flags = toolchain()
        assert os.path.isabs(cc)
        assert "-ffp-contract=off" in flags
    monkeypatch.setenv("REPRO_CFLAGS", "-O1")
    if HAVE_CC:
        assert toolchain()[1] == ["-O1"]


def test_native_backend_registered():
    from repro.op2.backends import BACKENDS, resolve_backend

    assert "native" in BACKENDS
    assert resolve_backend("native") is native_mod.NativeBackend or \
        isinstance(resolve_backend("native"), native_mod.NativeBackend)


def test_native_atomics_backend_registered():
    from repro.op2.backends import BACKENDS, resolve_backend

    assert "native-atomics" in BACKENDS
    backend = resolve_backend("native-atomics")
    assert isinstance(backend, native_mod.NativeAtomicsBackend)
    assert backend.strategy == "atomics"
    # degraded runs must keep atomics accumulation semantics
    assert backend._fallback.name == "atomics"


# -- reset_native_state must clear cached plan-ABI arrays ----------------

def test_reset_native_state_clears_plan_native_cache():
    """Regression: the flattened plan arrays cached on BlockPlans
    survived ``reset_native_state()``, so backend-switching tests
    could observe stale ABI arrays after a toolchain/config change."""
    from repro.op2 import plan as plan_mod

    rng = np.random.default_rng(7)
    nodes = op2.Set(9, "nodes")
    edges = op2.Set(14, "edges")
    emap = op2.Map(edges, nodes, 2, rng.integers(0, 9, size=(14, 2)), "m")
    out = op2.Dat(nodes, 1, np.zeros((9, 1)), name="out")
    args = [out.arg(op2.INC, emap, 0)]
    plan = plan_mod.build_block_plan(args, 14, block_size=4)
    plan.native_arrays(0, 14)
    assert plan._native_cache, "plan must have cached native arrays"
    reset_native_state()
    assert not plan._native_cache, \
        "reset_native_state must drop cached native plan arrays"
    # the plan itself (the coloring) survives: only the ABI arrays go
    assert plan_mod.build_block_plan(args, 14, block_size=4) is plan


# -- native-atomics runtime ----------------------------------------------

@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_native_atomics_matches_numpy_atomics_bitwise():
    ref = _run_flux("atomics")
    with op2.configure(native_threads=1):
        got = _run_flux("native-atomics")
    # one INC statement per dat + single thread: accumulation order is
    # element order in both forms, so dats are bitwise-identical
    assert np.array_equal(got[0], ref[0])
    assert got[1] == pytest.approx(ref[1], rel=1e-12)


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_native_atomics_counters_and_no_plan():
    with telemetry.tracing() as rec:
        with op2.configure(native_threads=1):
            _run_flux("native-atomics")
    assert rec.counters.get("op2.native.atomics_loops", 0) >= 1
    assert rec.counters.get("op2.native.atomics_blocks", 0) >= 1
    assert rec.counters.get("op2.plan.build", 0) == 0, \
        "the atomics strategy must never build a block-color plan"


def test_native_atomics_missing_compiler_falls_back_to_atomics(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler-xyz")
    ref = _run_flux("atomics")
    with pytest.warns(RuntimeWarning, match="atomics backend"):
        got = _run_flux("native-atomics")
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]


# -- fused chain execution -----------------------------------------------

PREP = """
def nprep(w):
    w[0] = 1.5 * w[0] + 0.25
"""

FLUX2 = """
def nflux2(w, a, b, out, tot):
    f = w[0] * (a[0] - b[0])
    out[0] += f
    tot[0] += f * f
"""


SCALE32 = """
def nscale32(s):
    s[0] = 2.0 * s[0] + 1.0
"""


def _run_fused_pair(backend, lazy, nthreads=1, mixed=False):
    """The fusable pair; ``mixed`` appends a third same-set loop on a
    float32 dat (outside the compiled ABI) and returns its data too."""
    rng = np.random.default_rng(11)
    nodes = op2.Set(9, "nodes")
    edges = op2.Set(14, "edges")
    emap = op2.Map(edges, nodes, 2, rng.integers(0, 9, size=(14, 2)), "m")
    a = op2.Dat(nodes, 1, rng.normal(size=(9, 1)), name="a")
    w = op2.Dat(edges, 1, rng.normal(size=(14, 1)), name="w")
    out = op2.Dat(nodes, 1, np.zeros((9, 1)), name="out")
    tot = op2.Global(1, 0.0, name="tot")
    extra = []
    with op2.configure(backend=backend, lazy=lazy, native_threads=nthreads):
        with op2.loop_chain("pair", enabled=lazy):
            op2.par_loop(op2.Kernel(PREP), edges, w.arg(op2.RW))
            op2.par_loop(op2.Kernel(FLUX2), edges, w.arg(op2.READ),
                         a.arg(op2.READ, emap, 0), a.arg(op2.READ, emap, 1),
                         out.arg(op2.INC, emap, 0), tot.arg(op2.INC))
            if mixed:
                s32 = op2.Dat(edges, 1, dtype=np.float32, name="s32",
                              data=rng.normal(size=(14, 1)).astype(np.float32))
                op2.par_loop(op2.Kernel(SCALE32), edges, s32.arg(op2.RW))
                extra.append(s32)
    return (out.data_ro.copy(), tot.value,
            *(d.data_ro.copy() for d in extra))


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
@pytest.mark.parametrize("backend", ["native", "native-atomics"])
def test_fused_chain_bitwise_equals_eager(backend):
    eager = _run_fused_pair(backend, lazy=False)
    op2.reset_chain_stats()
    lazy = _run_fused_pair(backend, lazy=True)
    st = op2.chain_stats().as_dict()
    assert st["fused"] >= 1, "the pair must actually fuse"
    assert np.array_equal(eager[0], lazy[0])
    assert eager[1] == lazy[1]


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_fused_chain_counters_and_single_wrapper():
    with telemetry.tracing() as rec:
        _run_fused_pair("native", lazy=True)
    assert rec.counters.get("op2.native.fused_groups", 0) >= 1
    assert rec.counters.get("op2.native.fused_loops", 0) >= 2
    # the whole group compiles into ONE translation unit, named by the
    # same stem rule as a group of one ("_"-joined kernel names)
    objs = list(cache_dir().glob("*.so"))
    assert len(objs) == 1 and objs[0].name.startswith("nprep_nflux2_")
    fused_src = objs[0].with_suffix(".c").read_text()
    assert fused_src.count("#pragma omp parallel") == 1
    assert "void op_native_nprep__nflux2(" in fused_src


def test_fused_chain_missing_compiler_degrades_bitwise(monkeypatch):
    """With no toolchain the fused group must degrade per-loop through
    the same backend's fallback — lazy stays bitwise-equal to eager."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/compiler-xyz")
    for backend in ("native", "native-atomics"):
        reset_native_state()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with telemetry.tracing() as rec:
                eager = _run_fused_pair(backend, lazy=False)
                lazy = _run_fused_pair(backend, lazy=True)
        assert rec.counters.get("op2.native.fused_fallback", 0) >= 1
        assert np.array_equal(eager[0], lazy[0])
        assert eager[1] == lazy[1]


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_mixed_capability_group_degrades_to_singletons():
    """One float32 loop in a chain group: the group degrades to groups
    of one, the float64 loops still run compiled, nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        eager = _run_fused_pair("native", lazy=False, mixed=True)
        op2.reset_chain_stats()
        with telemetry.tracing() as rec:
            lazy = _run_fused_pair("native", lazy=True, mixed=True)
    assert op2.chain_stats().fused == 2, "all three loops form one group"
    assert rec.counters.get("op2.native.fused_fallback", 0) >= 1
    assert rec.counters.get("op2.native.unsupported", 0) >= 1
    assert rec.counters.get("op2.native.fused_groups", 0) == 0
    assert rec.counters.get("op2.native.fallback", 0) == 0
    # fresh kernels, warm disk cache: both float64 singletons load their
    # compiled wrapper and nothing is rebuilt
    assert rec.counters.get("op2.native.cache_hit_disk", 0) == 2
    assert rec.counters.get("op2.native.compile", 0) == 0
    assert {p.name.rsplit("_", 1)[0] for p in cache_dir().glob("*.so")} \
        == {"nprep", "nflux2"}
    for e, l in zip(eager, lazy):
        assert np.array_equal(e, l)


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")
def test_fused_wrapper_reuses_disk_cache():
    with telemetry.tracing() as rec:
        _run_fused_pair("native", lazy=True)
        before = rec.counters.get("op2.native.compile", 0)
        _run_fused_pair("native", lazy=True)  # fresh kernels: memo misses
        assert rec.counters.get("op2.native.compile", 0) == before, \
            "second flush must reuse the compiled fused wrapper from disk"
        assert rec.counters.get("op2.native.cache_hit_disk", 0) >= 1
