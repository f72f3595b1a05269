"""C source generation: the compiled native wrappers, and the CUDA/OpenMP
display text (``tests/oracles/csource_text.py``) and compiled atomics
wrapper (``tests/oracles/compiled.py``) built on the same
elemental translation — the paper's Fig. 4 outputs.

The native generator additionally has *golden* tests: its output is
compared verbatim against checked-in ``tests/golden/native/*.c`` files,
the atomics oracle's against ``tests/golden/oracles/*.c`` (each
verified to compile standalone), so any codegen drift fails with a
readable unified diff instead of a compile error three layers away.
"""

import difflib
from pathlib import Path

import pytest

from repro import op2
from repro.hydra.kernels import KERNELS
from repro.op2.codegen.csource import (generate_native, native_entry_name,
                                       native_is_planned)
from repro.op2.kernel import KernelParseError
from tests.oracles.compiled import entry_name, generate_oracle
from tests.oracles.csource_text import generate_cuda, generate_openmp

GOLDEN_DIR = Path(__file__).parent / "golden"

FLUX_SIG = (
    ("dat", op2.READ, "idx", 5, 2),
    ("dat", op2.READ, "idx", 5, 2),
    ("dat", op2.READ, "direct", 3, 0),
    ("dat", op2.INC, "idx", 5, 2),
    ("dat", op2.INC, "idx", 5, 2),
    ("gbl", op2.READ, 1),
)


class TestCUDA:
    def test_flux_kernel_structure(self):
        src = generate_cuda(KERNELS["flux_edge"], FLUX_SIG)
        assert "__global__ void op_cuda_flux_edge(" in src
        assert "__device__ inline void flux_edge_gpu(" in src
        assert "blockIdx.x * blockDim.x + threadIdx.x" in src
        # indirect increments become atomics — the paper's GPU strategy
        assert "atomicAdd(&r1[0]" in src
        assert "atomicAdd(&r2[4]" in src
        # decrements are negated atomic adds
        assert "atomicAdd(&r2[0], -(" in src
        # indirect reads are gathered through the map
        assert "a0 + m0[n] * 5" in src
        # constants are plain pointer args
        assert "const double *g5" in src

    def test_math_functions_mapped_to_c(self):
        src = generate_cuda(KERNELS["flux_edge"], FLUX_SIG)
        assert "sqrt(" in src
        assert "op2_max(" in src
        assert "fabs(" in src
        assert "_np" not in src  # no Python leakage

    def test_reduction_global_gets_atomic_fold(self):
        def k(x, s):
            s[0] += x[0] * x[0]

        sig = (("dat", op2.READ, "direct", 1, 0), ("gbl", op2.INC, 1))
        src = generate_cuda(op2.Kernel(k, name="norm_k"), sig)
        assert "double s_l[1] = {0.0};" in src
        assert "atomicAdd(&g1[d], s_l[d]);" in src

    def test_conditional_expression_becomes_ternary(self):
        def k(x, y):
            y[0] = x[0] if x[0] > 0.0 else 0.0

        sig = (("dat", op2.READ, "direct", 1, 0),
               ("dat", op2.WRITE, "direct", 1, 0))
        src = generate_cuda(op2.Kernel(k, name="relu_k"), sig)
        assert "?" in src and ":" in src
        assert "(x[0] > 0.0)" in src

    def test_for_loop_translated(self):
        def k(x, s):
            for i in range(5):
                s[0] += x[i]

        sig = (("dat", op2.READ, "direct", 5, 0), ("gbl", op2.INC, 1))
        src = generate_cuda(op2.Kernel(k, name="sum_k"), sig)
        assert "for (int i = 0; i < 5; i++) {" in src

    def test_vector_args_indexed_through_map(self):
        def k(xs, out):
            out[0] = xs[0, 0] + xs[1, 0]

        sig = (("dat", op2.READ, "all", 3, 2),
               ("dat", op2.WRITE, "direct", 1, 0))
        src = generate_cuda(op2.Kernel(k, name="pair_k"), sig)
        assert "xs_base[xs_map[0] * 3 + 0]" in src
        assert "xs_base[xs_map[1] * 3 + 0]" in src

    def test_arity_mismatch_rejected(self):
        def k(x):
            x[0] = 1.0

        with pytest.raises(KernelParseError, match="parameters"):
            generate_cuda(op2.Kernel(k), FLUX_SIG)


class TestOpenMP:
    def test_block_color_plan_loop(self):
        src = generate_openmp(KERNELS["flux_edge"], FLUX_SIG)
        assert "void op_omp_flux_edge(" in src
        assert "#pragma omp parallel for" in src
        # colors are serial, blocks within a color are parallel —
        # exactly the BlockColorBackend's execution order
        assert "for (int col = 0; col < plan->ncolors; col++)" in src
        assert "plan->blkmap[" in src
        # no atomics needed: the plan guarantees conflict-freedom
        assert "atomicAdd" not in src

    def test_elemental_function_is_host_inline(self):
        src = generate_openmp(KERNELS["flux_edge"], FLUX_SIG)
        assert "static inline void flux_edge(" in src
        assert "__device__" not in src

    def test_plain_increment_in_host_code(self):
        src = generate_openmp(KERNELS["flux_edge"], FLUX_SIG)
        assert "r1[0] += " in src
        assert "r2[0] -= " in src


class TestEveryHydraKernelGenerates:
    """Every kernel of the real solver must translate to both targets."""

    SIGS = {
        "zero_res": (("dat", op2.WRITE, "direct", 5, 0),),
        "flux_edge": FLUX_SIG,
        "wall_flux": (("dat", op2.READ, "idx", 5, 1),
                      ("dat", op2.READ, "direct", 1, 0),
                      ("dat", op2.INC, "idx", 5, 1),
                      ("gbl", op2.READ, 1)),
        "rk_stage": (("dat", op2.READ, "direct", 5, 0),
                     ("dat", op2.READ, "direct", 5, 0),
                     ("dat", op2.READ, "direct", 1, 0),
                     ("dat", op2.READ, "direct", 1, 0),
                     ("dat", op2.WRITE, "direct", 5, 0),
                     ("gbl", op2.READ, 1)),
        "local_dt": (("dat", op2.READ, "direct", 5, 0),
                     ("gbl", op2.READ, 1), ("gbl", op2.READ, 1),
                     ("gbl", op2.READ, 1), ("gbl", op2.MIN, 1)),
    }

    @pytest.mark.parametrize("name", sorted(SIGS))
    def test_generates_both_targets(self, name):
        kern = KERNELS[name]
        cuda = generate_cuda(kern, self.SIGS[name])
        omp = generate_openmp(kern, self.SIGS[name])
        assert f"op_cuda_{name}" in cuda
        assert f"op_omp_{name}" in omp
        # balanced braces: crude but effective syntax smoke test
        assert cuda.count("{") == cuda.count("}")
        assert omp.count("{") == omp.count("}")


def test_min_reduction_uses_cas_atomic():
    def k(x, lo):
        lo[0] = min(lo[0], x[0])

    sig = (("dat", op2.READ, "direct", 1, 0), ("gbl", op2.MIN, 1))
    src = generate_cuda(op2.Kernel(k, name="min_k"), sig)
    assert "double lo_l[1] = {INFINITY};" in src
    assert "op_atomic_min_double(&g1[d], lo_l[d]);" in src
    assert "atomicAdd(&g1" not in src


class TestCrossAppGeneration:
    """The C generators must handle every app's kernels, including the
    FEM vector-argument motif."""

    def test_fem_stiffness_vector_args(self):
        from repro.apps.fem import stiffness

        sig = (("dat", op2.READ, "all", 2, 3), ("dat", op2.READ, "all", 1, 3),
               ("dat", op2.INC, "all", 1, 3))
        src = generate_cuda(op2.Kernel(stiffness), sig)
        # vector reads go through the map...
        assert "xs_base[xs_map[1] * 2 + 1]" in src
        # ...and vector INC becomes an atomic through the map
        assert "atomicAdd(&r_base[r_map[0] * 1 + 0]" in src
        assert src.count("{") == src.count("}")

    def test_airfoil_res_calc(self):
        from repro.apps.airfoil import res_calc

        sig = (("dat", op2.READ, "idx", 2, 2), ("dat", op2.READ, "idx", 2, 2),
               ("dat", op2.READ, "idx", 4, 2), ("dat", op2.READ, "idx", 4, 2),
               ("dat", op2.READ, "idx", 1, 2), ("dat", op2.READ, "idx", 1, 2),
               ("dat", op2.INC, "idx", 4, 2), ("dat", op2.INC, "idx", 4, 2))
        cuda = generate_cuda(op2.Kernel(res_calc), sig)
        omp = generate_openmp(op2.Kernel(res_calc), sig)
        assert "atomicAdd(&res1[0]" in cuda
        assert "res1[0] += " in omp

    def test_turbulence_kernels(self):
        from repro.hydra.turbulence import KERNELS as TURB

        sig = (("dat", op2.READ, "idx", 5, 2), ("dat", op2.READ, "idx", 5, 2),
               ("dat", op2.READ, "idx", 1, 2), ("dat", op2.READ, "idx", 1, 2),
               ("dat", op2.READ, "direct", 3, 0),
               ("dat", op2.INC, "idx", 1, 2), ("dat", op2.INC, "idx", 1, 2))
        src = generate_cuda(TURB["nut_flux_edge"], sig)
        assert "__global__ void op_cuda_nut_flux_edge" in src
        assert src.count("{") == src.count("}")


# -- native (compiled) wrapper generation --------------------------------

GOLDEN_FLUX = """
def golden_flux(x1, x2, w, r1, r2, rms):
    f = w[0] * (x1[0] - x2[0])
    r1[0] += f
    r2[0] -= f
    rms[0] += f * f
"""

GOLDEN_UPDATE = """
def golden_update(q, qold, res, adt, g, change):
    adti = 1.0 / adt[0]
    for i in range(4):
        d = adti * res[i]
        q[i] = qold[i] - d * g[0]
        change[0] = max(change[0], fabs(d))
"""

#: native signatures carry the map column (6-tuples for dats): the
#: compiled wrapper indexes the full map table, so the column is part
#: of the generated source, unlike the 5-tuple numpy-backend signature
GOLDEN_FLUX_SIG = (
    ("dat", op2.READ, "idx", 2, 2, 0),
    ("dat", op2.READ, "idx", 2, 2, 1),
    ("dat", op2.READ, "direct", 1, 0, None),
    ("dat", op2.INC, "idx", 1, 2, 0),
    ("dat", op2.INC, "idx", 1, 2, 1),
    ("gbl", op2.INC, 1),
)
GOLDEN_UPDATE_SIG = (
    ("dat", op2.RW, "direct", 4, 0, None),
    ("dat", op2.READ, "direct", 4, 0, None),
    ("dat", op2.READ, "direct", 4, 0, None),
    ("dat", op2.READ, "direct", 1, 0, None),
    ("gbl", op2.READ, 1),
    ("gbl", op2.MAX, 1),
)


def _assert_matches_golden(got: str, golden_name: str,
                           folder: str = "native") -> None:
    golden = (GOLDEN_DIR / folder / golden_name).read_text()
    if got != golden:
        diff = "".join(difflib.unified_diff(
            golden.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile=f"golden/{folder}/{golden_name}", tofile="generated"))
        pytest.fail(f"native codegen drifted from golden file:\n{diff}")


class TestNativeGolden:
    """Byte-exact comparison against compile-verified golden sources."""

    def test_golden_flux_matches(self):
        got = generate_native(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG)
        _assert_matches_golden(got, "golden_flux.c")

    def test_golden_update_matches(self):
        got = generate_native(op2.Kernel(GOLDEN_UPDATE), GOLDEN_UPDATE_SIG)
        _assert_matches_golden(got, "golden_update.c")

    def test_golden_atomics_flux_matches(self):
        got = generate_oracle(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG)
        _assert_matches_golden(got, "golden_atomics_flux.c", "oracles")


class TestNativeStructure:
    def test_indirect_inc_uses_block_color_plan(self):
        assert native_is_planned(GOLDEN_FLUX_SIG)
        src = generate_native(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG)
        assert f"void {native_entry_name(op2.Kernel(GOLDEN_FLUX))}(" in src
        # plan ABI: block ranges + per-color block offsets
        assert "const long long *_blk_lo" in src
        assert "const long long *_col_off" in src
        # colors are serial (plain for), blocks within a color are
        # team-parallel — the same shape as the blockcolor backend
        assert "for (long long col = 0; col < _ncolors_f0; col++)" in src
        omp_for = src.index("#pragma omp for schedule(static)")
        assert src.index("col < _ncolors_f0") < omp_for
        # the plan guarantees conflict-freedom: no atomics anywhere
        assert "atomic" not in src
        # indirect args index the full map table with their column
        assert "a0_f0 + m0_f0[n * 2 + 0] * 2" in src
        assert "a4_f0 + m4_f0[n * 2 + 1] * 1" in src

    def test_direct_loop_is_flat_parallel(self):
        assert not native_is_planned(GOLDEN_UPDATE_SIG)
        src = generate_native(op2.Kernel(GOLDEN_UPDATE), GOLDEN_UPDATE_SIG)
        assert "long long _start" in src and "long long _end" in src
        assert "_blk_lo" not in src and "_ncolors" not in src
        assert "#pragma omp for schedule(static)" in src
        assert "for (long long n = _start; n < _end; n++)" in src

    def test_reduction_staging_and_critical_fold(self):
        flux = generate_native(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG)
        # INC reduction: zero-initialized thread-private staging,
        # folded into the caller's partial buffer under a critical
        assert "double rms_l_f0[1];" in flux
        assert "rms_l_f0[d] = 0.0;" in flux
        assert "#pragma omp critical" in flux
        assert "g5_f0[d] += rms_l_f0[d];" in flux
        upd = generate_native(op2.Kernel(GOLDEN_UPDATE), GOLDEN_UPDATE_SIG)
        # MAX reduction: -INFINITY neutral, numpy-maximum fold
        assert "change_l_f0[d] = -INFINITY;" in upd
        assert "g5_f0[d] = op2_max(g5_f0[d], change_l_f0[d]);" in upd

    def test_no_critical_without_reductions(self):
        def k(x, y):
            y[0] = 2.0 * x[0]

        sig = (("dat", op2.READ, "direct", 1, 0, None),
               ("dat", op2.WRITE, "direct", 1, 0, None))
        src = generate_native(op2.Kernel(k, name="scale_k"), sig)
        assert "#pragma omp critical" not in src
        assert "#pragma omp parallel" in src

    def test_compiles_without_openmp(self):
        """The wrapper calls no OpenMP runtime function (the caller
        passes the thread count), so it is valid C without -fopenmp."""
        src = generate_native(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG)
        assert "omp.h" not in src and "omp_get" not in src
        assert "#pragma omp parallel num_threads((int)_nthreads)" in src

    def test_balanced_braces_all_hydra_kernels(self):
        sigs = {
            "zero_res": (("dat", op2.WRITE, "direct", 5, 0, None),),
            "flux_edge": (("dat", op2.READ, "idx", 5, 2, 0),
                          ("dat", op2.READ, "idx", 5, 2, 1),
                          ("dat", op2.READ, "direct", 3, 0, None),
                          ("dat", op2.INC, "idx", 5, 2, 0),
                          ("dat", op2.INC, "idx", 5, 2, 1),
                          ("gbl", op2.READ, 1)),
            "local_dt": (("dat", op2.READ, "direct", 5, 0, None),
                         ("gbl", op2.READ, 1), ("gbl", op2.READ, 1),
                         ("gbl", op2.READ, 1), ("gbl", op2.MIN, 1)),
        }
        for name, sig in sigs.items():
            src = generate_native(KERNELS[name], sig)
            assert f"op_native_{name}" in src
            assert src.count("{") == src.count("}")


class TestNativeIntegerMath:
    """C spellings of Python math must respect operand types: integer
    ``min``/``max``/``abs``/``/`` have different semantics than the
    double-only ``fmin``/``fmax``/``fabs`` C functions."""

    INT_K = """
def int_k(x, y):
    for i in range(4):
        j = min(i, 2)
        h = i / 2
        y[i] = x[j] + abs(i - 3) * 0.5 + h
"""
    SIG = (("dat", op2.READ, "direct", 4, 0, None),
           ("dat", op2.WRITE, "direct", 4, 0, None))

    def _src(self):
        return generate_native(op2.Kernel(self.INT_K), self.SIG)

    def test_int_local_declared_long_long(self):
        assert "long long j = " in self._src()

    def test_int_min_becomes_ternary(self):
        src = self._src()
        assert "((i) < (2) ? (i) : (2))" in src
        assert "fmin(i" not in src  # fmin would round-trip through double

    def test_int_abs_becomes_ternary(self):
        src = self._src()
        assert "< 0 ? -((i - 3)) : ((i - 3))" in src
        assert "fabs(i" not in src

    def test_int_division_keeps_python_semantics(self):
        # Python / is float division even for ints; C / would truncate
        src = self._src()
        assert "double h = ((double)i / 2);" in src

    def test_float_min_abs_still_libm(self):
        def flt_k(x, y):
            y[0] = min(x[0], 0.5) + abs(x[0])

        sig = (("dat", op2.READ, "direct", 1, 0, None),
               ("dat", op2.WRITE, "direct", 1, 0, None))
        src = generate_native(op2.Kernel(flt_k), sig)
        assert "op2_min(x[0], 0.5)" in src
        assert "fabs(x[0])" in src
        assert "?" not in src.split("static inline void")[1].split("}")[0]


class TestNativeAtomicsStructure:
    """The compiled atomics oracle: chunked blocks, omp-atomic INCs."""

    def _src(self):
        return generate_oracle(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG)

    def test_entry_name_and_chunk_loop(self):
        src = self._src()
        kern = op2.Kernel(GOLDEN_FLUX)
        assert f"void {entry_name(kern)}(" in src
        assert "op_native_atomics_golden_flux" in src
        # the iteration space is cut into _block-sized chunks — the
        # simulated CUDA grid the numpy atomics backend also uses
        assert "long long _block" in src
        assert "for (long long _lo = _start; _lo < _end; _lo += _block)" \
            in src

    def test_indirect_incs_are_omp_atomics(self):
        src = self._src()
        elemental = src.split("static inline")[1].split("\n}")[0]
        # both indirect INC statements get the pragma; the global
        # reduction staging (thread-private) must NOT be atomic
        assert elemental.count("#pragma omp atomic") == 2
        assert "#pragma omp atomic\n  r1[0] += f;" in src
        assert "#pragma omp atomic\n  r2[0] -= f;" in src
        assert "#pragma omp atomic\n  rms[0]" not in src

    def test_never_planned(self):
        # the very signature that needs a plan under blockcolor runs
        # plan-free under atomics: races resolve at the increment
        assert native_is_planned(GOLDEN_FLUX_SIG)
        src = self._src()
        assert "_blk_lo" not in src and "_ncolors" not in src

    def test_direct_loop_has_no_atomics(self):
        src = generate_oracle(op2.Kernel(GOLDEN_UPDATE), GOLDEN_UPDATE_SIG)
        assert "#pragma omp atomic" not in src  # no indirect INCs

    def test_unknown_strategy_rejected(self):
        # the generator in src/ has one strategy and takes no selector
        with pytest.raises(TypeError):
            generate_native(op2.Kernel(GOLDEN_FLUX), GOLDEN_FLUX_SIG,
                            strategy="atomics")
        with pytest.raises(TypeError):
            native_entry_name(op2.Kernel(GOLDEN_FLUX), "atomics")


class TestNativeFusedStructure:
    """The one-loop wrapper: one region, one ``_f0`` section, shared tail."""

    def _src(self, strategy="blockcolor", kernel=GOLDEN_FLUX,
             sig=GOLDEN_FLUX_SIG):
        generate = {"blockcolor": generate_native,
                    "atomics": generate_oracle}[strategy]
        return generate(op2.Kernel(kernel), sig)

    def test_single_parallel_region_spans_sections(self):
        src = self._src()
        assert src.count("#pragma omp parallel") == 1
        assert src.count("// -- section") == 1
        assert "// -- section 0: golden_flux" in src

    def test_entry_symbol(self):
        name = native_entry_name(op2.Kernel(GOLDEN_FLUX))
        assert name == "op_native_golden_flux"
        assert f"void {name}(" in self._src()

    def test_per_section_plan_arrays_only_for_planned(self):
        # the direct update needs no plan; the indirect flux carries
        # its suffixed plan arrays on the tail
        upd = self._src(kernel=GOLDEN_UPDATE, sig=GOLDEN_UPDATE_SIG)
        assert "_blk_lo" not in upd
        src = self._src()
        assert "const long long *_blk_lo_f0" in src
        assert "long long _ncolors_f0" in src

    def test_formals_suffixed_per_section(self):
        src = self._src()
        assert "static inline void golden_flux_f0(" in src
        assert "const long long *m0_f0" in src
        # reduction staging is suffixed too
        assert "rms_l_f0[1];" in src
        upd = self._src(kernel=GOLDEN_UPDATE, sig=GOLDEN_UPDATE_SIG)
        assert "double *a0_f0" in upd
        assert "change_l_f0[1];" in upd

    def test_atomics_strategy_fused(self):
        src = self._src(strategy="atomics")
        assert "op_native_atomics_golden_flux" in src
        # no plans under atomics: the loop chunks over [start, end)
        assert "_blk_lo" not in src
        assert src.count(
            "for (long long _lo = _start; _lo < _end; _lo += _block)") == 1
        assert "#pragma omp atomic" in src

    def test_shared_tail(self):
        # the atomics oracle appends its chunk extent to the native tail
        assert "long long _start,\n    long long _end,\n" \
            "    long long _nthreads) {" in self._src()
        assert "long long _start,\n    long long _end,\n" \
            "    long long _nthreads,\n    long long _block) {" \
            in self._src("atomics")
        assert "_block" not in self._src()

    def test_balanced_braces(self):
        for strategy in ("blockcolor", "atomics"):
            src = self._src(strategy)
            assert src.count("{") == src.count("}")

    def test_group_of_one_is_the_same_shape(self):
        """Both strategies emit the same one-region, one-section shape."""
        for strategy in ("blockcolor", "atomics"):
            src = self._src(strategy)
            assert src.count("#pragma omp parallel") == 1
            assert src.count("// -- section") == 1
            assert "static inline void golden_flux_f0(" in src
