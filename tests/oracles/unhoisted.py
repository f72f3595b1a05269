"""The compiled wrappers as they were before map-invariant hoisting.

Before the native generator hoisted a kernel's single-endpoint work
into a node pre-pass (:mod:`repro.op2.codegen.hoist`), every wrapper
evaluated the whole kernel body once per element, with the ABI: the
per-argument pointers, the block-color plan (planned loops), then
``_start, _end, _block, _nthreads``. :func:`generate_native_unhoisted`
emits that wrapper — the former ``generate_native`` assembly over the
unchanged elemental translation — and spells ``min``/``max`` as libm's
``fmin``/``fmax``, as it did.

:func:`register_unhoisted_backends` adds ``native-unhoisted`` and
``native-atomics-unhoisted`` to :data:`repro.op2.backends.BACKENDS`:
the compiled backends running these wrappers, so a test can hold a
whole loop, a solver or a distributed run bitwise equal to its
unhoisted self. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Sequence

from repro.op2.backends import BACKENDS
from repro.op2.backends.native import (NativeAtomicsBackend, NativeBackend,
                                       _Fallback, _load_compiled,
                                       _NativeEntry)
from repro.op2.codegen.csource import (_NATIVE_PREAMBLE, _TAG, _elemental_c,
                                       _native_args, _native_element_loop,
                                       native_entry_name, native_is_planned)
from repro.op2.kernel import Kernel

_LIBM_MINMAX = ["#define op2_min fmin", "#define op2_max fmax"]


def generate_native_unhoisted(kernel: Kernel, signature: Sequence[tuple],
                              strategy: str = "blockcolor") -> str:
    """The unhoisted compiled wrapper of ``kernel`` under ``signature``."""
    atomics = strategy == "atomics"
    base_sig = [sig if sig[0] == "gbl" else sig[:5] for sig in signature]
    fn_name = f"{kernel.name}{_TAG}"
    elemental = _elemental_c(kernel, base_sig, index_type="long long",
                             omp_atomic=atomics, fn_name=fn_name)
    formals, call, red_decl, red_fold = _native_args(kernel, signature)
    planned = not atomics and native_is_planned(signature)
    if planned:
        formals += [f"const long long *_blk_lo{_TAG}",
                    f"const long long *_blk_hi{_TAG}",
                    f"const long long *_col_off{_TAG}",
                    f"long long _ncolors{_TAG}"]
    tail = ["long long _start", "long long _end",
            "long long _block", "long long _nthreads"]
    lines = [
        f"// unhoisted {strategy} wrapper for {kernel.name}",
        *_NATIVE_PREAMBLE,
        *_LIBM_MINMAX,
        "",
        elemental,
        "",
        f"void {native_entry_name(kernel, strategy)}(",
        "    " + ",\n    ".join(formals + tail) + ") {",
        "  int _nt = _nthreads > 0 ? (int)_nthreads : omp_get_max_threads();",
        "  (void)_nt;",
        "  (void)_block;",
        "  (void)_start;",
        "  (void)_end;",
        "  #pragma omp parallel num_threads(_nt)",
        "  {",
    ]
    lines.extend(f"    {d}" for d in red_decl)
    lines.extend(_native_element_loop(
        f"{fn_name}({', '.join(call)})", planned=planned, atomics=atomics))
    if red_fold:
        lines.append("    #pragma omp critical")
        lines.append("    {")
        lines.extend(f"      {f}" for f in red_fold)
        lines.append("    }")
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


class _Unhoisted:
    """Mixin: build the unhoisted wrapper, pass no hoisting arguments."""

    @staticmethod
    def _hoist_argv(loop, start: int, end: int) -> list:
        return []

    def _build_entry(self, kernel, nsig: tuple):
        source = generate_native_unhoisted(kernel, nsig, self.strategy)
        loaded = _load_compiled(source, lambda: source,
                                f"{kernel.name}_unhoisted",
                                native_entry_name(kernel, self.strategy))
        if isinstance(loaded, _Fallback):
            return loaded
        fn, so_path, lib, _ = loaded
        planned = self.strategy == "blockcolor" and native_is_planned(nsig)
        return _NativeEntry(fn, planned, source, so_path, lib)


class NativeUnhoistedBackend(_Unhoisted, NativeBackend):
    name = "native-unhoisted"


class NativeAtomicsUnhoistedBackend(_Unhoisted, NativeAtomicsBackend):
    name = "native-atomics-unhoisted"


def register_unhoisted_backends() -> None:
    """Add the unhoisted compiled backends to the backend registry."""
    for backend in (NativeUnhoistedBackend(),
                    NativeAtomicsUnhoistedBackend()):
        BACKENDS.setdefault(backend.name, backend)
