"""Compiled oracles: the atomics strategy, the unhoisted and the
uncached wrappers.

``native-atomics`` is the paper's CUDA strategy on the host: chunks of
``ATOMICS_BLOCK`` elements ("thread blocks", accumulated one after
another) with every indirect increment an ``#pragma omp atomic``, no
plan. It ran 2.7-3.8x slower than ``native`` on the largest
``rig250_full`` row, so it serves as the compiled twin of the numpy
``atomics`` simulation (bitwise along one INC statement per dat).
``native-unhoisted`` and
``native-atomics-unhoisted`` are the wrappers as they were before
hoisting: the whole body per element, ``min``/``max`` as libm's
``fmin``/``fmax``. ``native-uncached`` is ``native`` as it was before
invariant caching: every call evaluates what follows from frozen dats
and const Globals. No oracle caches. All take the ``native`` ABI
without its caches, the atomics ones with ``_block`` appended (read at
prepare: a bound loop keeps its extent); ``tests/conftest.py``
registers them.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

from repro.op2.access import Access
from repro.op2.backends.native import (NativeBackend, _Fallback,
                                       _load_compiled, _NativeEntry)
from repro.op2.codegen.csource import (_MINMAX, _NATIVE_PREAMBLE, _TAG,
                                       _elemental_c, _hoist_prepass,
                                       _native_args, _native_element_loop,
                                       native_is_planned)
from repro.op2.codegen.hoist import hoist_plan
from repro.op2.kernel import Kernel
from repro.smpi.threads import region_threads
from repro.telemetry.recorder import active_recorder

#: elements per chunk, of the compiled and the numpy atomics oracles
ATOMICS_BLOCK = 4096

_LIBM_MINMAX = ["#define op2_min fmin", "#define op2_max fmax"]


def entry_name(kernel: Kernel, atomics: bool = True) -> str:
    """Exported symbol of an oracle wrapper for ``kernel``."""
    return ("op_native_atomics_" if atomics else "op_native_") + kernel.name


def uncached(signature: Sequence[tuple], hoisted: bool = True) -> tuple:
    """``signature`` without its record of frozen dats and const
    Globals (so nothing is cached), and without that of shared dats
    unless ``hoisted`` (so nothing is hoisted)."""
    return tuple(sig[:3] if sig[0] == "gbl" else sig[:7 if hoisted else 6]
                 for sig in signature)


def generate_oracle(kernel: Kernel, signature: Sequence[tuple],
                    atomics: bool = True, hoisted: bool = True) -> str:
    """One loop's wrapper, uncached: chunked ``#pragma omp atomic``
    increments (``atomics``) or the block-color plan, with the
    hoisting pre-pass or as before it (``hoisted``)."""
    signature = uncached(signature, hoisted)
    base_sig = [sig if sig[0] == "gbl" else sig[:5] for sig in signature]
    fn_name = f"{kernel.name}{_TAG}"
    plan = hoist_plan(kernel, signature)
    elemental = _elemental_c(kernel, base_sig, index_type="long long",
                             omp_atomic=atomics, fn_name=fn_name, plan=plan)
    formals, call, red_decl, red_fold = _native_args(kernel, signature)
    prepass_fns, prepass = _hoist_prepass(kernel, signature, plan, fn_name,
                                          formals, call)
    planned = not atomics and native_is_planned(signature)
    if planned:
        formals += [f"const long long *_{name}{_TAG}"
                    for name in ("blk_lo", "blk_hi", "col_off")]
        formals.append(f"long long _ncolors{_TAG}")
    call_expr = f"{fn_name}({', '.join(call)})"
    element_loop = [
        "    for (long long _lo = _start; _lo < _end; _lo += _block) {",
        "      long long _hi = _lo + _block < _end ? _lo + _block : _end;",
        "      #pragma omp for schedule(static)",
        "      for (long long n = _lo; n < _hi; n++) {",
        f"        {call_expr};",
        "      }",
        "    }",
    ] if atomics else _native_element_loop(call_expr, planned=planned)
    tail = ["_start", "_end", "_nthreads", *(["_block"] if atomics else [])]
    fold = (["    #pragma omp critical", "    {",
             *(f"      {f}" for f in red_fold), "    }"] if red_fold else [])
    wrapper = "\n".join([
        f"void {entry_name(kernel, atomics)}(",
        "    " + ",\n    ".join(formals + [f"long long {t}" for t in tail])
        + ") {",
        "  (void)_nthreads;",
        "  (void)_start;",
        "  (void)_end;",
        "  #pragma omp parallel num_threads((int)_nthreads)",
        "  {",
        f"    // -- section 0: {kernel.name}",
        *(f"    {d}" for d in red_decl),
        *prepass,
        *element_loop,
        *fold,
        "  }",
        "}",
    ])
    functions = "\n\n".join([elemental, *prepass_fns])
    helpers = ([_MINMAX[name] for name in _MINMAX
                if f"{name}(" in functions or f"{name}(" in wrapper]
               if hoisted else _LIBM_MINMAX)
    variant = "atomic chunks" if atomics else "block-color plan"
    head = [f"// generated by repro.op2 — native {variant} wrapper for "
            + kernel.name + ("" if hoisted else " (unhoisted)"),
            *_NATIVE_PREAMBLE, "", *helpers, *([""] if helpers else [])]
    return "\n".join(head + [functions, "", wrapper]) + "\n"


class NativeOracleBackend(NativeBackend):
    """``native`` running an oracle wrapper, cached by its source. The
    atomics ones count ``op2.native.atomics_loops`` and
    ``op2.native.atomics_blocks``."""

    def __init__(self, name: str, atomics: bool, hoisted: bool) -> None:
        self.name, self.atomics, self.hoisted = name, atomics, hoisted

    def prepare(self, loop, start: int, end: int, reductions) -> tuple:
        entry = self._entry_for(loop)
        if not self.atomics or isinstance(entry, _Fallback):
            return super().prepare(loop, start, end, reductions)
        c_ll = ctypes.c_longlong
        block = max(1, ATOMICS_BLOCK)
        nblocks = -(-(end - start) // block)
        argv = [*self._loop_argv(loop, reductions),
                *self._hoist_argv(loop, start, end), c_ll(start), c_ll(end),
                c_ll(region_threads()), c_ll(block)]

        def run(*argv) -> None:
            entry.fn(*argv)
            rec = active_recorder()
            if rec is not None:
                rec.counter("op2.native.atomics_loops")
                rec.counter("op2.native.atomics_blocks", nblocks)
        return run, argv

    def _nsig(self, loop) -> tuple:
        return uncached(loop.native_signature(), self.hoisted)

    def _build_entry(self, kernel, nsig: tuple):
        source = generate_oracle(kernel, nsig, self.atomics, self.hoisted)
        loaded = _load_compiled(source, lambda: source,
                                f"{kernel.name}_{self.name}",
                                entry_name(kernel, self.atomics))
        if isinstance(loaded, _Fallback):
            return loaded
        fn, so_path, lib, _ = loaded
        return _NativeEntry(fn, source, so_path, lib)

    def _unsupported(self, loop):
        # atomics only resolve increment races: an indirect WRITE/RW
        # would race in the wrapper, while the numpy fallback does not
        if self.atomics and any(arg.is_indirect and arg.access
                                not in (Access.READ, Access.INC)
                                for arg in loop.args):
            return _Fallback("an indirect WRITE/RW needs a plan", warn=False)
        return super()._unsupported(loop)


COMPILED_ORACLES = (
    NativeOracleBackend("native-atomics", atomics=True, hoisted=True),
    NativeOracleBackend("native-atomics-unhoisted", atomics=True,
                        hoisted=False),
    NativeOracleBackend("native-unhoisted", atomics=False, hoisted=False),
    NativeOracleBackend("native-uncached", atomics=False, hoisted=True),
)
