"""The CUDA and OpenMP source text OP2 would emit for a loop.

Display emitters, never compiled: :func:`generate_cuda` writes the
``__global__`` kernel with ``atomicAdd`` indirect increments (the
strategy the paper uses on V100s) and :func:`generate_openmp` the
wrapper over OP2's ``op_plan`` struct (its CPU block-color strategy).
Both build on the compiled generator's elemental translation
(:func:`repro.op2.codegen.csource._elemental_c`); the CUDA device
function is its ``#pragma omp atomic`` form with each atomic increment
respelled as ``atomicAdd``. The tests hold these texts to the
structure of the paper's generated code.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.op2.access import Access
from repro.op2.codegen.csource import _elemental_c
from repro.op2.kernel import Kernel, KernelParseError

#: ``#pragma omp atomic`` followed by its ``x += v;`` / ``x -= v;``
_OMP_ATOMIC_INC = re.compile(
    r"^(\s*)#pragma omp atomic\n\s*(.+?) ([+-])= (.+);$", re.MULTILINE)


def _atomic_add(match: re.Match) -> str:
    indent, loc, sign, value = match.groups()
    signed = value if sign == "+" else f"-({value})"
    return f"{indent}atomicAdd(&{loc}, {signed});"


def _device_elemental(kernel: Kernel, signature: Sequence[tuple]) -> str:
    """The ``__device__`` elemental: indirect increments as ``atomicAdd``."""
    src = _elemental_c(kernel, signature, omp_atomic=True,
                       fn_name=f"{kernel.name}_gpu")
    src = _OMP_ATOMIC_INC.sub(_atomic_add, src)
    return src.replace("static inline", "__device__ inline", 1)


def generate_cuda(kernel: Kernel, signature: Sequence[tuple]) -> str:
    """Emit the CUDA kernel + device elemental function for this loop."""
    params = kernel.params
    if len(params) != len(signature):
        raise KernelParseError(
            f"kernel {kernel.name!r} takes {len(params)} parameters but the "
            f"loop supplies {len(signature)} arguments"
        )
    device_fn = _device_elemental(kernel, signature)

    formals: list[str] = []
    prologue: list[str] = []
    call: list[str] = []
    epilogue: list[str] = []
    for i, (pname, sig) in enumerate(zip(params, signature)):
        if sig[0] == "gbl":
            _, access, dim = sig
            if access is Access.READ:
                formals.append(f"const double *g{i}")
                call.append(f"g{i}")
            else:
                # per-thread reduction staging + atomic fold; MIN/MAX use
                # the CAS-based double atomics of the OP2 runtime library
                formals.append(f"double *g{i}")
                neutral = {Access.INC: "0.0", Access.MIN: "INFINITY",
                           Access.MAX: "-INFINITY"}[access]
                fold = {Access.INC: "atomicAdd",
                        Access.MIN: "op_atomic_min_double",
                        Access.MAX: "op_atomic_max_double"}[access]
                prologue.append(f"double {pname}_l[{dim}] = {{{neutral}}};")
                call.append(f"{pname}_l")
                epilogue.append(
                    f"for (int d = 0; d < {dim}; d++) "
                    f"{fold}(&g{i}[d], {pname}_l[d]);"
                )
            continue
        _, access, addressing, dim, arity = sig
        formals.append(f"double *a{i}")
        if addressing == "direct":
            call.append(f"a{i} + n * {dim}")
        elif addressing == "idx":
            formals.append(f"const int *m{i}")
            call.append(f"a{i} + m{i}[n] * {dim}")
        else:  # vector arg: pass the map row, the device fn indexes it
            formals.append(f"const int *m{i}")
            call.append(f"a{i}")
            call.append(f"m{i} + n * {arity}")

    lines = [
        f"// generated by repro.op2 — CUDA (atomics) variant of "
        f"{kernel.name}",
        device_fn,
        "",
        f"__global__ void op_cuda_{kernel.name}(",
        "    " + ",\n    ".join(formals + ["int set_size"]) + ") {",
        "  int n = blockIdx.x * blockDim.x + threadIdx.x;",
        "  if (n < set_size) {",
    ]
    lines.extend(f"    {p}" for p in prologue)
    lines.append(f"    {kernel.name}_gpu({', '.join(call)});")
    lines.extend(f"    {e}" for e in epilogue)
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def generate_openmp(kernel: Kernel, signature: Sequence[tuple]) -> str:
    """Emit the OpenMP block-color wrapper for this loop."""
    params = kernel.params
    if len(params) != len(signature):
        raise KernelParseError(
            f"kernel {kernel.name!r} takes {len(params)} parameters but the "
            f"loop supplies {len(signature)} arguments"
        )
    elemental = _elemental_c(kernel, signature)
    formals: list[str] = []
    call: list[str] = []
    for i, (pname, sig) in enumerate(zip(params, signature)):
        if sig[0] == "gbl":
            _, access, dim = sig
            formals.append(f"double *g{i}")
            call.append(f"g{i}")
            continue
        _, access, addressing, dim, arity = sig
        formals.append(f"double *a{i}")
        if addressing == "direct":
            call.append(f"a{i} + n * {dim}")
        elif addressing == "idx":
            formals.append(f"const int *m{i}")
            call.append(f"a{i} + m{i}[n] * {dim}")
        else:
            formals.append(f"const int *m{i}")
            call.append(f"a{i}")
            call.append(f"m{i} + n * {arity}")

    lines = [
        f"// generated by repro.op2 — OpenMP (block-color plan) variant of "
        f"{kernel.name}",
        elemental,
        "",
        f"void op_omp_{kernel.name}(",
        "    " + ",\n    ".join(
            formals + ["const op_plan *plan", "int set_size"]) + ") {",
        "  for (int col = 0; col < plan->ncolors; col++) {",
        "    #pragma omp parallel for",
        "    for (int b = 0; b < plan->ncolblk[col]; b++) {",
        "      int blockId = plan->blkmap[plan->color_offset[col] + b];",
        "      int start = plan->blk_start[blockId];",
        "      int end   = plan->blk_end[blockId];",
        "      for (int n = start; n < end; n++) {",
        f"        {kernel.name}({', '.join(call)});",
        "      }",
        "    }",
        "  }",
        "}",
    ]
    return "\n".join(lines) + "\n"
