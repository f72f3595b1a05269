"""The allocation-form vectorized wrapper the atomic generator replaced.

Before the atomic wrapper read direct arguments as views and staged
indirect ones in a reusable arena, it copied every argument on every
call:

* a direct argument was gathered with ``np.take(_a, _rows)`` and
  written back with ``_a[_rows] = x`` when the loop writes it;
* an indirect argument was gathered into a fresh array, an INC one
  staged in fresh ``np.zeros`` and a reduction partial in a fresh
  ``np.full``;
* increments scattered through a flat index built per call;
* every ``for i in range(K)`` component loop stayed a loop of K
  column operations.

:func:`generate_vectorized_alloc` emits that wrapper, with the calling
convention ``wrapper(_np, _rows, *flat)``. ``tests/test_vector_staging.py``
holds the production wrapper bitwise equal to it; nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import ast
import copy
from typing import Sequence

from repro.op2.access import Access
from repro.op2.codegen.vector import _Vectorizer
from repro.op2.kernel import Kernel


def generate_vectorized_alloc(kernel: Kernel,
                              signature: Sequence[tuple]) -> str:
    """Allocation-form atomic wrapper source for ``kernel``."""
    params = kernel.params
    wrapper_params: list[str] = []
    gather: list[str] = []
    scatter_lines: list[str] = []
    reduce_lines: list[str] = []
    elementwise: set[str] = set()

    def add_at(i: int, pname: str, dim: int, cols: str) -> None:
        gather.append(
            f"if not _a{i}.flags.c_contiguous: raise ValueError("
            f"'{pname}: INC dat is not C-contiguous')")
        scatter_lines.append(
            f"_np.add.at(_a{i}.reshape(-1), (_m{i}[_rows]{cols} * {dim} "
            f"+ _np.arange({dim})).reshape(-1), {pname}.reshape(-1))")

    for i, (pname, sig) in enumerate(zip(params, signature)):
        if sig[0] == "gbl":
            _, access, dim = sig
            wrapper_params.append(f"_g{i}")
            if access is Access.READ:
                gather.append(f"{pname} = _g{i}")
                continue
            elementwise.add(pname)
            neutral = {Access.INC: "0.0", Access.MIN: "_np.inf",
                       Access.MAX: "-_np.inf"}[access]
            gather.append(
                f"{pname} = _np.full((_n, {dim}), {neutral}, dtype=_g{i}.dtype)")
            reduce_lines.append({
                Access.INC: f"_g{i} += {pname}.sum(axis=0)",
                Access.MIN: f"_np.minimum(_g{i}, {pname}.min(axis=0), out=_g{i})",
                Access.MAX: f"_np.maximum(_g{i}, {pname}.max(axis=0), out=_g{i})",
            }[access])
            continue

        _, access, addressing, dim, arity = sig
        elementwise.add(pname)
        wrapper_params.append(f"_a{i}")
        if addressing == "direct":
            gather.append(f"{pname} = _np.take(_a{i}, _rows, axis=0)")
            if access in (Access.WRITE, Access.RW, Access.INC):
                scatter_lines.append(f"_a{i}[_rows] = {pname}")
            continue
        wrapper_params.append(f"_m{i}")
        shape = f"_n, {dim}" if addressing == "idx" else f"_n, {arity}, {dim}"
        if access is Access.INC:
            gather.append(f"{pname} = _np.zeros(({shape}), dtype=_a{i}.dtype)")
            add_at(i, pname, dim,
                   "[:, None]" if addressing == "idx" else "[:, :, None]")
        else:
            gather.append(f"{pname} = _np.take(_a{i}, _m{i}[_rows], axis=0)")
            if access is Access.WRITE:
                scatter_lines.append(f"_a{i}[_m{i}[_rows]] = {pname}")

    fdef = copy.deepcopy(kernel.func_ast)
    stmts = [s for s in fdef.body
             if not isinstance(s, ast.Return)
             and not (isinstance(s, ast.Expr)
                      and isinstance(s.value, ast.Constant))]
    vectorizer = _Vectorizer(kernel.name, elementwise)
    module = ast.Module(body=[vectorizer.visit(s) for s in stmts],
                        type_ignores=[])
    ast.fix_missing_locations(module)

    lines = [f"def {kernel.name}_alloc_wrapper(_np, _rows, "
             f"{', '.join(wrapper_params)}):",
             "    _n = _rows.shape[0]",
             "    if _n == 0:",
             "        return"]
    lines += [f"    {line}" for line in gather]
    lines += [f"    {line}" for line in ast.unparse(module).splitlines()]
    lines += [f"    {line}" for line in scatter_lines + reduce_lines]
    return "\n".join(lines) + "\n"
