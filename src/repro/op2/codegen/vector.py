"""Vectorized code generation: scalar kernel → numpy whole-array source.

This generator performs the real "radically different code-path" trick
of the paper's tool-chain: the same elemental kernel source that the
sequential wrapper calls per element is *transformed* — every access
``p[i]`` to a per-element argument becomes a column access
``p[:, i]`` over a gathered block of elements, conditional expressions
become ``np.where``, math calls become numpy ufuncs — and wrapped in
gather / compute / scatter staging.

Two scatter policies share the generated compute body:

* ``"atomic"`` — ``np.add.at`` unbuffered scatter-add, correct under
  any conflicts (the vectorized backend). It gathers with ``np.take``
  and scatters into the flat 1-D view of the dat, one index per
  (element, component): numpy's fast 1-D paths, with the per-target
  accumulation order — and so the sums, bitwise — of the 2-D
  ``np.add.at(a, m, p)``. A dat that is not C-contiguous has no flat
  view, so the wrapper raises rather than scatter into a copy;
* ``"colored"`` — plain fancy-indexed ``+=``, valid only for
  conflict-free element groups (the sanitizer backend, which supplies
  one audited color group at a time).

Wrapper calling convention::

    wrapper(_np, _rows, *flat)

with ``_rows`` an int index array of elements to execute and ``flat``
as produced by ``ParLoop.flatten_bindings``.
"""

from __future__ import annotations

import ast
import copy
from typing import Sequence

from repro.op2.access import Access
from repro.op2.kernel import Kernel, KernelParseError, MATH_WHITELIST


def generate_vectorized(kernel: Kernel, signature: Sequence[tuple],
                        scatter: str) -> str:
    """Emit vectorized wrapper source for ``kernel`` under ``signature``.

    ``scatter`` is ``"atomic"`` or ``"colored"`` (see module docstring).
    """
    if scatter not in ("atomic", "colored"):
        raise ValueError(f"scatter must be 'atomic' or 'colored', got {scatter!r}")
    params = kernel.params
    if len(params) != len(signature):
        raise KernelParseError(
            f"kernel {kernel.name!r} takes {len(params)} parameters but the "
            f"loop supplies {len(signature)} arguments"
        )

    atomic = scatter == "atomic"
    wrapper_params: list[str] = []
    gather: list[str] = []
    scatter_lines: list[str] = []
    reduce_lines: list[str] = []
    elementwise: set[str] = set()

    def take(array: str, rows: str) -> str:
        return f"_np.take({array}, {rows}, axis=0)" if atomic \
            else f"{array}[{rows}]"

    def add_at(i: int, pname: str, dim: int, cols: str) -> None:
        """Scatter-add ``pname`` into dat ``i`` through its map rows
        (``cols`` appends the component axis to them)."""
        if not atomic:
            scatter_lines.append(f"_a{i}[_m{i}[_rows]] += {pname}")
            return
        gather.append(
            f"if not _a{i}.flags.c_contiguous: raise ValueError("
            f"'{pname}: INC dat is not C-contiguous')")
        scatter_lines.append(
            f"_np.add.at(_a{i}.reshape(-1), (_m{i}[_rows]{cols} * {dim} "
            f"+ _np.arange({dim})).reshape(-1), {pname}.reshape(-1))")

    for i, (pname, sig) in enumerate(zip(params, signature)):
        kind = sig[0]
        if kind == "gbl":
            _, access, dim = sig
            wrapper_params.append(f"_g{i}")
            if access is Access.READ:
                # broadcast constant: body uses it as a plain (dim,) array
                gather.append(f"{pname} = _g{i}")
            else:
                elementwise.add(pname)
                neutral = {
                    Access.INC: "0.0",
                    Access.MIN: "_np.inf",
                    Access.MAX: "-_np.inf",
                }[access]
                gather.append(
                    f"{pname} = _np.full((_n, {dim}), {neutral}, dtype=_g{i}.dtype)"
                )
                fold = {
                    Access.INC: f"_g{i} += {pname}.sum(axis=0)",
                    Access.MIN: f"_np.minimum(_g{i}, {pname}.min(axis=0), out=_g{i})",
                    Access.MAX: f"_np.maximum(_g{i}, {pname}.max(axis=0), out=_g{i})",
                }[access]
                reduce_lines.append(fold)
            continue

        _, access, addressing, dim, arity = sig
        elementwise.add(pname)
        wrapper_params.append(f"_a{i}")
        if addressing == "direct":
            gather.append(f"{pname} = {take(f'_a{i}', '_rows')}")
            if access in (Access.WRITE, Access.RW, Access.INC):
                scatter_lines.append(f"_a{i}[_rows] = {pname}")
        elif addressing == "idx":
            wrapper_params.append(f"_m{i}")
            if access is Access.INC:
                gather.append(
                    f"{pname} = _np.zeros((_n, {dim}), dtype=_a{i}.dtype)"
                )
                add_at(i, pname, dim, "[:, None]")
            else:
                gather.append(f"{pname} = {take(f'_a{i}', f'_m{i}[_rows]')}")
                if access is Access.WRITE:
                    scatter_lines.append(f"_a{i}[_m{i}[_rows]] = {pname}")
        elif addressing == "all":
            wrapper_params.append(f"_m{i}")
            if access is Access.INC:
                gather.append(
                    f"{pname} = _np.zeros((_n, {arity}, {dim}), dtype=_a{i}.dtype)"
                )
                add_at(i, pname, dim, "[:, :, None]")
            else:
                gather.append(f"{pname} = {take(f'_a{i}', f'_m{i}[_rows]')}")
                if access is Access.WRITE:
                    scatter_lines.append(f"_a{i}[_m{i}[_rows]] = {pname}")
        else:  # pragma: no cover
            raise ValueError(f"unknown addressing {addressing!r}")

    body_src = _transform_body(kernel, elementwise)

    name = f"{kernel.name}_{scatter}_wrapper"
    lines = [
        f"def {name}(_np, _rows, {', '.join(wrapper_params)}):",
        f'    """Generated vectorized ({scatter}-scatter) wrapper for '
        f'{kernel.name}."""',
        "    _n = _rows.shape[0]",
        "    if _n == 0:",
        "        return",
        "    # ---- gather / stage ----",
    ]
    lines.extend(f"    {g}" for g in gather)
    lines.append("    # ---- transformed kernel body ----")
    lines.extend(f"    {b}" for b in body_src.splitlines())
    if scatter_lines:
        lines.append("    # ---- scatter ----")
        lines.extend(f"    {s}" for s in scatter_lines)
    if reduce_lines:
        lines.append("    # ---- fold reductions ----")
        lines.extend(f"    {r}" for r in reduce_lines)
    return "\n".join(lines) + "\n"


def _transform_body(kernel: Kernel, elementwise: set[str]) -> str:
    """Rewrite the kernel body for whole-array execution."""
    fdef = copy.deepcopy(kernel.func_ast)
    stmts: list[ast.stmt] = []
    for stmt in fdef.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        if isinstance(stmt, ast.Return):
            continue  # bare return at statement level: no-op here
        stmts.append(stmt)
    transformer = _Vectorizer(kernel.name, elementwise)
    new_stmts = [transformer.visit(s) for s in stmts]
    module = ast.Module(body=new_stmts, type_ignores=[])
    ast.fix_missing_locations(module)
    return ast.unparse(module)


class _Vectorizer(ast.NodeTransformer):
    """AST rewrite: per-element scalar code → whole-array numpy code."""

    def __init__(self, kernel_name: str, elementwise: set[str]) -> None:
        self.kernel_name = kernel_name
        self.elementwise = elementwise

    def _err(self, node: ast.AST, msg: str) -> KernelParseError:
        line = getattr(node, "lineno", "?")
        return KernelParseError(f"kernel {self.kernel_name!r}, line {line}: {msg}")

    # -- name hygiene --------------------------------------------------
    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id.startswith("_"):
            raise self._err(node, "names starting with '_' are reserved for "
                                  "generated code")
        return node

    # -- subscripts ------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        base, chain = self._subscript_chain(node)
        if isinstance(base, ast.Name) and base.id in self.elementwise:
            indices: list[ast.expr] = [ast.Slice(lower=None, upper=None, step=None)]
            for idx in chain:
                if isinstance(idx, ast.Tuple):
                    indices.extend(self.visit(e) for e in idx.elts)
                else:
                    indices.append(self.visit(idx))
            for idx in indices[1:]:
                for sub in ast.walk(idx):
                    if isinstance(sub, ast.Name) and sub.id in self.elementwise:
                        raise self._err(
                            node,
                            f"index expressions must not reference per-element "
                            f"arguments (found {sub.id!r}); data-dependent "
                            f"indexing is not vectorizable",
                        )
            return ast.Subscript(
                value=ast.Name(id=base.id, ctx=ast.Load()),
                slice=ast.Tuple(elts=indices, ctx=ast.Load()),
                ctx=node.ctx,
            )
        return self.generic_visit(node)

    @staticmethod
    def _subscript_chain(node: ast.Subscript) -> tuple[ast.expr, list[ast.expr]]:
        """Unwind ``p[i][j]`` into (base, [i, j])."""
        chain: list[ast.expr] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Subscript):
            chain.append(cur.slice)
            cur = cur.value
        chain.reverse()
        return cur, chain

    # -- expressions ----------------------------------------------------
    def visit_IfExp(self, node: ast.IfExp) -> ast.AST:
        return ast.Call(
            func=_np_attr("where"),
            args=[self.visit(node.test), self.visit(node.body),
                  self.visit(node.orelse)],
            keywords=[],
        )

    def visit_Call(self, node: ast.Call) -> ast.AST:
        if not isinstance(node.func, ast.Name) or node.func.id not in MATH_WHITELIST:
            raise self._err(node, "only whitelisted math calls are allowed")
        attr = MATH_WHITELIST[node.func.id].split(".", 1)[1]
        return ast.Call(
            func=_np_attr(attr),
            args=[self.visit(a) for a in node.args],
            keywords=[],
        )

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        fname = "logical_and" if isinstance(node.op, ast.And) else "logical_or"
        values = [self.visit(v) for v in node.values]
        out = values[0]
        for v in values[1:]:
            out = ast.Call(func=_np_attr(fname), args=[out, v], keywords=[])
        return out

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        if isinstance(node.op, ast.Not):
            return ast.Call(func=_np_attr("logical_not"),
                            args=[self.visit(node.operand)], keywords=[])
        return self.generic_visit(node)

    def visit_For(self, node: ast.For) -> ast.AST:
        # `for i in range(K)` survives vectorization as-is: the loop
        # index stays a runtime scalar, so rewritten subscripts like
        # p[:, i] select one column per iteration. Don't rewrite the
        # range() call itself.
        node.body = [self.visit(s) for s in node.body]
        node.target = self.visit(node.target) if not isinstance(
            node.target, ast.Name) else node.target
        return node

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        if len(node.ops) > 1:
            raise self._err(node, "chained comparisons are not supported; "
                                  "split them with `and`")
        return self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.AST:
        if node.value is None:
            raise self._err(node, "bare annotations are not allowed in kernels")
        return self.visit(
            ast.Assign(targets=[node.target], value=node.value,
                       lineno=node.lineno)
        )

    def visit_Return(self, node: ast.Return) -> ast.AST:
        raise self._err(node, "return inside kernel control flow is not "
                              "vectorizable")


def _np_attr(name: str) -> ast.Attribute:
    return ast.Attribute(value=ast.Name(id="_np", ctx=ast.Load()),
                         attr=name, ctx=ast.Load())
