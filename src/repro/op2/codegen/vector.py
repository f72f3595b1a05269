"""Vectorized code generation: scalar kernel → numpy whole-array source.

This generator performs the real "radically different code-path" trick
of the paper's tool-chain: the same elemental kernel source that the
sequential wrapper calls per element is *transformed* — every access
``p[i]`` to a per-element argument becomes a column access
``p[:, i]`` over a block of elements, conditional expressions
become ``np.where``, math calls become numpy ufuncs — and wrapped in
staging and scatter code.

Two scatter policies share the generated compute body:

* ``"atomic"`` — the vectorized backend, over one contiguous range
  ``[_start, _end)`` and correct under any conflicts. A steady-state
  call copies no direct argument and allocates no staging array:

  - a direct argument is the view ``_aK[_start:_end]`` (map columns
    are sliced the same way); the body writes WRITE, RW and INC
    direct arguments in place;
  - an indirect READ/WRITE argument is gathered with ``np.take(...,
    out=slot)`` into a slot of the caller's staging arena; an
    indirect INC argument and a reduction partial are slots filled
    with the neutral value;
  - increments scatter with one unbuffered ``np.add.at`` into the
    flat 1-D view of the dat, through a flat index (one entry per
    element and component) the caller caches: numpy's fast 1-D path,
    with the per-target accumulation order — and so the sums,
    bitwise — of the 2-D ``np.add.at(a, m, p)``. A dat that is not
    C-contiguous has no flat view, so the wrapper raises rather than
    scatter into a copy.

  Since direct arguments are views, a dat written through a direct
  argument must be bound to no other argument of the loop
  (:class:`~repro.op2.parloop.BoundLoop` rejects it);
* ``"colored"`` — fancy-indexed copies in and out and plain ``+=``
  scatter, valid only for conflict-free element groups (the sanitizer
  backend, which supplies one audited color group at a time).

Wrapper calling conventions::

    wrapper(_np, _slot, _start, _end, *flat, *scatter)   # "atomic"
    wrapper(_np, _rows, *flat)                           # "colored"

``flat`` is as produced by ``BoundLoop.flatten_bindings``.
``_slot(k, shape, dtype)`` returns staging slot ``k`` of the arena; no
staged array outlives its call. ``scatter`` holds, per indirect INC
argument in argument order, the flat index of rows ``[_start, _end)``.
``_rows`` is an int index array of the elements to execute.

Component loops. A ``for i in range(a, b)`` block becomes whole-row
statements over the columns ``[:, a:b]`` when

* every statement assigns or augments ``X[i]`` of a per-element
  argument ``X`` with one component axis;
* ``i`` appears only as such a subscript or as the subscript of a
  global (``g[i]`` becomes ``g[a:b]``), and is not read after the
  loop;
* an argument assigned in the block is read only as ``X[i]``; every
  other per-element value — a subscript without ``i`` such as
  ``vol[0]``, or a per-element local — is a column broadcast as
  ``[:, None]``;
* the block calls only exactly rounded math (``sqrt``,
  ``fabs``/``abs``, ``min``, ``max``, ``copysign``) and no ``**``, so
  a contiguous row operation rounds as the per-column one does.

Every column is then computed from the same operands in the same
order, so the result is bitwise the per-column loop's. Anything else
stays a loop: ``x[i] = x[i] / x[0]`` (a loop-carried read), an
accumulation into ``rms[0]``, nested loops over an ``ALL`` map.

No map-invariant hoisting. The compiled generator evaluates a
kernel's single-endpoint locals once per node
(:mod:`repro.op2.codegen.hoist`); a numpy wrapper doing the same — a
node pre-pass over the referenced rows into a scratch array, then one
scratch gather per member instead of the per-edge arithmetic — ran no
faster on the 1-2 row: the pre-pass and the extra gathers cost what
the saved whole-array operations did. So this generator takes the
5-column signature and emits the whole body per element block.
"""

from __future__ import annotations

import ast
import copy
from typing import Sequence

from repro.op2.access import Access
from repro.op2.kernel import Kernel, KernelParseError, MATH_WHITELIST

_NEUTRAL = {Access.INC: "0.0", Access.MIN: "_np.inf", Access.MAX: "-_np.inf"}

_FOLD = {
    Access.INC: "{g} += {p}.sum(axis=0)",
    Access.MIN: "_np.minimum({g}, {p}.min(axis=0), out={g})",
    Access.MAX: "_np.maximum({g}, {p}.max(axis=0), out={g})",
}


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
    rows = "_start:_end" if atomic else "_rows"
    wrapper_params: list[str] = []
    scatter_params: list[str] = []
    gather: list[str] = []
    scatter_lines: list[str] = []
    reduce_lines: list[str] = []
    #: per-element name -> ndim of its staged block
    elementwise: dict[str, int] = {}
    nslots = 0

    def slot(shape: str, dtype: str) -> str:
        nonlocal nslots
        nslots += 1
        return f"_slot({nslots - 1}, ({shape}), {dtype})"

    def neutral_block(pname: str, shape: str, dtype: str, value: str) -> None:
        """Bind ``pname`` to a ``(_n, ...)`` block filled with ``value``:
        an arena slot (atomic) or a fresh array (colored)."""
        if atomic:
            gather.append(f"{pname} = {slot(shape, dtype)}")
            gather.append(f"{pname}.fill({value})")
        else:
            gather.append(
                f"{pname} = _np.full(({shape}), {value}, dtype={dtype})")

    for i, (pname, sig) in enumerate(zip(params, signature)):
        kind = sig[0]
        if kind == "gbl":
            _, access, dim = sig
            wrapper_params.append(f"_g{i}")
            if access is Access.READ:
                # broadcast constant: body uses it as a plain (dim,) array
                gather.append(f"{pname} = _g{i}")
                continue
            elementwise[pname] = 2
            neutral_block(pname, f"_n, {dim}", f"_g{i}.dtype",
                          _NEUTRAL[access])
            reduce_lines.append(_FOLD[access].format(g=f"_g{i}", p=pname))
            continue

        _, access, addressing, dim, arity = sig
        wrapper_params.append(f"_a{i}")
        if addressing == "direct":
            elementwise[pname] = 2
            if atomic:
                gather.append(f"{pname} = _a{i}[_start:_end]")
            else:
                gather.append(f"{pname} = _a{i}[_rows]")
                if access in (Access.WRITE, Access.RW, Access.INC):
                    scatter_lines.append(f"_a{i}[_rows] = {pname}")
            continue
        if addressing not in ("idx", "all"):  # pragma: no cover
            raise ValueError(f"unknown addressing {addressing!r}")
        wrapper_params.append(f"_m{i}")
        shape = f"_n, {dim}" if addressing == "idx" else f"_n, {arity}, {dim}"
        elementwise[pname] = 2 if addressing == "idx" else 3
        target = f"_a{i}[_m{i}[{rows}]]"
        if access is Access.INC:
            if atomic:
                gather.append(
                    f"if not _a{i}.flags.c_contiguous: raise ValueError("
                    f"'{pname}: INC dat is not C-contiguous')")
                scatter_params.append(f"_s{i}")
                scatter_lines.append(f"_np.add.at(_a{i}.reshape(-1), _s{i}, "
                                     f"{pname}.reshape(-1))")
            else:
                scatter_lines.append(f"{target} += {pname}")
            neutral_block(pname, shape, f"_a{i}.dtype", "0.0")
            continue
        if atomic:
            # map rows are validated in range at Map construction, so
            # mode='clip' only skips the bounds check — and with it
            # numpy's buffered copy of ``out``
            gather.append(
                f"{pname} = _np.take(_a{i}, _m{i}[_start:_end], axis=0, "
                f"out={slot(shape, f'_a{i}.dtype')}, mode='clip')")
        else:
            gather.append(f"{pname} = {target}")
        if access is Access.WRITE:
            scatter_lines.append(f"{target} = {pname}")

    body_src = _transform_body(kernel, elementwise)

    name = f"{kernel.name}_{scatter}_wrapper"
    if atomic:
        head = ["_np", "_slot", "_start", "_end", *wrapper_params,
                *scatter_params]
        extent = "    _n = _end - _start"
    else:
        head = ["_np", "_rows", *wrapper_params]
        extent = "    _n = _rows.shape[0]"
    lines = [
        f"def {name}({', '.join(head)}):",
        f'    """Generated vectorized ({scatter}-scatter) wrapper for '
        f'{kernel.name}."""',
        extent,
        "    if _n <= 0:",
        "        return",
        "    # ---- stage ----",
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


def _transform_body(kernel: Kernel, elementwise: dict[str, int]) -> str:
    """Rewrite the kernel body for whole-array execution."""
    fdef = copy.deepcopy(kernel.func_ast)
    stmts: list[ast.stmt] = []
    for stmt in fdef.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        if isinstance(stmt, ast.Return):
            continue  # bare return at statement level: no-op here
        stmts.append(stmt)
    transformer = _RowVectorizer(kernel.name, elementwise, kernel.params,
                                 stmts)
    module = ast.Module(body=transformer.visit_block(stmts), type_ignores=[])
    ast.fix_missing_locations(module)
    return ast.unparse(module)


class _Vectorizer(ast.NodeTransformer):
    """AST rewrite: per-element scalar code → whole-array numpy code."""

    def __init__(self, kernel_name: str, elementwise) -> None:
        self.kernel_name = kernel_name
        #: per-element argument names (mapped to their block's ndim)
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


#: math calls that round exactly (or not at all), so a row operation
#: over contiguous columns gives the per-column loop's bits
_EXACT_CALLS = frozenset({"sqrt", "fabs", "abs", "min", "max", "copysign"})


class _RowVectorizer(_Vectorizer):
    """:class:`_Vectorizer` that also turns component loops into row
    operations (the batching rule of the module docstring)."""

    def __init__(self, kernel_name: str, elementwise: dict[str, int],
                 params: Sequence[str], body: list[ast.stmt]) -> None:
        super().__init__(kernel_name, elementwise)
        self.params = set(params)
        self.row_locals, self.scalar_locals = _local_kinds(body, elementwise)
        #: loop indices read where no loop over them binds them
        self.leaked = {
            node.target.id
            for node in ast.walk(ast.Module(body=list(body), type_ignores=[]))
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and _read_outside_loops_over(body, node.target.id)}

    def visit_block(self, stmts: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            new = self.visit(stmt)
            out.extend(new if isinstance(new, list) else [new])
        return out

    def visit_For(self, node: ast.For) -> ast.AST | list[ast.stmt]:
        rows = self._row_statements(node)
        if rows is not None:
            return rows
        node.body = self.visit_block(node.body)
        return node

    def _row_statements(self, node: ast.For) -> list[ast.stmt] | None:
        """``node``'s body as row statements, or None if it must stay a loop."""
        if not isinstance(node.target, ast.Name):
            return None
        var = node.target.id
        if var in self.leaked:
            return None  # the loop leaves ``var`` bound for a later read
        bounds = [a.value for a in node.iter.args]
        lo, hi = (0, bounds[0]) if len(bounds) == 1 else bounds
        written: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AugAssign):
                target = stmt.target
            else:
                return None
            if not self._is_column(target, var):
                return None
            written.add(target.value.id)
        if not all(self._row_safe(stmt.value, var, written)
                   for stmt in node.body):
            return None
        batcher = _RowBatcher(self.kernel_name, self.elementwise, var, lo, hi,
                              self.row_locals)
        return [batcher.visit(stmt) for stmt in node.body]

    def _is_column(self, node: ast.expr, var: str) -> bool:
        """``X[var]`` of a per-element argument with one component axis."""
        return (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and self.elementwise.get(node.value.id) == 2
                and isinstance(node.slice, ast.Name)
                and node.slice.id == var)

    def _row_safe(self, node: ast.expr, var: str, written: set[str]) -> bool:
        """May ``node`` be evaluated once for all columns of the block?"""
        def safe(sub: ast.expr) -> bool:
            return self._row_safe(sub, var, written)

        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return node.id != var and (node.id in self.row_locals
                                       or node.id in self.scalar_locals)
        if isinstance(node, ast.Subscript):
            if self._is_column(node, var):
                return True
            base, chain = self._subscript_chain(node)
            indices = [e for idx in chain
                       for e in (idx.elts if isinstance(idx, ast.Tuple)
                                 else [idx])]
            names = {n.id for idx in indices for n in ast.walk(idx)
                     if isinstance(n, ast.Name)}
            if not isinstance(base, ast.Name) or base.id not in self.params:
                return False
            if base.id not in self.elementwise:  # a READ global
                return _is_var(chain, var) \
                    or names <= self.scalar_locals - {var}
            # one value per element, broadcast across the columns
            return (base.id not in written
                    and len(indices) == self.elementwise[base.id] - 1
                    and names <= self.scalar_locals - {var})
        if isinstance(node, ast.BinOp):
            return not isinstance(node.op, ast.Pow) \
                and safe(node.left) and safe(node.right)
        if isinstance(node, ast.UnaryOp):
            return safe(node.operand)
        if isinstance(node, ast.BoolOp):
            return all(safe(v) for v in node.values)
        if isinstance(node, ast.Compare):
            return safe(node.left) and all(safe(c) for c in node.comparators)
        if isinstance(node, ast.IfExp):
            return safe(node.test) and safe(node.body) and safe(node.orelse)
        if isinstance(node, ast.Call):
            return (isinstance(node.func, ast.Name)
                    and node.func.id in _EXACT_CALLS and not node.keywords
                    and all(safe(a) for a in node.args))
        return False


class _RowBatcher(_Vectorizer):
    """Rewrite one batchable component loop's statements as row
    operations over the columns ``[lo, hi)``."""

    def __init__(self, kernel_name: str, elementwise: dict[str, int],
                 var: str, lo: int, hi: int, row_locals: set[str]) -> None:
        super().__init__(kernel_name, elementwise)
        self.var = var
        self.cols = ast.Slice(lower=ast.Constant(lo), upper=ast.Constant(hi),
                              step=None)
        self.row_locals = row_locals

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        base, chain = self._subscript_chain(node)
        if _is_var(chain, self.var):
            cols = self.cols
            if base.id in self.elementwise:  # X[:, lo:hi]
                cols = ast.Tuple(elts=[_all_rows(), cols], ctx=ast.Load())
            return ast.Subscript(value=ast.Name(id=base.id, ctx=ast.Load()),
                                 slice=cols, ctx=node.ctx)
        new = super().visit_Subscript(node)
        if base.id in self.elementwise:  # X[:, c] -> X[:, c, None]
            new.slice.elts.append(ast.Constant(None))
        return new

    def visit_Name(self, node: ast.Name) -> ast.AST:
        node = super().visit_Name(node)
        if node.id in self.row_locals:  # f -> f[:, None]
            return ast.Subscript(
                value=node, ctx=ast.Load(),
                slice=ast.Tuple(elts=[_all_rows(), ast.Constant(None)],
                                ctx=ast.Load()))
        return node


def _is_var(chain: list[ast.expr], var: str) -> bool:
    """Is a subscript chain exactly ``[var]``?"""
    return (len(chain) == 1 and isinstance(chain[0], ast.Name)
            and chain[0].id == var)


def _all_rows() -> ast.Slice:
    return ast.Slice(lower=None, upper=None, step=None)


def _local_kinds(body: list[ast.stmt],
                 elementwise: dict[str, int]) -> tuple[set[str], set[str]]:
    """Classify the kernel's locals as ``(row_locals, scalar_locals)``.

    A row local holds one value per element (an ``(n,)`` array once
    vectorized): every assignment to it reads a per-element argument
    subscripted down to one value, or another row local. A scalar
    local (loop indices included) never reads either. A local assigned
    both ways, or from a bare or partly subscripted argument, is in
    neither set, so no row statement reads it.
    """
    sources: dict[str, list[ast.expr | None]] = {}
    for node in ast.walk(ast.Module(body=list(body), type_ignores=[])):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            sources.setdefault(node.target.id, []).append(None)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    sources.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name):
            sources.setdefault(node.target.id, []).append(node.value)

    def reads(expr: ast.expr | None) -> tuple[set[str], bool]:
        """(names ``expr`` reads, does it read an argument not
        subscripted down to one value per element)."""
        names: set[str] = set()
        partial = False
        stack = [] if expr is None else [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Subscript):
                base, chain = _Vectorizer._subscript_chain(node)
                stack.extend(chain)
                if not isinstance(base, ast.Name):
                    stack.append(base)
                    continue
                names.add(base.id)
                if base.id in elementwise:
                    n = sum(len(c.elts) if isinstance(c, ast.Tuple) else 1
                            for c in chain)
                    partial |= n != elementwise[base.id] - 1
            elif isinstance(node, ast.Name):
                names.add(node.id)
                partial |= node.id in elementwise
            else:
                stack.extend(ast.iter_child_nodes(node))
        return names, partial

    read = {name: [reads(e) for e in exprs] for name, exprs in sources.items()}
    unsafe = {name for name, rs in read.items() if any(p for _, p in rs)}
    rows = {name for name, rs in read.items()
            if any(ns & set(elementwise) for ns, _ in rs)}
    changed = True
    while changed:
        changed = False
        for name, rs in read.items():
            if name not in rows and any(ns & rows for ns, _ in rs):
                rows.add(name)
                changed = True
            if name not in unsafe and any(ns & unsafe for ns, _ in rs):
                unsafe.add(name)
                changed = True
    row_like = rows | set(elementwise)
    mixed = {name for name in rows
             if any(not ns & row_like for ns, _ in read[name])}
    scalars = set(sources) - rows - unsafe
    return rows - unsafe - mixed, scalars


def _read_outside_loops_over(body: list[ast.stmt], var: str) -> bool:
    """Is ``var`` read anywhere but inside a ``for var in ...`` loop?"""
    for stmt in body:
        if isinstance(stmt, ast.For):
            if not (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == var) \
                    and _read_outside_loops_over(stmt.body, var):
                return True
            continue
        if any(isinstance(n, ast.Name) and n.id == var
               and isinstance(n.ctx, ast.Load) for n in ast.walk(stmt)):
            return True
    return False
