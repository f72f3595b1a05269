"""Compiled C generation: one self-contained wrapper per ``par_loop``.

The paper's tool-chain emits C source files that a conventional
compiler builds (Fig. 4: "generated code is human readable and can be
compiled using a conventional compiler"). From the same validated
kernel AST the numpy generators consume, :func:`generate_native`
emits a translation unit the :mod:`repro.op2.backends.native` backend
builds with the host toolchain (``cc -O2 -fopenmp -shared -fPIC``) and
invokes through ``ctypes``: one wrapper per ``par_loop``, running
inside a single OpenMP region under the block-color plan (the paper's
OpenMP data-race strategy).

Map-invariant hoisting (:mod:`repro.op2.codegen.hoist`): the locals a
kernel computes from one endpoint only — assigned once at top level,
double-typed, reading ``p[c]`` of an indirect READ argument ``p``
whose dat the loop does not write, constants, READ Globals and math —
are evaluated once per node. Each hoisting group adds a row list, a
row count and a ``(total_size, width)`` scratch array to the ABI; an
``#pragma omp for`` pre-pass over the rows stores the group's
frontier in the scratch, and the elemental function loads it from
the scratch row of each member's map target. Invariant locals — those
that follow from frozen dats, const Globals and constants only — are
computed once per binding, into a per-element cache filled while the
binding's fill flag is set. ``min``/``max`` are numpy's
``minimum``/``maximum`` (``op2_min``/``op2_max``, branch-free,
emitted where used).
"""

from __future__ import annotations

import ast
import copy
from typing import Sequence

from repro.op2.access import Access
from repro.op2.codegen.hoist import NO_HOIST, HoistPlan, hoist_plan
from repro.op2.kernel import (Kernel, KernelParseError, integer_locals,
                              is_integer)

#: kernel math names -> C math spellings (floating-point operands; the
#: integer-typed forms of ``abs``/``min``/``max`` are special-cased in
#: :class:`_CBody` so an integer expression never silently becomes a
#: ``double`` — fatal when the result lands in array-index position)
_C_MATH = {
    "sqrt": "sqrt", "fabs": "fabs", "abs": "fabs", "exp": "exp",
    "log": "log", "sin": "sin", "cos": "cos", "tan": "tan",
    "atan2": "atan2", "min": "op2_min", "max": "op2_max", "pow": "pow",
    "copysign": "copysign",
}

#: numpy's ``minimum``/``maximum`` in C (libm's ``fmin``/``fmax`` drop a
#: NaN and order signed zeros differently); emitted into a translation
#: unit that calls them
_MINMAX = {
    "op2_min": "static inline double op2_min(double a, double b) "
               "{ double m = a < b ? a : b; return a != a ? a : m; }",
    "op2_max": "static inline double op2_max(double a, double b) "
               "{ double m = a > b ? a : b; return a != a ? a : m; }",
}


def native_entry_name(kernel: Kernel) -> str:
    """Exported symbol of the compiled wrapper for ``kernel``."""
    return "op_native_" + kernel.name


def native_is_planned(signature: Sequence[tuple]) -> bool:
    """True when the loop needs the block-color plan (indirect writes)."""
    return any(
        sig[0] == "dat" and sig[2] != "direct"
        and sig[1] in (Access.INC, Access.WRITE)
        for sig in signature
    )


_NATIVE_PREAMBLE = ["#include <math.h>"]


#: suffix of every wrapper-scope name (formals, plan arrays, reduction
#: staging, the renamed elemental) — part of the compiled ABI's names
_TAG = "_f0"


def _native_args(kernel: Kernel, signature: Sequence[tuple]
                 ) -> tuple[list[str], list[str], list[str], list[str]]:
    """Wrapper-level formals, call args, and reduction staging for a loop."""
    params = kernel.params
    if len(params) != len(signature):
        raise KernelParseError(
            f"kernel {kernel.name!r} takes {len(params)} parameters but the "
            f"loop supplies {len(signature)} arguments"
        )
    formals: list[str] = []
    call: list[str] = []
    red_decl: list[str] = []
    red_fold: list[str] = []
    for i, (pname, sig) in enumerate(zip(params, signature)):
        if sig[0] == "gbl":
            _, access, dim = sig[:3]
            if access is Access.READ:
                formals.append(f"const double *g{i}{_TAG}")
                call.append(f"g{i}{_TAG}")
                continue
            formals.append(f"double *g{i}{_TAG}")
            staged = f"{pname}_l{_TAG}"
            neutral = {Access.INC: "0.0", Access.MIN: "INFINITY",
                       Access.MAX: "-INFINITY"}[access]
            fold = {Access.INC: f"g{i}{_TAG}[d] += {staged}[d];",
                    Access.MIN: f"g{i}{_TAG}[d] = "
                                f"op2_min(g{i}{_TAG}[d], {staged}[d]);",
                    Access.MAX: f"g{i}{_TAG}[d] = "
                                f"op2_max(g{i}{_TAG}[d], {staged}[d]);",
                    }[access]
            red_decl.append(f"double {staged}[{dim}];")
            red_decl.append(
                f"for (int d = 0; d < {dim}; d++) {staged}[d] = {neutral};")
            red_fold.append(f"for (int d = 0; d < {dim}; d++) {fold}")
            call.append(staged)
            continue
        _, access, addressing, dim, arity, idx = sig[:6]
        const = "const " if access is Access.READ else ""
        formals.append(f"{const}double *a{i}{_TAG}")
        if addressing == "direct":
            call.append(f"a{i}{_TAG} + n * {dim}")
        elif addressing == "idx":
            formals.append(f"const long long *m{i}{_TAG}")
            call.append(
                f"a{i}{_TAG} + m{i}{_TAG}[n * {arity} + {idx}] * {dim}")
        else:  # vector arg: pass the map row, the elemental fn indexes it
            formals.append(f"const long long *m{i}{_TAG}")
            call.append(f"a{i}{_TAG}")
            call.append(f"m{i}{_TAG} + n * {arity}")
    return formals, call, red_decl, red_fold


def _native_element_loop(call_expr: str, *, planned: bool) -> list[str]:
    """The wrapper's element loop (inside the parallel region)."""
    if planned:
        return [
            f"    for (long long col = 0; col < _ncolors{_TAG}; col++) {{",
            "      #pragma omp for schedule(static)",
            f"      for (long long b = _col_off{_TAG}[col]; "
            f"b < _col_off{_TAG}[col + 1]; b++) {{",
            f"        for (long long n = _blk_lo{_TAG}[b]; "
            f"n < _blk_hi{_TAG}[b]; n++) {{",
            f"          {call_expr};",
            "        }",
            "      }",
            "    }",
        ]
    return [
        "    #pragma omp for schedule(static)",
        "    for (long long n = _start; n < _end; n++) {",
        f"      {call_expr};",
        "    }",
    ]


def generate_native(kernel: Kernel, signature: Sequence[tuple]) -> str:
    """Emit one self-contained compilable C wrapper for a loop.

    The translation unit is what the native backend builds and
    ``dlopen``\\ s: one wrapper per ``par_loop``, as OP2 generates one
    per ``op_par_loop``. ``signature`` is the loop's
    :meth:`~repro.op2.parloop.BoundLoop.native_signature`: dat entries
    carry a sixth element, the map index, so indirect accesses index
    the *full contiguous* map table (``m[n * arity + idx]``) — the
    strided per-column views Python backends use have no zero-copy C
    equivalent. The wrapper runs its element loop inside one
    ``#pragma omp parallel`` region, under OP2's OpenMP plan: direct
    loops run a flat ``#pragma omp for`` over ``[start, end)``; loops
    with indirect writes execute the flattened block-color plan
    ``blk_lo, blk_hi, col_off, ncolors`` — blocks of one color share
    no write target, so each color is an ``#pragma omp for`` with a
    barrier between colors.

    ABI (all pointers are raw numpy data pointers, indices are
    ``long long``): one ``double*`` per argument (reductions receive
    the caller's neutral-initialised partial buffer) plus a
    ``const long long*`` map table after each indirect argument, names
    suffixed ``_f0``; then, per hoisting group
    (:mod:`~repro.op2.codegen.hoist`), its sorted row list
    ``_hrowsG_f0``, row count ``_hnG_f0`` and ``(total_size, width)``
    scratch ``_hsG_f0``; then the per-element cache ``_inv_f0`` and the
    fill flag ``_fill_f0`` (loops that cache); then — planned loops
    only — the flattened
    plan ``_blk_lo_f0, _blk_hi_f0, _col_off_f0, _ncolors_f0``; then
    the tail ``_start, _end, _nthreads``. Reduction staging is
    thread-private and folded under ``#pragma omp critical`` right
    after the element loop.

    Hoisting: when the signature's dat entries carry their seventh
    element (the first argument bound to the same dat), each group's
    node pre-pass is an ``#pragma omp for`` over its rows ahead of the
    element loop, announced by a ``// hoisted on <label>: <frontier>``
    line; the elemental function takes one scratch-row pointer per
    group member after its arguments. A loop with nothing to hoist
    emits the unhoisted wrapper, byte for byte.

    Caching: an ``#pragma omp for`` over ``[start, end)`` stores the
    per-element invariant locals in ``_inv`` (``// cached per element:
    <locals>``), read by the elemental function through one more
    pointer; it runs while ``*_fill`` is set, which the wrapper clears
    on return.

    Compiled with ``-ffp-contract=off`` the elemental arithmetic is
    bitwise-identical to the numpy backends for correctly-rounded
    operations; reductions reassociate across threads. ``min``/``max``
    are numpy's ``minimum``/``maximum`` (``op2_min``/``op2_max``).
    """
    base_sig = [sig if sig[0] == "gbl" else sig[:5] for sig in signature]
    fn_name = f"{kernel.name}{_TAG}"
    plan = hoist_plan(kernel, signature)
    elemental = _elemental_c(kernel, base_sig, index_type="long long",
                             fn_name=fn_name, plan=plan)
    formals, call, red_decl, red_fold = _native_args(kernel, signature)
    prepass_fns, prepass = _hoist_prepass(kernel, signature, plan, fn_name,
                                          formals, call)
    planned = native_is_planned(signature)
    if planned:
        formals += [f"const long long *_{name}{_TAG}"
                    for name in ("blk_lo", "blk_hi", "col_off")]
        formals.append(f"long long _ncolors{_TAG}")
    tail = ["long long _start", "long long _end", "long long _nthreads"]
    functions = "\n\n".join([elemental, *prepass_fns])
    lines = [
        f"void {native_entry_name(kernel)}(",
        "    " + ",\n    ".join(formals + tail) + ") {",
        "  (void)_nthreads;",
        "  (void)_start;",
        "  (void)_end;",
        "  #pragma omp parallel num_threads((int)_nthreads)",
        "  {",
        f"    // -- section 0: {kernel.name}",
    ]
    lines.extend(f"    {d}" for d in red_decl)
    lines.extend(prepass)
    lines.extend(_native_element_loop(
        f"{fn_name}({', '.join(call)})", planned=planned))
    if red_fold:
        lines.append("    #pragma omp critical")
        lines.append("    {")
        lines.extend(f"      {f}" for f in red_fold)
        lines.append("    }")
    lines += ["  }", *([f"  *_fill{_TAG} = 0;"] if plan.cache else []), "}"]
    wrapper = "\n".join(lines)
    helpers = [_MINMAX[name] for name in _MINMAX
               if f"{name}(" in functions or f"{name}(" in wrapper]
    head = [
        "// generated by repro.op2 — native block-color plan wrapper for "
        + kernel.name,
        *_NATIVE_PREAMBLE,
        "",
    ]
    if helpers:
        head += [*helpers, ""]
    return "\n".join(head + [functions, "", wrapper]) + "\n"


def _hoist_prepass(kernel: Kernel, signature: Sequence[tuple],
                   plan: HoistPlan, fn_name: str, formals: list[str],
                   call: list[str]) -> tuple[list[str], list[str]]:
    """Per hoisting group of ``plan``: append its row list, row count
    and scratch to ``formals`` and its members' scratch rows to
    ``call``, then the cache ``_inv`` and the fill flag ``_fill``.
    Return the pre-pass functions and the wrapper lines running them
    (an ``#pragma omp for`` over each group's rows, then over the
    elements filling the cache)."""
    base_sig = [sig if sig[0] == "gbl" else sig[:5] for sig in signature]
    params = kernel.params
    param_call = ", ".join(call)
    functions: list[str] = []
    lines: list[str] = []
    for g, group in enumerate(plan.groups):
        rows, count, scratch = (f"_hrows{g}{_TAG}", f"_hn{g}{_TAG}",
                                f"_hs{g}{_TAG}")
        formals += [f"const long long *{rows}", f"long long {count}",
                    f"double *{scratch}"]
        width = group.width
        for i in group.members:
            _, _, _, _, arity, idx = signature[i][:6]
            call.append(f"{scratch} + m{i}{_TAG}[n * {arity} + {idx}] "
                        f"* {width}")
        first = group.members[0]
        formals_h = [f"const double *{group.params[0]}"]
        formals_h += [f"const double *{name}"
                      for name in group.global_params]
        functions.append(_prepass_c(kernel, base_sig, group.body,
                                    group.frontiers[0], f"{fn_name}_h{g}",
                                    formals_h))
        gbl_args = [f"g{params.index(name)}{_TAG}"
                    for name in group.global_params]
        dim = signature[first][3]
        lines += [
            f"    // hoisted on {group.label}: "
            + " ".join(group.frontiers[0]),
            "    #pragma omp for schedule(static)",
            f"    for (long long _r = 0; _r < {count}; _r++) {{",
            f"      long long _row = {rows}[_r];",
            f"      {fn_name}_h{g}("
            + ", ".join([f"a{first}{_TAG} + _row * {dim}", *gbl_args,
                         f"{scratch} + _row * {width}"]) + ");",
            "    }",
        ]
    if plan.cache:
        functions.append(_prepass_c(kernel, base_sig, plan.cache_body,
                                    plan.cache, f"{fn_name}_c", None))
        row = f"_inv{_TAG} + n * {len(plan.cache)}"
        lines += [
            "    // cached per element: " + " ".join(plan.cache),
            f"    if (*_fill{_TAG}) {{",
            "      #pragma omp for schedule(static)",
            "      for (long long n = _start; n < _end; n++) {",
            f"        {fn_name}_c({param_call}, {row});",
            "      }",
            "    }",
        ]
        formals += [f"double *_inv{_TAG}", f"long long *_fill{_TAG}"]
        call.append(row)
    return functions, lines


def _prepass_c(kernel: Kernel, signature: Sequence[tuple], stmts,
               stored: Sequence[str], fn_name: str,
               formals: list[str] | None) -> str:
    """A ``static inline`` pre-pass: ``stmts``, then the locals
    ``stored`` stored into the row ``_h``. It takes ``formals``, or
    the elemental function's (``None``)."""
    if formals is None:
        formals = _param_formals(kernel, signature, "long long")[0]
    body = _CBody(kernel, signature, set()).translate_stmts(stmts)
    body += [f"_h[{j}] = {name};" for j, name in enumerate(stored)]
    head = (f"static inline void {fn_name}("
            + ", ".join([*formals, "double *_h"]) + ") {")
    return "\n".join([head] + [f"  {line}" for line in body] + ["}"])


def _elemental_c(kernel: Kernel, signature: Sequence[tuple],
                 index_type: str = "int", omp_atomic: bool = False,
                 fn_name: str | None = None,
                 plan: HoistPlan = NO_HOIST) -> str:
    """Translate the elemental kernel body to a ``static inline`` C function.

    ``omp_atomic`` emits ``#pragma omp atomic`` before every indirect
    increment; ``fn_name`` overrides the emitted function name (the
    kernel's name by default). Under a hoisting ``plan`` the function
    also takes a scratch-row pointer ``_h_<param>`` per group member,
    loads each frontier local from it and drops the other hoisted
    statements.
    """
    formals, inc_params = _param_formals(kernel, signature, index_type,
                                         omp_atomic)
    for group in plan.groups:
        formals += [f"const double *_h_{p}" for p in group.params]
    if plan.cache:
        formals.append("const double *_inv")

    body = _CBody(kernel, signature, inc_params).translate(plan)
    head = (f"static inline void {fn_name or kernel.name}("
            + ", ".join(formals) + ") {")
    return "\n".join([head] + [f"  {line}" for line in body] + ["}"])


def _param_formals(kernel: Kernel, signature: Sequence[tuple],
                   index_type: str, omp_atomic: bool = False
                   ) -> tuple[list[str], set[str]]:
    """The elemental function's formals per kernel parameter, and the
    parameters incremented through ``#pragma omp atomic``."""
    formals = []
    inc_params: set[str] = set()
    for pname, sig in zip(kernel.params, signature):
        if sig[0] == "gbl":
            access = sig[1]
            const = "const " if access is Access.READ else ""
            formals.append(f"{const}double *{pname}")
            continue
        _, access, addressing, dim, arity = sig
        const = "const " if access is Access.READ else ""
        if addressing == "all":
            formals.append(f"{const}double *{pname}_base")
            formals.append(f"const {index_type} *{pname}_map")
        else:
            formals.append(f"{const}double *{pname}")
        if (omp_atomic and access is Access.INC
                and addressing in ("idx", "all")):
            inc_params.add(pname)
    return formals, inc_params


class _CBody:
    """Statement-by-statement C translation of a validated kernel body."""

    def __init__(self, kernel: Kernel, signature: Sequence[tuple],
                 inc_params: set[str]) -> None:
        self.kernel = kernel
        self.inc_params = inc_params  #: written through ``#pragma omp atomic``
        self.vector_params = {
            p for p, sig in zip(kernel.params, signature)
            if sig[0] == "dat" and sig[2] == "all"
        }
        self.dims = {
            p: sig[2] if sig[0] == "gbl" else sig[3]
            for p, sig in zip(kernel.params, signature)
        }
        self.declared: set[str] = set()
        #: locals holding integers on every path, loop variables
        #: included: ``abs``/``min``/``max`` over them get integer
        #: spellings, and they stay usable in array-index position
        loop_vars, int_locals = integer_locals(kernel.func_ast)
        self.loop_vars = loop_vars
        self.int_locals = int_locals
        self.ints = loop_vars | int_locals

    def _is_int(self, node: ast.expr) -> bool:
        """Does this expression have integer type in the C translation?"""
        return is_integer(node, self.ints)

    def translate(self, plan: HoistPlan = NO_HOIST) -> list[str]:
        """The body's statements, rewritten by a hoisting ``plan``."""
        fdef = copy.deepcopy(self.kernel.func_ast)
        out: list[str] = []
        for stmt in fdef.body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                         ast.Constant):
                continue
            if isinstance(stmt, ast.Return):
                continue
            target = (stmt.targets[0].id
                      if isinstance(stmt, ast.Assign)
                      and isinstance(stmt.targets[0], ast.Name) else None)
            if target in plan.dropped:
                continue
            if target in plan.loads:
                param, slot = plan.loads[target]
                self.declared.add(target)
                out.append(f"double {target} = _h_{param}[{slot}];")
                continue
            if target in plan.cache:
                self.declared.add(target)
                out.append(f"double {target} = "
                           f"_inv[{plan.cache.index(target)}];")
                continue
            out.extend(self._stmt(stmt))
        return out

    def translate_stmts(self, stmts) -> list[str]:
        """Some of the body's statements, as they stand."""
        out: list[str] = []
        for stmt in stmts:
            out.extend(self._stmt(stmt))
        return out

    def _stmt(self, stmt: ast.stmt) -> list[str]:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise KernelParseError("chained assignment unsupported in C "
                                       "generation")
            target = stmt.targets[0]
            value = self._expr(stmt.value)
            if isinstance(target, ast.Name):
                ctype = ("long long " if target.id in self.int_locals
                         else "double ")
                decl = "" if target.id in self.declared else ctype
                self.declared.add(target.id)
                return [f"{decl}{target.id} = {value};"]
            return [f"{self._expr(target)} = {value};"]
        if isinstance(stmt, ast.AugAssign):
            op = {ast.Add: "+=", ast.Sub: "-=", ast.Mult: "*=",
                  ast.Div: "/="}[type(stmt.op)]
            target = stmt.target
            value = self._expr(stmt.value)
            # indirect INC under the atomics strategy
            if isinstance(target, ast.Subscript):
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in self.inc_params:
                    return ["#pragma omp atomic",
                            f"{self._expr(target)} {op} {value};"]
            return [f"{self._expr(target)} {op} {value};"]
        if isinstance(stmt, ast.For):
            var = stmt.target.id  # validated: Name
            args = stmt.iter.args  # validated: range(literals)
            lo = "0" if len(args) == 1 else str(args[0].value)
            hi = str(args[-1].value)
            inner = []
            for sub in stmt.body:
                inner.extend(self._stmt(sub))
            return ([f"for (int {var} = {lo}; {var} < {hi}; {var}++) {{"]
                    + [f"  {line}" for line in inner] + ["}"])
        raise KernelParseError(
            f"statement {type(stmt).__name__} unsupported in C generation")

    def _expr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "1" if node.value else "0"
            if isinstance(node.value, (int, float)):
                return repr(float(node.value)) if isinstance(
                    node.value, float) else str(node.value)
            raise KernelParseError(f"constant {node.value!r} unsupported")
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.BinOp):
            op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
                  ast.Pow: None}[type(node.op)]
            left = self._expr(node.left)
            right = self._expr(node.right)
            if op is None:
                return f"pow({left}, {right})"
            if (op == "/" and self._is_int(node.left)
                    and self._is_int(node.right)):
                # Python / is float division even on integers
                return f"((double){left} / {right})"
            return f"({left} {op} {right})"
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return f"(-{self._expr(node.operand)})"
            if isinstance(node.op, ast.UAdd):
                return self._expr(node.operand)
            raise KernelParseError("unary operator unsupported in C")
        if isinstance(node, ast.Call):
            fname = node.func.id  # validated: whitelisted Name
            args = [self._expr(a) for a in node.args]
            # integer-typed operands must not round-trip through double:
            # the result may land in array-index position
            if (fname in ("min", "max") and len(args) == 2
                    and all(self._is_int(a) for a in node.args)):
                cmp = "<" if fname == "min" else ">"
                return (f"(({args[0]}) {cmp} ({args[1]}) "
                        f"? ({args[0]}) : ({args[1]}))")
            if fname == "abs" and self._is_int(node.args[0]):
                return f"(({args[0]}) < 0 ? -({args[0]}) : ({args[0]}))"
            return f"{_C_MATH[fname]}({', '.join(args)})"
        if isinstance(node, ast.IfExp):
            return (f"({self._expr(node.test)} ? {self._expr(node.body)} : "
                    f"{self._expr(node.orelse)})")
        if isinstance(node, ast.Compare):
            op = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
                  ast.Eq: "==", ast.NotEq: "!="}[type(node.ops[0])]
            return (f"({self._expr(node.left)} {op} "
                    f"{self._expr(node.comparators[0])})")
        if isinstance(node, ast.BoolOp):
            op = "&&" if isinstance(node.op, ast.And) else "||"
            return "(" + f" {op} ".join(self._expr(v) for v in node.values) \
                + ")"
        raise KernelParseError(
            f"expression {type(node).__name__} unsupported in C generation")

    def _subscript(self, node: ast.Subscript) -> str:
        chain: list[ast.expr] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Subscript):
            chain.append(cur.slice)
            cur = cur.value
        chain.reverse()
        if not isinstance(cur, ast.Name):
            raise KernelParseError("subscript base must be a name")
        name = cur.id
        indices: list[str] = []
        for idx in chain:
            if isinstance(idx, ast.Tuple):
                indices.extend(self._expr(e) for e in idx.elts)
            else:
                indices.append(self._expr(idx))
        if name in self.vector_params:
            if len(indices) != 2:
                raise KernelParseError(
                    f"vector argument {name!r} needs two indices")
            dim = self.dims[name]
            return (f"{name}_base[{name}_map[{indices[0]}] * {dim} "
                    f"+ {indices[1]}]")
        if len(indices) != 1:
            raise KernelParseError(
                f"argument {name!r} takes one index, got {len(indices)}")
        return f"{name}[{indices[0]}]"
