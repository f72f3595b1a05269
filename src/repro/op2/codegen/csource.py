"""C-family source generation: the CUDA and OpenMP text OP2 would emit.

The executable backends in this reproduction are numpy programs, but
the paper's tool-chain emits *C/CUDA source files* that a conventional
compiler builds (Fig. 4: "generated code is human readable and can be
compiled using a conventional compiler"). This module closes that
loop: from the same validated kernel AST, it emits

* a ``__global__`` CUDA kernel using ``atomicAdd`` for indirect
  increments (the data-race strategy the paper uses on V100s), and
* an OpenMP wrapper executing the block-color plan (the strategy the
  paper's CPU backend uses),

as faithful source *text*, and additionally — via
:func:`generate_native` — *self-contained, compilable* C translation
units that the :mod:`repro.op2.backends.native` backend builds with
the host toolchain (``cc -O2 -fopenmp -shared -fPIC``) and invokes
through ``ctypes``: one wrapper per ``par_loop``, running inside a
single OpenMP region, in either the block-color-plan or the
chunked-``#pragma omp atomic`` strategy. The
``atomics`` and ``blockcolor`` Python backends remain the executable
simulations of the CUDA/OpenMP strategies, and the tests pin the
structural correspondence between all the forms.
"""

from __future__ import annotations

import ast
import copy
from typing import Sequence

from repro.op2.access import Access
from repro.op2.kernel import Kernel, KernelParseError, MATH_WHITELIST

#: kernel math names -> C math spellings (floating-point operands; the
#: integer-typed forms of ``abs``/``min``/``max`` are special-cased in
#: :class:`_CBody` so an integer expression never silently becomes a
#: ``double`` — fatal when the result lands in array-index position)
_C_MATH = {
    "sqrt": "sqrt", "fabs": "fabs", "abs": "fabs", "exp": "exp",
    "log": "log", "sin": "sin", "cos": "cos", "tan": "tan",
    "atan2": "atan2", "min": "fmin", "max": "fmax", "pow": "pow",
    "copysign": "copysign",
}


def generate_cuda(kernel: Kernel, signature: Sequence[tuple]) -> str:
    """Emit the CUDA kernel + device elemental function for this loop."""
    params = kernel.params
    if len(params) != len(signature):
        raise KernelParseError(
            f"kernel {kernel.name!r} takes {len(params)} parameters but the "
            f"loop supplies {len(signature)} arguments"
        )
    device_fn = _elemental_c(kernel, signature, device=True)

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
    elemental = _elemental_c(kernel, signature, device=False)
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


def native_entry_name(kernel: Kernel, strategy: str = "blockcolor") -> str:
    """Exported symbol of the compiled wrapper for ``kernel``."""
    tag = "atomics_" if strategy == "atomics" else ""
    return "op_native_" + tag + kernel.name


def native_is_planned(signature: Sequence[tuple]) -> bool:
    """True when the loop needs the block-color plan (indirect writes)."""
    return any(
        sig[0] == "dat" and sig[2] != "direct"
        and sig[1] in (Access.INC, Access.WRITE)
        for sig in signature
    )


_NATIVE_PREAMBLE = [
    "#include <math.h>",
    "#ifdef _OPENMP",
    "#include <omp.h>",
    "#else",
    "#define omp_get_max_threads() 1",
    "#endif",
]


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
            _, access, dim = sig
            if access is Access.READ:
                formals.append(f"const double *g{i}{_TAG}")
                call.append(f"g{i}{_TAG}")
                continue
            formals.append(f"double *g{i}{_TAG}")
            staged = f"{pname}_l{_TAG}"
            neutral = {Access.INC: "0.0", Access.MIN: "INFINITY",
                       Access.MAX: "-INFINITY"}[access]
            fold = {Access.INC: f"g{i}{_TAG}[d] += {staged}[d];",
                    Access.MIN:
                        f"g{i}{_TAG}[d] = fmin(g{i}{_TAG}[d], {staged}[d]);",
                    Access.MAX:
                        f"g{i}{_TAG}[d] = fmax(g{i}{_TAG}[d], {staged}[d]);",
                    }[access]
            red_decl.append(f"double {staged}[{dim}];")
            red_decl.append(
                f"for (int d = 0; d < {dim}; d++) {staged}[d] = {neutral};")
            red_fold.append(f"for (int d = 0; d < {dim}; d++) {fold}")
            call.append(staged)
            continue
        _, access, addressing, dim, arity, idx = sig
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


def _native_element_loop(call_expr: str, *, planned: bool,
                         atomics: bool) -> list[str]:
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
    if atomics:
        return [
            "    for (long long _lo = _start; _lo < _end; _lo += _block) {",
            "      long long _hi = _lo + _block < _end ? _lo + _block : _end;",
            "      #pragma omp for schedule(static)",
            "      for (long long n = _lo; n < _hi; n++) {",
            f"        {call_expr};",
            "      }",
            "    }",
        ]
    return [
        "    #pragma omp for schedule(static)",
        "    for (long long n = _start; n < _end; n++) {",
        f"      {call_expr};",
        "    }",
    ]


def generate_native(kernel: Kernel, signature: Sequence[tuple],
                    strategy: str = "blockcolor") -> str:
    """Emit one self-contained compilable C wrapper for a loop.

    Unlike :func:`generate_openmp` (faithful *text* against OP2's
    ``op_plan`` struct), this produces a translation unit the native
    backend actually builds and ``dlopen``\\ s: one wrapper per
    ``par_loop``, as OP2 generates one per ``op_par_loop``.
    ``signature`` is the loop's
    :meth:`~repro.op2.parloop.ParLoop.native_signature`: dat entries
    carry a sixth element, the map index, so indirect accesses index
    the *full contiguous* map table (``m[n * arity + idx]``) — the
    strided per-column views Python backends use have no zero-copy C
    equivalent. The wrapper runs its element loop inside one
    ``#pragma omp parallel`` region.

    ``strategy`` selects the data-race-resolution scheme:

    * ``"blockcolor"`` (default) — OP2's OpenMP plan. Direct loops run
      a flat ``#pragma omp for`` over ``[start, end)``; loops with
      indirect writes execute the flattened block-color plan
      ``blk_lo, blk_hi, col_off, ncolors`` — blocks of one color share
      no write target, so each color is an ``#pragma omp for`` with a
      barrier between colors.
    * ``"atomics"`` — the compiled GPU analogue: fixed-size chunks
      ("thread blocks", extent ``_block``) with ``#pragma omp atomic``
      on every indirect increment, never planned. Chunk boundaries
      carry an implicit barrier, matching the chunk-serial
      accumulation order of the numpy-simulated ``atomics`` backend.

    ABI (all pointers are raw numpy data pointers, indices are
    ``long long``): one ``double*`` per argument (reductions receive
    the caller's neutral-initialised partial buffer) plus a
    ``const long long*`` map table after each indirect argument, names
    suffixed ``_f0``; then — planned blockcolor loops only — the
    flattened plan ``_blk_lo_f0, _blk_hi_f0, _col_off_f0,
    _ncolors_f0``; then the tail ``_start, _end, _block, _nthreads``
    (``_block`` is the atomics chunk extent, ignored under
    blockcolor). Reduction staging is thread-private and folded under
    ``#pragma omp critical`` right after the element loop.

    Compiled with ``-ffp-contract=off`` the elemental arithmetic is
    bitwise-identical to the numpy backends for correctly-rounded
    operations; reductions reassociate across threads.
    """
    if strategy not in ("blockcolor", "atomics"):
        raise ValueError(f"unknown native strategy {strategy!r}")
    atomics = strategy == "atomics"

    base_sig = [sig if sig[0] == "gbl" else sig[:5] for sig in signature]
    fn_name = f"{kernel.name}{_TAG}"
    elemental = _elemental_c(kernel, base_sig, device=False,
                             index_type="long long", omp_atomic=atomics,
                             fn_name=fn_name)
    formals, call, red_decl, red_fold = _native_args(kernel, signature)
    planned = not atomics and native_is_planned(signature)
    if planned:
        formals += [f"const long long *_blk_lo{_TAG}",
                    f"const long long *_blk_hi{_TAG}",
                    f"const long long *_col_off{_TAG}",
                    f"long long _ncolors{_TAG}"]
    tail = ["long long _start", "long long _end",
            "long long _block", "long long _nthreads"]
    variant = "atomic chunks" if atomics else "block-color plan"
    lines = [
        f"// generated by repro.op2 — native {variant} wrapper for "
        + kernel.name,
        *_NATIVE_PREAMBLE,
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
        f"    // -- section 0: {kernel.name}",
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


def _elemental_c(kernel: Kernel, signature: Sequence[tuple],
                 device: bool, index_type: str = "int",
                 omp_atomic: bool = False, fn_name: str | None = None) -> str:
    """Translate the elemental kernel body to C.

    ``omp_atomic`` emits ``#pragma omp atomic`` before every indirect
    increment (the compiled analogue of the CUDA ``atomicAdd`` path);
    ``fn_name`` overrides the emitted function name so a group wrapper
    can hold several renamed copies in one translation unit.
    """
    params = kernel.params
    formals = []
    inc_params: set[str] = set()
    for pname, sig in zip(params, signature):
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
        if ((device or omp_atomic) and access is Access.INC
                and addressing in ("idx", "all")):
            inc_params.add(pname)

    body = _CBody(kernel, signature, device, inc_params,
                  omp_atomic=omp_atomic).translate()
    qual = "__device__ inline" if device else "static inline"
    suffix = "_gpu" if device else ""
    head = (f"{qual} void {fn_name or kernel.name + suffix}("
            + ", ".join(formals) + ") {")
    return "\n".join([head] + [f"  {line}" for line in body] + ["}"])


class _CBody:
    """Statement-by-statement C translation of a validated kernel body."""

    def __init__(self, kernel: Kernel, signature: Sequence[tuple],
                 device: bool, inc_params: set[str],
                 omp_atomic: bool = False) -> None:
        self.kernel = kernel
        self.device = device
        self.omp_atomic = omp_atomic
        self.inc_params = inc_params
        self.vector_params = {
            p for p, sig in zip(kernel.params, signature)
            if sig[0] == "dat" and sig[2] == "all"
        }
        self.dims = {
            p: sig[2] if sig[0] == "gbl" else sig[3]
            for p, sig in zip(kernel.params, signature)
        }
        self.declared: set[str] = set()
        self.loop_vars: set[str] = set()
        self.int_locals: set[str] = set()
        self._infer_int_locals(kernel.func_ast)

    # -- integer typing ---------------------------------------------------
    def _infer_int_locals(self, fdef: ast.FunctionDef) -> None:
        """Fixed-point pass: which locals hold integers on every path?

        Python locals are dynamically typed; the C translation must pick
        one declaration per name. A local counts as integer only when
        *every* assignment to it is integer-valued (loop variables are
        always integers) — then ``abs``/``min``/``max`` over it get
        integer spellings instead of ``fabs``/``fmin``/``fmax``, and it
        stays usable in array-index position.
        """
        assigns: list[tuple[str, ast.expr]] = []
        for node in ast.walk(fdef):
            if isinstance(node, ast.For) and isinstance(node.target,
                                                        ast.Name):
                self.loop_vars.add(node.target.id)
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        assigns.append((tgt.id, node.value))
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name):
                # x /= y is float in Python regardless of operand types
                if isinstance(node.op, ast.Div):
                    assigns.append((node.target.id, ast.Constant(value=0.5)))
                else:
                    assigns.append((node.target.id, node.value))
        self.int_locals = {name for name, _ in assigns} - self.loop_vars
        changed = True
        while changed:
            changed = False
            for name, value in assigns:
                if name in self.int_locals and not self._is_int(value):
                    self.int_locals.discard(name)
                    changed = True

    def _is_int(self, node: ast.expr) -> bool:
        """Does this expression have integer type in the C translation?"""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (bool, int))
        if isinstance(node, ast.Name):
            return node.id in self.loop_vars or node.id in self.int_locals
        if isinstance(node, ast.UnaryOp):
            return self._is_int(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Div, ast.Pow)):
                return False  # Python / is float division; pow -> double
            return self._is_int(node.left) and self._is_int(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_int(node.body) and self._is_int(node.orelse)
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("min", "max"):
                return all(self._is_int(a) for a in node.args)
            if node.func.id == "abs":
                return self._is_int(node.args[0])
        return False  # subscripts (array data) and math calls are double

    def translate(self) -> list[str]:
        fdef = copy.deepcopy(self.kernel.func_ast)
        out: list[str] = []
        for stmt in fdef.body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                         ast.Constant):
                continue
            if isinstance(stmt, ast.Return):
                continue
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
            # indirect INC becomes an atomic: CUDA atomicAdd on the
            # device, ``#pragma omp atomic`` in the compiled atomics
            # strategy (same data-race resolution, host toolchain)
            if ((self.device or self.omp_atomic)
                    and isinstance(target, ast.Subscript)):
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in self.inc_params:
                    loc = self._expr(target)
                    if self.device:
                        signed = value if op == "+=" else f"-({value})"
                        return [f"atomicAdd(&{loc}, {signed});"]
                    return ["#pragma omp atomic",
                            f"{loc} {op} {value};"]
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
