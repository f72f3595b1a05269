"""Elemental kernels: the "science source" of an OP2 application.

A kernel is an ordinary Python function written in a *restricted,
scalar* style — it describes the computation for **one** element,
receiving one small array view per par_loop argument, with no hint of
parallelization (exactly the paper's Fig. 3). The code-generation
layer parses this single source and emits radically different
executable code per backend.

Restricted kernel language
--------------------------
* assignments / augmented assignments to local scalars and to
  constant-indexed subscripts of the argument arrays;
* arithmetic, comparisons, boolean operators, and conditional
  *expressions* (``a if c else b`` — vectorized to ``np.where``);
* calls to the whitelisted math functions (``sqrt``, ``fabs``/``abs``,
  ``exp``, ``log``, ``sin``, ``cos``, ``atan2``, ``min``, ``max``,
  ``pow``, ``copysign``);
* ``for i in range(<literal>)`` loops (scalar-index loops; the
  vectorized generator turns a component loop into row operations
  where that is exact);
* no ``if`` statements, ``while``, attribute access, or other calls —
  the parser rejects them with a pointed error, because they cannot be
  mapped onto every backend.
"""

from __future__ import annotations

import ast
import inspect
import math
import textwrap
import threading
from typing import Callable

from repro.util.atomicio import ast_lock


class KernelParseError(ValueError):
    """The kernel source steps outside the restricted language."""


def kernel_max(a, b):
    """``max`` in a kernel: numpy's ``maximum`` on scalars.

    A NaN operand is the result (Python's ``max`` and C's ``fmax`` drop
    it, depending on argument order), and of two equal operands — ``-0.``
    and ``0.`` included — the second. Every backend spells the same
    rule: ``np.maximum`` (numpy), this function (sequential) and
    ``op2_max`` (compiled C).
    """
    return a if a > b or a != a else b


def kernel_min(a, b):
    """``min`` in a kernel: numpy's ``minimum`` on scalars (see
    :func:`kernel_max`)."""
    return a if a < b or a != a else b


#: functions kernels may call, and their numpy spellings
MATH_WHITELIST: dict[str, str] = {
    "sqrt": "_np.sqrt",
    "fabs": "_np.abs",
    "abs": "_np.abs",
    "exp": "_np.exp",
    "log": "_np.log",
    "sin": "_np.sin",
    "cos": "_np.cos",
    "tan": "_np.tan",
    "atan2": "_np.arctan2",
    "min": "_np.minimum",
    "max": "_np.maximum",
    "pow": "_np.power",
    "copysign": "_np.copysign",
}


class Kernel:
    """A named elemental kernel.

    Parameters
    ----------
    fn:
        The Python function implementing the per-element computation.
        Its positional parameters correspond one-to-one with the
        par_loop arguments.
    name:
        Identifier used in generated code; defaults to ``fn.__name__``.
    """

    def __init__(self, fn: Callable | str, name: str | None = None) -> None:
        if isinstance(fn, str):
            # kernel given as source text (e.g. generated at runtime)
            self.fn = None
            self.source = textwrap.dedent(fn)
            try:
                with ast_lock:
                    tree = ast.parse(self.source)
            except SyntaxError as exc:
                raise KernelParseError(
                    f"kernel source does not parse: {exc}"
                ) from exc
            fdefs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
            if len(fdefs) != 1:
                raise KernelParseError(
                    "kernel source must contain exactly one function"
                )
            self.name = name or fdefs[0].name
        else:
            if not callable(fn):
                raise TypeError(f"kernel fn must be callable, got {fn!r}")
            self.fn = fn
            self.name = name or fn.__name__
            try:
                src = inspect.getsource(fn)
            except (OSError, TypeError) as exc:
                raise KernelParseError(
                    f"cannot retrieve source for kernel {self.name!r}; "
                    f"kernels must be defined in a file (not a REPL/lambda) "
                    f"or passed as a source string"
                ) from exc
            self.source = textwrap.dedent(src)
        if not self.name.isidentifier():
            raise ValueError(f"Kernel name must be an identifier: {self.name!r}")
        self._ast: ast.FunctionDef | None = None
        self._params: list[str] | None = None
        self._scalar_fn: Callable | None = None
        #: generated-code cache: (backend, signature) -> compiled wrapper
        #: (and per-signature analyses, such as the hoisting plan)
        self._cache: dict[tuple, object] = {}
        self._cache_lock = threading.Lock()
        #: generated source text per cache key, for inspection/examples
        self._generated_sources: dict[tuple, str] = {}

    # -- parsing -------------------------------------------------------
    @property
    def func_ast(self) -> ast.FunctionDef:
        """The parsed (and validated) function definition."""
        if self._ast is None:
            with ast_lock:
                tree = ast.parse(self.source)
            fdefs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
            if len(fdefs) != 1:
                raise KernelParseError(
                    f"kernel source for {self.name!r} must contain exactly one "
                    f"function definition"
                )
            fdef = fdefs[0]
            fdef.decorator_list = []  # e.g. @staticmethod wrappers
            _Validator(self.name, {a.arg for a in fdef.args.args}).visit(fdef)
            self._ast = fdef
        return self._ast

    @property
    def params(self) -> list[str]:
        """Positional parameter names (one per par_loop argument)."""
        if self._params is None:
            fdef = self.func_ast
            if fdef.args.posonlyargs or fdef.args.kwonlyargs or fdef.args.vararg \
                    or fdef.args.kwarg or fdef.args.defaults:
                raise KernelParseError(
                    f"kernel {self.name!r} must take plain positional parameters"
                )
            self._params = [a.arg for a in fdef.args.args]
        return self._params

    @property
    def scalar_fn(self) -> Callable:
        """The kernel recompiled with the math whitelist in scope.

        Kernel sources reference ``sqrt``/``fabs``/... as bare names;
        the scalar (sequential) execution path provides them from the
        ``math`` module, matching the numpy spellings the vectorized
        path generates.
        """
        if self._scalar_fn is None:
            fdef = self.func_ast  # validates first
            namespace: dict = {
                "sqrt": math.sqrt, "fabs": math.fabs, "exp": math.exp,
                "log": math.log, "sin": math.sin, "cos": math.cos,
                "tan": math.tan, "atan2": math.atan2, "pow": pow,
                "copysign": math.copysign, "abs": abs, "min": kernel_min,
                "max": kernel_max, "range": range,
            }
            module = ast.Module(body=[fdef], type_ignores=[])
            ast.fix_missing_locations(module)
            with ast_lock:  # compile(ast_obj) converts AST too
                code = compile(module, filename=f"<op2-kernel:{self.name}>",
                               mode="exec")
            exec(code, namespace)  # noqa: S102 - validated kernel source
            self._scalar_fn = namespace[fdef.name]
        return self._scalar_fn

    # -- generated-code cache -------------------------------------------
    def cached(self, key: tuple):
        return self._cache.get(key)

    def store(self, key: tuple, wrapper: object,
              source: str | None = None) -> None:
        """Memoize ``wrapper`` under ``key``; ``source``, when given,
        is kept for :meth:`generated_sources`."""
        with self._cache_lock:
            self._cache[key] = wrapper
            if source is not None:
                self._generated_sources[key] = source

    def generated_sources(self) -> dict[tuple, str]:
        """All generated source variants so far (for inspection)."""
        return dict(self._generated_sources)

    def __repr__(self) -> str:
        return f"Kernel({self.name!r}, params={self.params})"


def integer_locals(fdef: ast.FunctionDef) -> tuple[set[str], set[str]]:
    """``(loop variables, integer locals)`` of a kernel body.

    Python locals are dynamically typed; a C translation must pick one
    declaration per name. A local counts as integer only when *every*
    assignment to it is integer-valued (a fixed point: ``j = i`` is
    integer while ``i`` is); loop variables always are.
    """
    loop_vars: set[str] = set()
    assigns: list[tuple[str, ast.expr]] = []
    for node in ast.walk(fdef):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            loop_vars.add(node.target.id)
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
    ints = {name for name, _ in assigns} - loop_vars
    changed = True
    while changed:
        changed = False
        for name, value in assigns:
            if name in ints and not is_integer(value, loop_vars | ints):
                ints.discard(name)
                changed = True
    return loop_vars, ints


def is_integer(node: ast.expr, ints: set[str]) -> bool:
    """Is this kernel expression integer-typed, given the integer names?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (bool, int))
    if isinstance(node, ast.Name):
        return node.id in ints
    if isinstance(node, ast.UnaryOp):
        return is_integer(node.operand, ints)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Div, ast.Pow)):
            return False  # Python / is float division; pow -> double
        return is_integer(node.left, ints) and is_integer(node.right, ints)
    if isinstance(node, ast.IfExp):
        return is_integer(node.body, ints) and is_integer(node.orelse, ints)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("min", "max"):
            return all(is_integer(a, ints) for a in node.args)
        if node.func.id == "abs":
            return is_integer(node.args[0], ints)
    return False  # subscripts (array data) and math calls are double


class _Validator(ast.NodeVisitor):
    """Reject constructs outside the restricted kernel language."""

    _ALLOWED_STMT = (ast.Assign, ast.AugAssign, ast.For, ast.Expr,
                     ast.Return, ast.Pass, ast.AnnAssign)

    def __init__(self, kernel_name: str, param_names: set[str]) -> None:
        self.kernel_name = kernel_name
        self.param_names = param_names

    def _err(self, node: ast.AST, msg: str) -> KernelParseError:
        line = getattr(node, "lineno", "?")
        return KernelParseError(
            f"kernel {self.kernel_name!r}, line {line}: {msg}"
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:
            self._check_stmt(stmt)

    def _check_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return  # docstring
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                raise self._err(stmt, "kernels must not return values; write "
                                      "results through their arguments")
            return
        if isinstance(stmt, ast.If):
            raise self._err(
                stmt, "`if` statements are not vectorizable; use a conditional "
                      "expression: x = a if cond else b"
            )
        if isinstance(stmt, ast.While):
            raise self._err(stmt, "`while` loops are not supported in kernels")
        if isinstance(stmt, ast.For):
            self._check_for(stmt)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._check_expr_tree(stmt)
            return
        raise self._err(stmt, f"statement {type(stmt).__name__} is not allowed "
                              f"in kernels")

    def _check_for(self, stmt: ast.For) -> None:
        it = stmt.iter
        ok = (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and 1 <= len(it.args) <= 2
            and all(isinstance(a, ast.Constant) and isinstance(a.value, int)
                    for a in it.args)
        )
        if not ok:
            raise self._err(stmt, "only `for i in range(<int literal>)` loops "
                                  "are allowed in kernels")
        if stmt.orelse:
            raise self._err(stmt, "for/else is not allowed in kernels")
        for sub in stmt.body:
            self._check_stmt(sub)

    def _check_expr_tree(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name):
                    raise self._err(node, "only simple whitelisted calls are "
                                          "allowed in kernels")
                if node.func.id not in MATH_WHITELIST:
                    raise self._err(
                        node,
                        f"call to {node.func.id!r} is not in the kernel math "
                        f"whitelist {sorted(MATH_WHITELIST)}",
                    )
            elif isinstance(node, ast.Attribute):
                raise self._err(node, "attribute access is not allowed in kernels")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp, ast.Lambda, ast.Await,
                                   ast.Yield, ast.YieldFrom, ast.Starred)):
                raise self._err(node, f"{type(node).__name__} is not allowed "
                                      f"in kernels")
