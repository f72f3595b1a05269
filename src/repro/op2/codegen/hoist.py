"""Map-invariant hoisting: a kernel's per-node work, once per node;
its set-up-fixed work, once per binding.

An edge kernel that reads a node dat through two map columns (``q1``
and ``q2`` of ``flux_edge``) evaluates everything that depends on one
endpoint once per *edge*, and so as many times per node as the node
has edges. This module finds that work; the compiled generator
(:mod:`~repro.op2.codegen.csource`) evaluates it in a node pre-pass
into a scratch array the element loop then reads. It also finds the
work that follows from data fixed at set-up, which the generator
evaluates on a binding's first run only.

The rule. A kernel local is *hoistable on* parameter ``p`` when

* ``p`` is an indirect (``idx``) READ argument and no argument of the
  loop writes its dat — a signature's dat entries name, as their
  seventh element, the first argument bound to the same dat
  (:meth:`~repro.op2.parloop.BoundLoop.native_signature`); without
  that element nothing is hoisted;
* the local is assigned exactly once, at the top level of the body
  (not inside a ``for``), and is double-typed
  (:func:`~repro.op2.kernel.integer_locals`);
* its right-hand side reads only constants, ``p[c]`` with a literal
  ``c``, READ Globals, whitelisted math calls and other locals
  hoistable on ``p``, and depends on ``p``.

A local reading only constants and READ Globals (``gm1 = gam[0] -
1.0``) is *uniform*: every pre-pass that needs it recomputes it, and
the element body keeps it. The *frontier* of ``p`` is the hoisted
locals that code staying in the element body reads, minus plain loads
``x = p[c]``, which the body keeps (a load from ``p`` costs what a load
from scratch does). A parameter with an empty frontier hoists nothing.

Parameters bound to one dat whose hoisted statements are equal up to
renaming share a :class:`HoistGroup`: one pre-pass over the sorted
unique rows their map columns reference in the executed range, one
``(total_size, width)`` scratch array holding the frontier in
definition order. The element body loads each frontier local from the
scratch row of its own map target and drops every other hoisted
statement. The pre-pass evaluates the same expressions on the same
operands in the same order, so hoisted results are bitwise those of
the unhoisted body.

The invariant class. When the signature records which dats are frozen
(:meth:`~repro.op2.dat.Dat.freeze`; an eighth dat element) and which
Globals const (a fourth), a local obeying the rules above is
*invariant* when it reads only constants, const Globals, ``p[c]`` of
frozen dats (direct, indirect, or vector ``p[i, c]``) and other such
locals, and depends on a frozen dat. An invariant local that is not
hoisted and not a plain load is *cached*: the body loads the ones it
reads (:attr:`HoistPlan.cache`) from a per-element row, which the
generator fills on a binding's first run, with the same expressions on
the same operands: bitwise the uncached results. A hoisting group
stays a per-call pre-pass even when its statements are invariant.
"""

from __future__ import annotations

import ast
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.op2.access import Access, WRITING
from repro.op2.kernel import Kernel, MATH_WHITELIST, integer_locals


@dataclass(frozen=True)
class HoistGroup:
    """One node pre-pass shared by parameters bound to one dat."""

    #: argument indices of the members, in argument order
    members: tuple[int, ...]
    #: the members' kernel parameter names
    params: tuple[str, ...]
    #: per member, its frontier locals (slot ``j`` of a scratch row)
    frontiers: tuple[tuple[str, ...], ...]
    #: the first member's pre-pass statements, in kernel order
    body: tuple[ast.stmt, ...]
    #: READ Global parameters the pre-pass reads, in parameter order
    global_params: tuple[str, ...]

    @property
    def width(self) -> int:
        """Scratch row length: the number of frontier locals."""
        return len(self.frontiers[0])

    @property
    def label(self) -> str:
        """What the group hoists on, for generated comments: the
        members' common name stem (``q`` for ``q1, q2``), or their
        names."""
        stem = os.path.commonprefix(self.params).rstrip("0123456789_")
        if len(self.params) > 1 and stem:
            return stem
        return ", ".join(self.params)


@dataclass(frozen=True)
class HoistPlan:
    """What a loop hoists: its groups and the element-body rewrite."""

    groups: tuple[HoistGroup, ...] = ()
    #: frontier local -> (member parameter, scratch slot) it loads
    loads: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: hoisted and cached locals whose assignment leaves the element
    #: body
    dropped: frozenset[str] = frozenset()
    #: per-element invariant locals the element body loads (slot order)
    cache: tuple[str, ...] = ()
    #: the statements a cache fill evaluates, in kernel order
    cache_body: tuple[ast.stmt, ...] = ()


NO_HOIST = HoistPlan()


def hoist_plan(kernel: Kernel, signature: Sequence[tuple]) -> HoistPlan:
    """The :class:`HoistPlan` of ``kernel`` under ``signature``,
    memoized on the kernel."""
    key = ("hoist", tuple(signature))
    plan = kernel.cached(key)
    if plan is None:
        plan = _analyse(kernel, tuple(signature))
        kernel.store(key, plan)
    return plan


def _analyse(kernel: Kernel, signature: tuple) -> HoistPlan:
    params = kernel.params
    if len(params) != len(signature):
        return NO_HOIST  # the generator reports the mismatch
    dats = [sig for sig in signature if sig[0] == "dat"]
    if not dats or any(len(sig) < 7 for sig in dats):
        return NO_HOIST  # no record of which arguments share a dat
    written = {sig[6] for sig in dats if sig[1] in WRITING}
    eligible = {
        p: i for i, (p, sig) in enumerate(zip(params, signature))
        if sig[0] == "dat" and sig[1] is Access.READ and sig[2] == "idx"
        and sig[6] not in written}
    frozen = {p for p, sig in zip(params, signature)
              if sig[0] == "dat" and sig[7:] == (True,)}
    if not eligible and not frozen:
        return NO_HOIST
    read_globals = {p for p, sig in zip(params, signature)
                    if sig[0] == "gbl" and sig[1] is Access.READ}
    const = {p for p, sig in zip(params, signature)
             if sig[0] == "gbl" and sig[3:] == (True,)}

    fdef = kernel.func_ast
    body = [s for s in fdef.body
            if not isinstance(s, ast.Return)
            and not (isinstance(s, ast.Expr)
                     and isinstance(s.value, ast.Constant))]
    assigned = Counter(_assigned_names(fdef))
    loop_vars, ints = integer_locals(fdef)

    #: hoistable local -> the parameter it depends on (None: uniform)
    depends: dict[str, str | None] = {}
    #: invariant local -> a frozen dat parameter it reads (None: none)
    invariant: dict[str, str | None] = {}
    assignment: dict[str, ast.Assign] = {}
    order: list[str] = []
    for stmt in body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        name = stmt.targets[0].id
        if assigned[name] != 1 or name in ints or name in loop_vars \
                or name in params:
            continue
        deps = _reads(stmt.value, eligible, read_globals, depends)
        if deps is not None and len(deps) < 2:
            depends[name] = next(iter(deps), None)
        deps = _reads(stmt.value, frozen, const, invariant)
        if deps is not None:
            invariant[name] = min(deps, default=None)
        if name in depends or name in invariant:
            assignment[name] = stmt
            order.append(name)

    hoisted = {n for n, p in depends.items() if p is not None}
    cached = {n for n, p in invariant.items() if p is not None
              and n not in hoisted and not _is_load(assignment[n].value)}
    reads = {name: _names_read(stmt.value)
             for name, stmt in assignment.items()}
    kept_reads: set[str] = set()
    for stmt in body:
        if not (isinstance(stmt, ast.Assign)
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id in hoisted | cached):
            kept_reads |= _names_read(stmt)

    candidates: dict[tuple, list] = {}
    for p, i in eligible.items():
        frontier = [n for n in order if depends.get(n) == p
                    and n in kept_reads
                    and not _is_load(assignment[n].value)]
        if not frontier:
            continue
        needed = set(frontier)
        pending = list(frontier)
        while pending:
            for name in reads[pending.pop()]:
                if name in depends and name not in needed:
                    needed.add(name)
                    pending.append(name)
        stmts = [assignment[n] for n in order if n in needed]
        key = (signature[i][6], signature[i][3],
               _canonical(stmts, p, frontier))
        candidates.setdefault(key, []).append((i, p, tuple(frontier), stmts))

    groups: list[HoistGroup] = []
    loads: dict[str, tuple[str, int]] = {}
    for members in candidates.values():
        first_stmts = members[0][3]
        used = set().union(*(reads[s.targets[0].id] for s in first_stmts))
        groups.append(HoistGroup(
            members=tuple(i for i, _, _, _ in members),
            params=tuple(p for _, p, _, _ in members),
            frontiers=tuple(f for _, _, f, _ in members),
            body=tuple(first_stmts),
            global_params=tuple(g for g in params
                                if g in read_globals and g in used)))
        for _, p, frontier, _ in members:
            loads.update((n, (p, j)) for j, n in enumerate(frontier))
    groups.sort(key=lambda g: g.members[0])

    cache = tuple(n for n in order if n in cached and n in kept_reads)
    needed, pending = set(cache), list(cache)
    while pending:
        for name in reads[pending.pop()]:
            if name in invariant and name not in needed:
                needed.add(name)
                pending.append(name)
    dropped = frozenset(n for n in hoisted | cached if n not in kept_reads
                        and not _is_load(assignment[n].value))
    return HoistPlan(tuple(groups), loads, dropped, cache,
                     tuple(assignment[n] for n in order if n in needed))


def _assigned_names(fdef: ast.FunctionDef):
    """Every name binding in the body, once per binding statement."""
    for node in ast.walk(fdef):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            continue
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def _reads(expr: ast.expr, eligible: dict, read_globals: set,
           depends: dict) -> set[str] | None:
    """The eligible parameters ``expr`` depends on, or None when it
    reads anything a pre-pass cannot evaluate."""
    deps: set[str] = set()

    def ok(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float))
        if isinstance(node, ast.Name):
            if node.id not in depends:
                return False
            if depends[node.id] is not None:
                deps.add(depends[node.id])
            return True
        if isinstance(node, ast.Subscript):
            base, index = node.value, node.slice
            literal = (index.elts if isinstance(index, ast.Tuple)
                       else [index])
            if not (isinstance(base, ast.Name) and all(
                    isinstance(c, ast.Constant) and type(c.value) is int
                    for c in literal)):
                return False
            if base.id in eligible:
                deps.add(base.id)
                return True
            return base.id in read_globals
        if isinstance(node, ast.BinOp):
            return ok(node.left) and ok(node.right)
        if isinstance(node, ast.UnaryOp):
            return ok(node.operand)
        if isinstance(node, ast.BoolOp):
            return all(ok(v) for v in node.values)
        if isinstance(node, ast.Compare):
            return ok(node.left) and all(ok(c) for c in node.comparators)
        if isinstance(node, ast.IfExp):
            return ok(node.test) and ok(node.body) and ok(node.orelse)
        if isinstance(node, ast.Call):
            return (isinstance(node.func, ast.Name)
                    and node.func.id in MATH_WHITELIST
                    and not node.keywords
                    and all(ok(a) for a in node.args))
        return False

    return deps if ok(expr) else None


def _is_load(expr: ast.expr) -> bool:
    """``p[c]``: a plain load the element body keeps."""
    return isinstance(expr, ast.Subscript)


def _names_read(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _canonical(stmts: list[ast.Assign], param: str,
               frontier: list[str]) -> tuple:
    """``stmts`` and ``frontier`` with ``param`` and the locals renamed
    by position: equal for two parameters exactly when their hoisted
    bodies are equal up to renaming."""
    names = {param: " p"}
    names.update((s.targets[0].id, f" l{k}") for k, s in enumerate(stmts))

    def shape(node):
        if isinstance(node, ast.Name):
            return names.get(node.id, node.id)
        if isinstance(node, ast.Constant):
            return (type(node.value).__name__, node.value)
        if isinstance(node, ast.AST):
            return (type(node).__name__,
                    *(shape(getattr(node, f)) for f in node._fields))
        if isinstance(node, list):
            return tuple(shape(n) for n in node)
        return node

    return (tuple(shape(s) for s in stmts),
            tuple(names[n] for n in frontier))
