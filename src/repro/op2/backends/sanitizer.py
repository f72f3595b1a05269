"""Race-sanitizer backend: executes coloring plans while verifying them.

A colored execution *trusts* its plan: a color group is scattered with
plain fancy ``+=``, which silently drops increments if the group
writes one dat entry twice in one statement. On real shared-memory
hardware the same bug is a data race — wrong answers, no
diagnostics. The sanitizer runs the colored execution but first
replays every scatter statement symbolically, recording the
per-element write-set (which dat entries each element touches), and
fails loudly with a :class:`RaceError` naming the kernel, the color,
the conflicting elements and the shared target. It also checks that
the color groups partition the iteration space — a plan that skips or
double-executes elements is as wrong as a racy one.

This is the testing analogue of running the OpenMP build under a
thread sanitizer, except deterministic and exact: every conflict is
found on the first run, not when the scheduler happens to interleave
badly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.backends.base import ReductionBuffers
from repro.op2.backends.vectorized import _get_wrapper, run_atomic
from repro.op2.plan import BlockPlan, Plan, _Unit, build_plan, conflict_units

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import ParLoop

__all__ = ["RaceError", "RaceFinding", "SanitizerBackend",
           "check_block_plan", "check_plan"]


@dataclass(frozen=True)
class RaceFinding:
    """One dat entry written twice by a single same-color scatter.

    Either two or more same-color elements (or blocks) write it, or —
    through a vector map row that repeats a target — one element does.
    """

    unit: str                 #: scatter statement, e.g. "res via edge2cell[*]"
    color: int
    target: int               #: the shared dat row
    elements: tuple[int, ...]  #: the conflicting elements (or blocks)

    def describe(self) -> str:
        if len(self.elements) == 1:
            return (f"color {self.color}: element {self.elements[0]} "
                    f"scatters into {self.unit} row {self.target} more "
                    f"than once")
        elems = ", ".join(str(e) for e in self.elements)
        return (f"color {self.color}: elements [{elems}] all scatter into "
                f"{self.unit} row {self.target}")


class RaceError(RuntimeError):
    """A coloring plan allows a same-color write-write conflict.

    ``findings`` holds one :class:`RaceFinding` per conflicting
    (scatter statement, color, target) triple.
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        self.findings = list(findings)


def _duplicate_targets(targets: np.ndarray, owners: np.ndarray,
                       unit_label: str, color: int,
                       distinct_owners: bool) -> list[RaceFinding]:
    """Findings for every target hit more than once.

    With ``distinct_owners`` a target only counts when more than one
    distinct owner hits it — for owners that apply their own writes
    serially (blocks); one fancy ``+=`` loses any repeat at all.
    """
    if targets.size < 2:
        return []
    order = np.argsort(targets, kind="stable")
    t, o = targets[order], owners[order]
    findings = []
    i = 0
    while i < t.size:
        j = i + 1
        while j < t.size and t[j] == t[i]:
            j += 1
        if j - i > 1:
            who = np.unique(o[i:j])
            if who.size > 1 or not distinct_owners:
                findings.append(RaceFinding(
                    unit=unit_label, color=color, target=int(t[i]),
                    elements=tuple(int(x) for x in who)))
        i = j
    return findings


def check_plan(args, plan: Plan, start: int = 0) -> list[RaceFinding]:
    """Write-set audit of an element-coloring plan.

    For every scatter statement (conflict unit) and every color group,
    records which dat rows each element writes and reports every row
    the statement's one fancy ``+=`` would write twice: touched by two
    elements of the group or, for a vector unit (all map columns in
    one statement), twice by the same element. ``start`` restricts the
    audit to the executed segment (the redundant-halo phase runs
    ``[size, exec_size)`` separately from ``[0, size)``).
    """
    findings: list[RaceFinding] = []
    for unit in conflict_units(args, plan.extent):
        for color, group in enumerate(plan.color_groups):
            if start > 0:
                group = group[group >= start]
            targets = np.concatenate([col[group] for col in unit.columns])
            owners = np.concatenate([group] * len(unit.columns))
            findings.extend(_duplicate_targets(
                targets, owners, unit.label, color, distinct_owners=False))
    return findings


def check_block_plan(args, plan: BlockPlan) -> list[RaceFinding]:
    """Write-set audit of a block-coloring plan.

    Same-colored *blocks* execute concurrently while each block runs
    serially, so here a conflict is one dat row written from two
    *different* blocks of the same color — intra-block sharing is fine.
    All writing columns per target set merge into one unit, mirroring
    :func:`~repro.op2.plan.build_block_plan`.
    """
    merged: dict[int, _Unit] = {}
    labels: dict[int, list[str]] = {}
    for u in conflict_units(args, plan.extent):
        slot = merged.setdefault(u.target_id,
                                 _Unit(u.target_size, [], u.target_id))
        slot.columns.extend(u.columns)
        labels.setdefault(u.target_id, []).append(u.label)
    findings: list[RaceFinding] = []
    block_of = np.arange(plan.extent, dtype=np.int64) // plan.block_size
    for unit in merged.values():
        label = " + ".join(labels[unit.target_id])
        for color in range(plan.ncolors):
            rows = np.concatenate(
                [np.arange(s, e, dtype=np.int64)
                 for s, e in plan.blocks_of_color(color)] or
                [np.empty(0, dtype=np.int64)])
            if rows.size < 2:
                continue
            targets = np.concatenate([col[rows] for col in unit.columns])
            owners = np.concatenate([block_of[rows]] * len(unit.columns))
            findings.extend(_duplicate_targets(targets, owners, label, color,
                                               distinct_owners=True))
    return findings


def _verify_partition(plan: Plan, kernel_name: str, start: int,
                      end: int) -> None:
    """The color groups must cover [start, end) exactly once each."""
    groups = [g[g >= start] if start > 0 else g for g in plan.color_groups]
    executed = np.sort(np.concatenate(groups)) if groups else np.empty(0, int)
    expected = np.arange(start, end, dtype=executed.dtype)
    if executed.shape != expected.shape or not np.array_equal(executed, expected):
        raise RaceError(
            f"sanitizer: plan for par_loop({kernel_name}) does not cover "
            f"the iteration space [{start}, {end}): color groups execute "
            f"{executed.size} of {expected.size} elements (with duplicates "
            f"and/or gaps)")


class SanitizerBackend:
    """Colored execution with per-element write-set verification.

    Runs the plan's color groups in order through the colored
    (plain ``+=``) vectorized wrapper, but every plan is audited first;
    a racy or non-partitioning plan raises :class:`RaceError` before
    any data is touched. Slower — run it in tests and debugging
    sessions, not production sweeps.
    """

    name = "sanitizer"

    def execute(self, loop: "ParLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        plan = build_plan(loop.args, end)
        flat = loop.flatten_bindings(reductions)
        if plan is None:  # no indirect writes: nothing can race
            run_atomic(loop, start, end, flat)
            return
        _verify_partition(plan, loop.kernel.name, start, end)
        findings = check_plan(loop.args, plan, start=start)
        if findings:
            lines = [f"sanitizer: race detected in par_loop"
                     f"({loop.kernel.name}): {len(findings)} same-color "
                     f"write conflict(s)"]
            lines += [f"  {f.describe()}" for f in findings[:20]]
            if len(findings) > 20:
                lines.append(f"  ... and {len(findings) - 20} more")
            raise RaceError("\n".join(lines), findings)
        wrapper = _get_wrapper(loop, "colored")
        for group in plan.color_groups:
            if start > 0:
                group = group[group >= start]
            if group.size:
                wrapper(np, group, *flat)
