"""Race-sanitizer backend: audits the block plan ``native`` runs, then runs it.

The compiled ``native`` backend *trusts* its block plan: same-colored
blocks run concurrently on the OpenMP team, so a plan that gives two
blocks sharing an indirect-write target one color is a data race —
wrong answers, no diagnostics. The sanitizer looks up the very plan
object ``native`` executes (:func:`~repro.op2.plan.build_block_plan`,
same cache key) and audits it on every execution: the per-block
write-sets (:func:`check_block_plan` — a dat row written from two
blocks of one color is a race) and the partition (every block's color
lies in ``[0, ncolors)``, so the colors execute every element exactly
once). A bad plan raises :class:`RaceError` naming the kernel, the
color, the conflicting blocks and the shared target before any data is
touched; a clean one runs color by color over the plan's native-ABI
arrays through the numpy atomic wrapper — the block-color order of
``native`` itself.

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
from repro.op2.backends.vectorized import run_atomic
from repro.op2.plan import BlockPlan, build_block_plan, conflict_units

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import BoundLoop

__all__ = ["RaceError", "RaceFinding", "SanitizerBackend", "check_block_plan"]


@dataclass(frozen=True)
class RaceFinding:
    """One dat entry written from two or more blocks of one color."""

    unit: str                #: the writing arguments, e.g. "res via pedge[*]"
    color: int
    target: int              #: the shared dat row
    blocks: tuple[int, ...]  #: the conflicting blocks

    def describe(self) -> str:
        blocks = ", ".join(str(b) for b in self.blocks)
        return (f"color {self.color}: blocks [{blocks}] all scatter into "
                f"{self.unit} row {self.target}")


class RaceError(RuntimeError):
    """A block plan allows a same-color write-write conflict, or its
    colors do not cover the iteration space.

    ``findings`` holds one :class:`RaceFinding` per conflicting
    (conflict unit, color, target) triple.
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        self.findings = list(findings)


def check_block_plan(args, plan: BlockPlan) -> list[RaceFinding]:
    """Write-set audit of a block plan.

    Same-colored blocks execute concurrently while each block runs
    serially, so a conflict is one dat row written from two *different*
    blocks of the same color — intra-block sharing is fine. One finding
    per (conflict unit, color, row), in color and row order.
    """
    block = np.arange(plan.extent, dtype=np.int64) // plan.block_size
    color = plan.block_colors[block].astype(np.int64)
    findings: list[RaceFinding] = []
    for unit in conflict_units(args, plan.extent):
        k = len(unit.columns)
        # one column per written (color, row, block), sorted in that order
        c, t, b = np.unique(np.stack([np.tile(color, k),
                                      np.concatenate(unit.columns),
                                      np.tile(block, k)]), axis=1)
        first = np.flatnonzero(np.r_[True, (c[1:] != c[:-1])
                                     | (t[1:] != t[:-1])])
        count = np.diff(np.r_[first, c.size])
        for s, n in zip(first[count > 1], count[count > 1]):
            findings.append(RaceFinding(
                unit=unit.label, color=int(c[s]), target=int(t[s]),
                blocks=tuple(int(x) for x in b[s:s + n])))
    return findings


def _check_partition(plan: BlockPlan, kernel_name: str) -> None:
    """Every block needs a color in [0, ncolors): the plan's execution
    order visits colors ``0 .. ncolors - 1`` only."""
    colors = plan.block_colors
    stray = np.flatnonzero((colors < 0) | (colors >= plan.ncolors))
    if stray.size:
        raise RaceError(
            f"sanitizer: plan for par_loop({kernel_name}) does not cover "
            f"the iteration space [0, {plan.extent}): blocks "
            f"{stray[:20].tolist()} colored outside [0, {plan.ncolors})")


class SanitizerBackend:
    """Block-color execution of the ``native`` plan, audited per run.

    Slower than ``vectorized`` — run it in tests and debugging
    sessions, not production sweeps.
    """

    name = "sanitizer"

    def execute(self, loop: "BoundLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        flat = loop.flatten_bindings(reductions)
        plan = build_block_plan(loop.args, end)
        if plan is None:  # no indirect writes: nothing can race
            run_atomic(loop, start, end, flat)
            return
        _check_partition(plan, loop.kernel.name)
        findings = check_block_plan(loop.args, plan)
        if findings:
            lines = [f"sanitizer: race detected in par_loop"
                     f"({loop.kernel.name}): {len(findings)} same-color "
                     f"write conflict(s)"]
            lines += [f"  {f.describe()}" for f in findings[:20]]
            if len(findings) > 20:
                lines.append(f"  ... and {len(findings) - 20} more")
            raise RaceError("\n".join(lines), findings)
        blk_lo, blk_hi, _ = plan.native_arrays(start, end)
        for lo, hi in zip(blk_lo.tolist(), blk_hi.tolist()):
            run_atomic(loop, lo, hi, flat)
