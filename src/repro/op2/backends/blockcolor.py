"""Block-coloring backend: OP2's OpenMP execution shape.

OP2's OpenMP plan partitions the iteration space into contiguous
blocks, colors blocks that share indirect-write targets, and runs one
color's blocks concurrently on the thread team. We reproduce that
shape: same-colored blocks are provably safe to run in any order or in
parallel (the block plan merges *all* writing columns per target set
into one conflict unit), and each block executes vectorized. Within a
block, elements may still conflict with each other — OP2 resolves that
with a nested element coloring; we use the atomic scatter, which is
equivalent and simpler — so the cross-block independence is what the
plan guarantees, exactly as a real thread team requires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.op2.backends.base import ReductionBuffers
from repro.op2.backends.vectorized import _get_wrapper
from repro.op2.config import current_config
from repro.op2.plan import build_block_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import ParLoop


class BlockColorBackend:
    """Per-block execution ordered by block color (OpenMP-plan analogue).

    Within a block, elements may still conflict (blocks are contiguous
    index ranges, not conflict-free sets), so the intra-block scatter
    is atomic; *across* same-colored blocks the plan guarantees no
    shared targets — exactly the property OP2's OpenMP backend relies
    on to run one color's blocks on many threads.
    """

    name = "blockcolor"

    def execute(self, loop: "ParLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        block_size = max(1, current_config().block_size)
        plan = build_block_plan(loop.args, end, block_size=block_size)
        flat = loop.flatten_bindings(reductions)
        wrapper = _get_wrapper(loop, "atomic")
        if plan is None:
            wrapper(np, np.arange(start, end, dtype=np.int64), *flat)
            return
        for color in range(plan.ncolors):
            for lo, hi in plan.blocks_of_color(color):
                lo = max(lo, start)
                hi = min(hi, end)
                if lo < hi:
                    wrapper(np, np.arange(lo, hi, dtype=np.int64), *flat)
