"""The numpy race-strategy simulations the compiled backends superseded.

Before the ``native`` and ``native-atomics`` backends compiled the
paper's two data-race strategies, three numpy backends simulated them:

* :class:`ColoringBackend` (``"coloring"``) — per conflict-free color
  group with plain fancy ``+=`` scatter (OpenMP element coloring);
* :class:`AtomicsBackend` (``"atomics"``) — fixed-size chunks with
  ``np.add.at`` scatter, modelling a GPU grid of thread blocks (CUDA);
* :class:`BlockColorBackend` (``"blockcolor"``) — contiguous blocks
  ordered by block color (OP2's OpenMP *plan* shape).

They now serve as oracles: ``native`` applies increments in exactly
the block-color order of ``blockcolor`` and ``native-atomics`` in
exactly the chunk order of ``atomics``, so the differential tests pin
each compiled backend bitwise to its simulation.
:func:`register_oracle_backends` (called by ``tests/conftest.py``)
adds all three to :data:`repro.op2.backends.BACKENDS` under these
names, with the compiled oracles of :mod:`tests.oracles.compiled`
(``native-atomics``, ``native-atomics-unhoisted``, ``native-unhoisted``,
``native-uncached``);
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.op2.backends import BACKENDS
from repro.op2.backends.vectorized import _get_wrapper, run_atomic
from repro.op2.config import current_config
from repro.op2.plan import build_block_plan, build_plan
from tests.oracles import compiled


def atomics_chunks(start: int, end: int, block: int):
    """Yield the ``(lo, hi)`` simulated thread-block ranges of [start, end).

    The compiled ``native-atomics`` wrapper cuts its range into the
    same ``ATOMICS_BLOCK``-element chunks, which is what makes the two
    bitwise comparable.
    """
    block = max(1, block)
    for lo in range(start, end, block):
        yield lo, min(lo + block, end)


class ColoringBackend:
    """Conflict-free color groups with plain ``+=`` scatter.

    The plan colors the whole range [0, end); each group is filtered
    to the executed segment so redundant-halo segments stay separable.
    Loops without indirect writes need no coloring and run in one shot.
    """

    name = "coloring"

    def execute(self, loop, start: int, end: int, reductions) -> None:
        plan = build_plan(loop.args, end)
        flat = loop.flatten_bindings(reductions)
        if plan is None:
            run_atomic(loop, start, end, flat)
            return
        wrapper = _get_wrapper(loop, "colored")
        for group in plan.color_groups:
            if start > 0:
                group = group[group >= start]
            if group.size:
                wrapper(np, group, *flat)


class AtomicsBackend:
    """Chunked execution with atomic-add scatter (CUDA grid analogue).

    The chunk size (:data:`tests.oracles.compiled.ATOMICS_BLOCK`) is
    the simulated thread-block extent.
    """

    name = "atomics"

    def execute(self, loop, start: int, end: int, reductions) -> None:
        block = compiled.ATOMICS_BLOCK
        flat = loop.flatten_bindings(reductions)
        for lo, hi in atomics_chunks(start, end, block):
            run_atomic(loop, lo, hi, flat)


class BlockColorBackend:
    """Per-block execution ordered by block color (OpenMP-plan analogue).

    OP2's OpenMP plan partitions the iteration space into contiguous
    blocks, colors blocks that share indirect-write targets, and runs
    one color's blocks concurrently on the thread team. Same-colored
    blocks share no target (the block plan merges *all* writing columns
    per target set into one conflict unit); within a block elements may
    still conflict, so the intra-block scatter is atomic — OP2 resolves
    that with a nested element coloring, which is equivalent.
    """

    name = "blockcolor"

    def execute(self, loop, start: int, end: int, reductions) -> None:
        block_size = max(1, current_config().block_size)
        plan = build_block_plan(loop.args, end, block_size=block_size)
        flat = loop.flatten_bindings(reductions)
        if plan is None:
            run_atomic(loop, start, end, flat)
            return
        for color in range(plan.ncolors):
            for lo, hi in plan.blocks_of_color(color):
                lo = max(lo, start)
                hi = min(hi, end)
                if lo < hi:
                    run_atomic(loop, lo, hi, flat)


ORACLE_BACKENDS = {b.name: b for b in
                   (ColoringBackend(), AtomicsBackend(), BlockColorBackend(),
                    *compiled.COMPILED_ORACLES)}


def register_oracle_backends() -> None:
    """Make the simulations selectable by name (``backend="atomics"``)."""
    BACKENDS.update(ORACLE_BACKENDS)
