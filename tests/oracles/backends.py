"""The numpy race-strategy simulations the compiled backends superseded.

Before the ``native`` and ``native-atomics`` backends compiled the
paper's two data-race strategies, numpy backends simulated them:

* :class:`AtomicsBackend` (``"atomics"``) — fixed-size chunks with
  ``np.add.at`` scatter, modelling a GPU grid of thread blocks (CUDA);
* :class:`BlockColorBackend` (``"blockcolor"``) — contiguous blocks
  ordered by block color (OP2's OpenMP *plan* shape);
* :class:`ColoringBackend` (``"coloring"``) — the same block plan at
  one element per block, i.e. element coloring.

They now serve as oracles: ``native`` applies increments in exactly
the block-color order of ``blockcolor`` (as does ``sanitizer``) and
``native-atomics`` in exactly the chunk order of ``atomics``, so the
differential tests pin each compiled backend bitwise to its simulation.
:func:`register_oracle_backends` (called by ``tests/conftest.py``)
adds them to :data:`repro.op2.backends.BACKENDS` under these
names, with the compiled oracles of :mod:`tests.oracles.compiled`
(``native-atomics``, ``native-atomics-unhoisted``, ``native-unhoisted``,
``native-uncached``);
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.op2.backends import BACKENDS
from repro.op2.backends.vectorized import run_atomic
from repro.op2.plan import build_block_plan
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
    #: elements per block; None runs the plan ``native`` runs
    #: (:data:`repro.op2.plan.BLOCK_SIZE`)
    block_size: int | None = None

    def execute(self, loop, start: int, end: int, reductions) -> None:
        plan = build_block_plan(loop.args, end, block_size=self.block_size)
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


class ColoringBackend(BlockColorBackend):
    """Element coloring (OpenMP): the block plan at one element per
    block, so every color is a set of elements sharing no target."""

    name = "coloring"
    block_size = 1


ORACLE_BACKENDS = {b.name: b for b in
                   (ColoringBackend(), AtomicsBackend(), BlockColorBackend(),
                    *compiled.COMPILED_ORACLES)}


def register_oracle_backends() -> None:
    """Make the simulations selectable by name (``backend="atomics"``)."""
    BACKENDS.update(ORACLE_BACKENDS)
