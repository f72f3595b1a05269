"""Vectorized backends: whole-array execution of the transformed kernel.

Three backends share the vector code generator and differ only in how
they slice the iteration space and resolve scatter conflicts:

* :class:`VectorizedBackend` — one shot over the whole range with
  ``np.add.at`` scatter (single-source SIMD analogue);
* :class:`ColoringBackend` — per conflict-free color group with plain
  fancy ``+=`` scatter (OpenMP coloring analogue);
* :class:`AtomicsBackend` — fixed-size chunks with ``np.add.at``
  scatter, modelling a GPU grid of thread blocks (CUDA analogue).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.backends.base import ReductionBuffers
from repro.op2.codegen.seq import compile_wrapper
from repro.op2.codegen.vector import generate_vectorized
from repro.op2.config import current_config
from repro.op2.plan import build_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import ParLoop


def _get_wrapper(loop: "ParLoop", scatter: str):
    signature = loop.signature()
    key = ("vec", scatter, signature)
    wrapper = loop.kernel.cached(key)
    if wrapper is None:
        source = generate_vectorized(loop.kernel, signature, scatter)
        wrapper = compile_wrapper(source, loop.kernel.name)
        loop.kernel.store(key, wrapper, source)
    return wrapper


def atomics_chunks(start: int, end: int, block: int):
    """Yield the ``(lo, hi)`` simulated thread-block ranges of [start, end).

    Shared by the numpy ``atomics`` backend and the compiled
    ``native-atomics`` backend so both slice the iteration space into
    the *same* chunks (``Config.atomics_block`` elements each) — the
    accumulation semantics the differential tests pin are defined in
    terms of these ranges.
    """
    block = max(1, block)
    for lo in range(start, end, block):
        yield lo, min(lo + block, end)


#: per-kernel row-index arrays, keyed (start, end); lives beside the
#: kernel's wrapper cache but dies with the kernel (weak keys)
_rows_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _get_rows(kernel, start: int, end: int) -> np.ndarray:
    """The row-index array for [start, end), cached per kernel.

    Allocating ``np.arange`` per call showed up in loop-dispatch
    profiles; extents are fixed per (set, loop shape), so the array is
    cached alongside the kernel's compiled wrapper. The array is
    marked read-only — wrappers only ever index with it.
    """
    per_kernel = _rows_cache.get(kernel)
    if per_kernel is None:
        per_kernel = _rows_cache[kernel] = {}
    rows = per_kernel.get((start, end))
    if rows is None:
        rows = np.arange(start, end, dtype=np.int64)
        rows.setflags(write=False)
        per_kernel[(start, end)] = rows
    return rows


class VectorizedBackend:
    """Whole-extent numpy execution with unbuffered atomic-add scatter."""

    name = "vectorized"

    def execute(self, loop: "ParLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        wrapper = _get_wrapper(loop, "atomic")
        flat = loop.flatten_bindings(reductions)
        wrapper(np, _get_rows(loop.kernel, start, end), *flat)


class ColoringBackend:
    """Conflict-free color groups with plain ``+=`` scatter.

    The plan colors the whole range [0, end); each group is filtered
    to the executed segment so redundant-halo segments stay separable.
    Loops without indirect writes need no coloring and run in one shot.
    """

    name = "coloring"

    def execute(self, loop: "ParLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        plan = build_plan(loop.args, end)
        flat = loop.flatten_bindings(reductions)
        if plan is None:
            wrapper = _get_wrapper(loop, "atomic")
            wrapper(np, _get_rows(loop.kernel, start, end), *flat)
            return
        wrapper = _get_wrapper(loop, "colored")
        for group in plan.color_groups:
            if start > 0:
                group = group[group >= start]
            if group.size:
                wrapper(np, group, *flat)


class AtomicsBackend:
    """Chunked execution with atomic-add scatter (CUDA grid analogue).

    The chunk size (``Config.atomics_block``) is the simulated
    thread-block extent; the performance model uses the resulting
    block counts when projecting GPU runtimes.
    """

    name = "atomics"

    def execute(self, loop: "ParLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        block = current_config().atomics_block
        wrapper = _get_wrapper(loop, "atomic")
        flat = loop.flatten_bindings(reductions)
        for lo, hi in atomics_chunks(start, end, block):
            wrapper(np, _get_rows(loop.kernel, lo, hi), *flat)
