"""Vectorized backend: whole-array execution of the transformed kernel.

:class:`VectorizedBackend` runs the generated numpy wrapper once over
the whole range with ``np.add.at`` scatter (the single-source SIMD
analogue); it is also what both compiled backends degrade to. The
sanitizer backend shares :func:`_get_wrapper` for its colored
(plain ``+=``) scatter.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.backends.base import ReductionBuffers
from repro.op2.codegen.seq import compile_wrapper
from repro.op2.codegen.vector import generate_vectorized

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
