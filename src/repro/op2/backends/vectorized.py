"""Vectorized backend: whole-array execution of the transformed kernel.

:class:`VectorizedBackend` runs the generated numpy wrapper once over
the whole range with ``np.add.at`` scatter (the single-source SIMD
analogue); it is also what the compiled backend degrades to. The
sanitizer backend shares :func:`_get_wrapper` for its colored
(plain ``+=``) scatter.

A steady-state call allocates no staging array: direct arguments are
views, indirect blocks and reduction partials are slots of a per-rank
:class:`StagingArena`, and each increment's flat scatter index is
built once per map column and range (:func:`scatter_index`). A bound
loop keeps the ``(wrapper, argv)`` pair of :func:`atomic_call` and
makes one wrapper call per run.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.access import Access
from repro.op2.backends.base import ReductionBuffers
from repro.op2.codegen.seq import compile_wrapper
from repro.op2.codegen.vector import generate_vectorized

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.args import Arg
    from repro.op2.parloop import BoundLoop


def _get_wrapper(loop: "BoundLoop", scatter: str):
    signature = loop.signature()
    key = ("vec", scatter, signature)
    wrapper = loop.kernel.cached(key)
    if wrapper is None:
        source = generate_vectorized(loop.kernel, signature, scatter)
        wrapper = compile_wrapper(source, loop.kernel.name)
        loop.kernel.store(key, wrapper, source)
    return wrapper


class StagingArena(threading.local):
    """Reusable staging blocks for the atomic wrappers, one set per rank.

    A rank is a thread on the thread transport and a process on the
    process transport, so a thread-local arena is private to its rank.
    Slot ``k`` is one byte buffer, grown to the largest block ever
    requested of it; :meth:`slot` hands out a typed view of its head.
    No wrapper keeps a staged block past its call, so every loop
    reuses the same slots.
    """

    #: views kept per arena before the view memo is dropped
    MAX_VIEWS = 256

    def __init__(self) -> None:
        self.buffers: list[np.ndarray] = []
        self.views: dict[tuple, np.ndarray] = {}

    def slot(self, k: int, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """Slot ``k`` as an uninitialized C-contiguous ``shape`` block."""
        key = (k, shape, dtype)
        view = self.views.get(key)
        if view is None:
            dtype = np.dtype(dtype)
            nbytes = dtype.itemsize * int(np.prod(shape))
            while len(self.buffers) <= k:
                self.buffers.append(np.empty(0, dtype=np.uint8))
            if self.buffers[k].nbytes < nbytes:
                self.buffers[k] = np.empty(nbytes, dtype=np.uint8)
                self.views.clear()  # drop the views of the old buffer
            elif len(self.views) >= self.MAX_VIEWS:
                self.views.clear()
            view = self.buffers[k][:nbytes].view(dtype).reshape(shape)
            self.views[key] = view
        return view


#: the staging arena of the calling rank
ARENA = StagingArena()

#: per-map flat scatter indices, keyed (column or None for ALL, dim,
#: start, end); ``Map.values`` is read-only, so an entry never goes
#: stale, and it dies with its map (weak keys)
_scatter_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def scatter_index(rows: np.ndarray, dim: int) -> np.ndarray:
    """Flat indices of the ``dim`` components of every target in ``rows``.

    Scattering a staged ``(n, ..., dim)`` block with one 1-D
    ``np.add.at`` through these indices adds every target's
    contributions in the order of the 2-D ``np.add.at(a, rows, p)``.
    """
    return (rows[..., None] * dim + np.arange(dim)).reshape(-1)


def _cached_scatter_index(arg: "Arg", start: int, end: int) -> np.ndarray:
    per_map = _scatter_cache.get(arg.map)
    if per_map is None:
        per_map = _scatter_cache[arg.map] = {}
    column = None if arg.is_vector else int(arg.idx)
    key = (column, arg.dim, start, end)
    flat = per_map.get(key)
    if flat is None:
        rows = arg.map.values[start:end]
        flat = scatter_index(rows if column is None else rows[:, column],
                             arg.dim)
        flat.setflags(write=False)
        per_map[key] = flat
    return flat


def atomic_call(loop: "BoundLoop", start: int, end: int,
                flat: list) -> tuple:
    """``(wrapper, argv)`` running elements [start, end) of ``loop``
    through its atomic wrapper as ``wrapper(*argv)``.

    ``ARENA.slot`` resolves the calling thread's arena on every call,
    so the pair may be kept and called from any rank thread.
    """
    scatter = [_cached_scatter_index(arg, start, end) for arg in loop.args
               if arg.is_indirect and arg.access is Access.INC]
    return (_get_wrapper(loop, "atomic"),
            [np, ARENA.slot, start, end, *flat, *scatter])


def run_atomic(loop: "BoundLoop", start: int, end: int, flat: list) -> None:
    """Run elements [start, end) of ``loop`` through its atomic wrapper."""
    wrapper, argv = atomic_call(loop, start, end, flat)
    wrapper(*argv)


class VectorizedBackend:
    """Whole-extent numpy execution with unbuffered atomic-add scatter."""

    name = "vectorized"

    def prepare(self, loop: "BoundLoop", start: int, end: int,
                reductions: ReductionBuffers) -> tuple:
        return atomic_call(loop, start, end,
                           loop.flatten_bindings(reductions))

    def execute(self, loop: "BoundLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        run_atomic(loop, start, end, loop.flatten_bindings(reductions))
