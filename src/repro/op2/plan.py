"""Execution plans: the block-coloring plan of indirect loops.

When a par_loop increments data through a map, two elements that share
a target must not execute concurrently. OP2's OpenMP plan resolves this
by coloring contiguous blocks: blocks of one color share no
indirect-write target and run in parallel, colors run one after the
other, and each block runs its elements serially. There is one plan
shape and one builder, :func:`build_block_plan`; the compiled
``native`` backend executes the plan, and the ``sanitizer`` backend
audits and executes the very same cached object.

Any target written from two blocks of one color races, whichever
arguments write it, so all writing columns into one target set form
one conflict unit (:func:`conflict_units`); a target shared inside a
block is fine.

Coloring is the sequential first-fit greedy OP2's plan construction
uses: walk the blocks in order, give each the lowest color not yet
present on any of its targets (tracked as per-target color bitmasks).
The masks are one int64 array per target set, so each block reads and
marks all its targets in two array operations; a plan that needs more
colors than an int64 mask holds is recolored with arbitrary-precision
masks.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.op2.access import Access
from repro.op2.map import Map
from repro.telemetry.recorder import active_recorder

#: maps whose ``_plans`` hold at least one plan, for the cache resets;
#: weak, so a plan never outlives the map that stores it
_planned_maps: "weakref.WeakSet[Map]" = weakref.WeakSet()

#: elements per block of the plan the backends execute
BLOCK_SIZE = 256


@dataclass
class BlockPlan:
    """OP2-style block plan: contiguous blocks colored by shared targets."""

    extent: int
    block_size: int
    nblocks: int
    block_colors: np.ndarray
    ncolors: int
    _maps: tuple[Map, ...]
    _native_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    def blocks_of_color(self, color: int) -> list[tuple[int, int]]:
        """(start, end) ranges of the blocks with the given color."""
        out = []
        for b in np.nonzero(self.block_colors == color)[0]:
            start = int(b) * self.block_size
            out.append((start, min(start + self.block_size, self.extent)))
        return out

    def native_arrays(self, start: int, end: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Plan flattened for the compiled native wrapper's ABI.

        Returns contiguous int64 arrays ``(blk_lo, blk_hi, col_off)``:
        block ``b`` covers elements ``[blk_lo[b], blk_hi[b])`` clamped
        to ``[start, end)`` (empty blocks dropped), and color ``c``
        owns blocks ``[col_off[c], col_off[c + 1])``. Cached per
        ``(start, end)`` — the plan itself is cached on its map, so
        every loop over the same columns reuses the arrays.
        """
        key = (start, end)
        cached = self._native_cache.get(key)
        if cached is not None:
            return cached
        blk_lo: list[int] = []
        blk_hi: list[int] = []
        col_off: list[int] = [0]
        for color in range(self.ncolors):
            for lo, hi in self.blocks_of_color(color):
                lo, hi = max(lo, start), min(hi, end)
                if lo < hi:
                    blk_lo.append(lo)
                    blk_hi.append(hi)
            col_off.append(len(blk_lo))
        arrays = (np.asarray(blk_lo, dtype=np.int64),
                  np.asarray(blk_hi, dtype=np.int64),
                  np.asarray(col_off, dtype=np.int64))
        self._native_cache[key] = arrays
        return arrays


@dataclass
class _Unit:
    """One conflict unit: every indirect-write column into one target set."""

    target_size: int
    columns: list[np.ndarray]
    label: str = ""  #: the writing arguments, for sanitizer reports


def conflict_units(args, extent: int) -> list[_Unit]:
    """Conflict units of a loop's indirect-write arguments.

    Same-colored blocks run concurrently, so a target written from two
    blocks races whichever arguments write it: all writing columns into
    one target set form one unit (a vector argument contributes every
    map column), labelled with its arguments joined by ``" + "``.
    """
    units: dict[int, _Unit] = {}
    for arg in args:
        if not (arg.is_indirect and arg.access in (Access.INC, Access.WRITE)):
            continue
        m = arg.map
        unit = units.setdefault(id(m.to_set), _Unit(m.to_set.total_size, []))
        columns = range(m.arity) if arg.is_vector else (arg.idx,)
        unit.columns.extend(m.values[:extent, c] for c in columns)
        label = (f"{arg.data.name} via {m.name}"
                 f"[{'*' if arg.is_vector else arg.idx}]")
        unit.label = f"{unit.label} + {label}" if unit.label else label
    return list(units.values())


def _write_columns(args) -> list[tuple[Map, object]]:
    """``(map, column)`` of every indirect-write argument, in order
    (``"all"`` for a vector argument) — all a plan depends on."""
    return [(a.map, "all" if a.is_vector else a.idx) for a in args
            if a.is_indirect and a.access in (Access.INC, Access.WRITE)]


def _first_fit_colors(units: list[_Unit], extent: int,
                      block_size: int) -> tuple[np.ndarray, int]:
    """OP2-style sequential first-fit greedy block coloring.

    Walks the blocks in order; each takes the lowest color not yet
    used on any of its targets, tracked as per-target color bitmasks
    held in Python ints, so any color count fits (a target shared by
    ``k`` blocks needs ``k`` colors). The fallback of
    :func:`_first_fit_block_colors` past ``_MASK_COLORS`` colors.
    """
    nblocks = max(1, -(-extent // block_size))
    targets = [np.stack(u.columns, axis=1) for u in units]
    masks: list[list[int]] = [[0] * u.target_size for u in units]
    colors = np.full(nblocks, -1, dtype=np.int32)
    for b in range(nblocks):
        rows = slice(b * block_size, (b + 1) * block_size)
        block = [tgt[rows].ravel().tolist() for tgt in targets]
        used = 0
        for mask, tgt in zip(masks, block):
            for t in tgt:
                used |= mask[t]
        c = (~used & (used + 1)).bit_length() - 1   # lowest clear bit
        colors[b] = c
        for mask, tgt in zip(masks, block):
            for t in tgt:
                mask[t] |= 1 << c
    return colors, int(colors.max()) + 1


#: colors an int64 mask holds without touching the sign bit
_MASK_COLORS = 62


def _first_fit_block_colors(units: list[_Unit], extent: int,
                            block_size: int) -> tuple[np.ndarray, int]:
    """:func:`_first_fit_colors` with one int64 color mask per target:
    each block ORs and then marks all its units' targets at once. The
    same colors; past ``_MASK_COLORS`` colors the plan is rebuilt with
    Python-int masks.
    """
    nblocks = max(1, -(-extent // block_size))
    targets = [np.stack(u.columns, axis=1) for u in units]
    masks = [np.zeros(u.target_size, dtype=np.int64) for u in units]
    colors = np.full(nblocks, -1, dtype=np.int32)
    for b in range(nblocks):
        rows = slice(b * block_size, (b + 1) * block_size)
        used = 0
        for mask, tgt in zip(masks, targets):
            used |= int(np.bitwise_or.reduce(mask[tgt[rows]], axis=None))
        c = (~used & (used + 1)).bit_length() - 1   # lowest clear bit
        if c >= _MASK_COLORS:
            return _first_fit_colors(units, extent, block_size)
        colors[b] = c
        for mask, tgt in zip(masks, targets):
            mask[tgt[rows]] |= 1 << c
    return colors, int(colors.max()) + 1


def build_block_plan(args, extent: int,
                     block_size: int | None = None) -> BlockPlan | None:
    """Block-coloring plan (OP2 OpenMP shape), or None if no conflicts.

    ``block_size`` defaults to :data:`BLOCK_SIZE`, read per call. The
    plan lives in ``_plans`` of the map of the first write column,
    keyed ``(block_size, extent, columns)`` with the columns' maps by
    id; it holds those maps (``_maps``), so an id in a live key always
    names a live map. Loops writing through the same columns share one
    plan whatever dats they write — ``native`` and ``sanitizer`` get
    the same object.
    """
    columns = _write_columns(args)
    if not columns:   # no indirect writes
        return None
    if block_size is None:
        block_size = BLOCK_SIZE
    owner = columns[0][0]
    key = (block_size, extent, tuple((id(m), c) for m, c in columns))
    cached = owner._plans.get(key)
    rec = active_recorder()
    if cached is not None:
        if rec is not None:
            rec.counter("op2.plan.cache_hit")
        return cached

    t0 = time.perf_counter()
    block_colors, ncolors = _first_fit_block_colors(
        conflict_units(args, extent), extent, block_size)
    plan = BlockPlan(extent=extent, block_size=block_size,
                     nblocks=block_colors.size,
                     block_colors=block_colors, ncolors=ncolors,
                     _maps=tuple(m for m, _ in columns))
    if rec is not None:
        rec.add_span("build_plan", "op2.plan", t0, time.perf_counter(),
                     extent=extent, ncolors=ncolors)
        rec.counter("op2.plan.build")
    owner._plans[key] = plan
    _planned_maps.add(owner)
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan (tests and long-lived drivers).

    Plans live on their maps and die with them; this empties the
    caches of the maps still alive. A loop bound before the reset
    keeps the plan arrays it already holds.
    """
    for m in list(_planned_maps):
        m._plans.clear()
    _planned_maps.clear()


def clear_native_plan_arrays() -> None:
    """Drop the flattened native-ABI arrays cached on live block plans.

    The coloring itself stays valid across native-backend resets (it
    depends only on maps and extents), but the flattened
    ``(blk_lo, blk_hi, col_off)`` arrays are part of the compiled
    wrappers' ABI — :func:`~repro.op2.backends.native.
    reset_native_state` clears them so backend-switching tests never
    observe stale plan arrays from a previous toolchain configuration.
    """
    for m in list(_planned_maps):
        for plan in m._plans.values():
            plan._native_cache.clear()

