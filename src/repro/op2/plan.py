"""Execution plans: conflict analysis and coloring for indirect loops.

When a par_loop increments data through a map, two elements that share
a target must not execute concurrently. OP2's plan construction
resolves this by coloring; we reproduce both granularities:

* **element coloring** — executed by the ``sanitizer`` backend, which
  audits it first (:func:`~repro.op2.backends.sanitizer.check_plan`):
  elements of one color share no indirect-write target, so a whole
  color can be executed as one conflict-free vectorized scatter;
* **block coloring** — OP2's OpenMP plan shape (contiguous blocks
  colored by shared targets), executed by the compiled ``native``
  backend and reported by the plan-quality ablation benchmark.

Conflict granularity follows the generated scatter code: each scalar
indirect-write argument scatters in its own serial statement, so two
arguments of one element may share a target without racing; a vector
(``idx=ALL``) argument scatters all its map columns in a *single*
statement, so its columns form one conflict unit.

Coloring is the sequential first-fit greedy OP2's plan construction
uses: walk the elements in order, give each the lowest color not yet
present on any of its conflict targets (tracked as per-target color
bitmasks). On a chain mesh this yields the classic 2 colors; color
count is bounded by the maximum conflict degree plus one. Block
coloring keeps the masks in one int64 array per target set, so each
block reads and marks all its targets in two array operations; a plan
that needs more colors than an int64 mask holds is recolored with
arbitrary-precision masks.
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


@dataclass
class Plan:
    """Element-coloring plan for one (loop signature, extent) combination."""

    extent: int
    colors: np.ndarray              #: per-element color, shape (extent,)
    ncolors: int
    color_groups: list[np.ndarray]  #: element indices per color
    _maps: tuple[Map, ...]          #: keeps the maps named by the key alive

    @property
    def max_group(self) -> int:
        return max((len(g) for g in self.color_groups), default=0)


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
    """One conflict unit: columns that scatter in the same statement."""

    target_size: int
    columns: list[np.ndarray]
    target_id: int = 0
    label: str = ""  #: human-readable id for sanitizer reports


def conflict_units(args, extent: int) -> list[_Unit]:
    """Conflict units for a loop's indirect-write arguments."""
    units: list[_Unit] = []
    for arg in args:
        if not (arg.is_indirect and arg.access in (Access.INC, Access.WRITE)):
            continue
        m = arg.map
        tsize = m.to_set.total_size
        if arg.is_vector:
            units.append(
                _Unit(tsize, [m.values[:extent, c] for c in range(m.arity)],
                      id(m.to_set), f"{arg.data.name} via {m.name}[*]")
            )
        else:
            units.append(_Unit(tsize, [m.values[:extent, arg.idx]],
                               id(m.to_set),
                               f"{arg.data.name} via {m.name}[{arg.idx}]"))
    return units


def _write_columns(args) -> list[tuple[Map, object]]:
    """``(map, column)`` of every indirect-write argument, in order
    (``"all"`` for a vector argument) — all a plan depends on."""
    return [(a.map, "all" if a.is_vector else a.idx) for a in args
            if a.is_indirect and a.access in (Access.INC, Access.WRITE)]


def _cached(kind: str, block_size: int | None, extent: int,
            columns: list[tuple[Map, object]]):
    """``(owner map, key, cached plan or None)`` for a plan lookup.

    A plan lives in ``_plans`` of the map of its first write column,
    keyed ``(kind, block_size, extent, columns)`` with the columns'
    maps by id; the plan holds those maps (``_maps``), so an id in a
    live key always names a live map. Loops writing through the same
    columns share one plan whatever dats they write.
    """
    owner = columns[0][0]
    key = (kind, block_size, extent,
           tuple((id(m), c) for m, c in columns))
    cached = owner._plans.get(key)
    rec = active_recorder()
    if cached is not None and rec is not None:
        rec.counter("op2.plan.cache_hit")
    return owner, key, cached


def _store(owner: Map, key: tuple, plan) -> None:
    owner._plans[key] = plan
    _planned_maps.add(owner)


def _first_fit_colors(units: list[_Unit], n: int,
                      row_of: list[np.ndarray] | None = None
                      ) -> tuple[np.ndarray, int]:
    """OP2-style sequential first-fit greedy coloring.

    Walks items 0..n-1 in order; each takes the lowest color not yet
    used on any of its conflict targets, tracked as per-target color
    bitmasks (as in OP2's plan construction). ``row_of`` maps an item
    to the map rows it covers (identity for element coloring; the rows
    of a block when :func:`_first_fit_block_colors` runs out of int64
    mask bits) via ``row_of[item] == item_index``.
    """
    colors = np.full(n, -1, dtype=np.int32)
    # Python ints as bitmasks: arbitrary color counts (a target shared by
    # k elements legitimately needs k colors)
    masks: list[list[int]] = [[0] * u.target_size for u in units]
    ncolors = 0
    for e in range(n):
        used = 0
        for mask, unit in zip(masks, units):
            for col in unit.columns:
                if row_of is None:
                    used |= mask[col[e]]
                else:
                    for r in row_of[e]:
                        used |= mask[col[r]]
        c = 0
        while used >> c & 1:
            c += 1
        colors[e] = c
        ncolors = max(ncolors, c + 1)
        bit = 1 << c
        for mask, unit in zip(masks, units):
            for col in unit.columns:
                if row_of is None:
                    mask[col[e]] |= bit
                else:
                    for r in row_of[e]:
                        mask[col[r]] |= bit
    return colors, ncolors


#: colors an int64 mask holds without touching the sign bit
_MASK_COLORS = 62


def _first_fit_block_colors(units: list[_Unit], extent: int,
                            block_size: int) -> tuple[np.ndarray, int]:
    """:func:`_first_fit_colors` over contiguous blocks of ``block_size``
    rows, with one int64 color mask per target: each block ORs and then
    marks all its units' targets at once. The same colors; past
    ``_MASK_COLORS`` colors the plan is rebuilt with Python-int masks.
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
            row_of = [np.arange(i * block_size,
                                min((i + 1) * block_size, extent))
                      for i in range(nblocks)]
            return _first_fit_colors(units, nblocks, row_of=row_of)
        colors[b] = c
        for mask, tgt in zip(masks, targets):
            mask[tgt[rows]] |= 1 << c
    return colors, int(colors.max()) + 1


def build_plan(args, extent: int) -> Plan | None:
    """Element-coloring plan for a loop, or None if it needs no coloring."""
    columns = _write_columns(args)
    if not columns:   # no indirect writes
        return None
    owner, key, cached = _cached("elem", None, extent, columns)
    if cached is not None:
        return cached

    t0 = time.perf_counter()
    colors, ncolors = _first_fit_colors(conflict_units(args, extent), extent)
    groups = [np.nonzero(colors == c)[0] for c in range(ncolors)]
    plan = Plan(extent=extent, colors=colors, ncolors=ncolors,
                color_groups=groups, _maps=tuple(m for m, _ in columns))
    rec = active_recorder()
    if rec is not None:
        rec.add_span("build_plan", "op2.plan", t0, time.perf_counter(),
                     kind="elem", extent=extent, ncolors=ncolors)
        rec.counter("op2.plan.build")
    _store(owner, key, plan)
    return plan


def build_block_plan(args, extent: int, block_size: int = 256) -> BlockPlan | None:
    """Block-coloring plan (OP2 OpenMP shape), or None if no conflicts.

    Unlike element coloring — where one color's scatter statements run
    serially, so distinct arguments never race — same-colored *blocks*
    execute fully concurrently. Any shared target between two blocks is
    therefore a conflict, so all writing columns per target set merge
    into a single conflict unit here.
    """
    columns = _write_columns(args)
    if not columns:   # no indirect writes
        return None
    owner, key, cached = _cached("block", block_size, extent, columns)
    if cached is not None:
        return cached

    t0 = time.perf_counter()
    merged: dict[int, _Unit] = {}
    for u in conflict_units(args, extent):
        slot = merged.setdefault(
            u.target_id, _Unit(u.target_size, [], u.target_id)
        )
        slot.columns.extend(u.columns)
    block_colors, ncolors = _first_fit_block_colors(
        list(merged.values()), extent, block_size)

    plan = BlockPlan(extent=extent, block_size=block_size,
                     nblocks=block_colors.size,
                     block_colors=block_colors, ncolors=ncolors,
                     _maps=tuple(m for m, _ in columns))
    rec = active_recorder()
    if rec is not None:
        rec.add_span("build_plan", "op2.plan", t0, time.perf_counter(),
                     kind="block", extent=extent, ncolors=ncolors)
        rec.counter("op2.plan.build")
    _store(owner, key, plan)
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
            cache = getattr(plan, "_native_cache", None)
            if cache:
                cache.clear()

