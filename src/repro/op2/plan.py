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
count is bounded by the maximum conflict degree plus one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.op2.access import Access
from repro.op2.map import Map
from repro.telemetry.recorder import active_recorder

#: plan cache: signature tuple -> Plan (maps held strongly so ids stay valid)
_plan_cache: dict[tuple, "Plan | BlockPlan"] = {}


@dataclass
class Plan:
    """Element-coloring plan for one (loop signature, extent) combination."""

    extent: int
    colors: np.ndarray              #: per-element color, shape (extent,)
    ncolors: int
    color_groups: list[np.ndarray]  #: element indices per color
    _maps: tuple[Map, ...]          #: strong refs keeping cache keys valid

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
        ``(start, end)`` — the plan itself is already cached by loop
        signature, so repeated loop executions reuse the arrays.
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


def _maps_of(args) -> tuple[Map, ...]:
    return tuple(
        a.map for a in args
        if a.is_indirect and a.access in (Access.INC, Access.WRITE)
    )


def _signature(args, extent: int) -> tuple:
    sig: list = [extent]
    for a in args:
        if a.is_indirect and a.access in (Access.INC, Access.WRITE):
            sig.append((id(a.map), "all" if a.is_vector else a.idx))
    return tuple(sig)


def _first_fit_colors(units: list[_Unit], n: int,
                      row_of: list[np.ndarray] | None = None
                      ) -> tuple[np.ndarray, int]:
    """OP2-style sequential first-fit greedy coloring.

    Walks items 0..n-1 in order; each takes the lowest color not yet
    used on any of its conflict targets, tracked as per-target color
    bitmasks (as in OP2's plan construction). ``row_of`` maps an item
    to the map rows it covers (identity for element coloring; the rows
    of a block for block coloring) via ``row_of[item] == item_index``.
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


def build_plan(args, extent: int) -> Plan | None:
    """Element-coloring plan for a loop, or None if it needs no coloring."""
    units = conflict_units(args, extent)
    if not units:
        return None
    key = ("elem",) + _signature(args, extent)
    cached = _plan_cache.get(key)
    rec = active_recorder()
    if cached is not None:
        if rec is not None:
            rec.counter("op2.plan.cache_hit")
        return cached  # type: ignore[return-value]

    t0 = time.perf_counter()
    colors, ncolors = _first_fit_colors(units, extent)
    groups = [np.nonzero(colors == c)[0] for c in range(ncolors)]
    plan = Plan(extent=extent, colors=colors, ncolors=ncolors,
                color_groups=groups, _maps=_maps_of(args))
    if rec is not None:
        rec.add_span("build_plan", "op2.plan", t0, time.perf_counter(),
                     kind="elem", extent=extent, ncolors=ncolors)
        rec.counter("op2.plan.build")
    _plan_cache[key] = plan
    return plan


def build_block_plan(args, extent: int, block_size: int = 256) -> BlockPlan | None:
    """Block-coloring plan (OP2 OpenMP shape), or None if no conflicts.

    Unlike element coloring — where one color's scatter statements run
    serially, so distinct arguments never race — same-colored *blocks*
    execute fully concurrently. Any shared target between two blocks is
    therefore a conflict, so all writing columns per target set merge
    into a single conflict unit here.
    """
    units = conflict_units(args, extent)
    if not units:
        return None
    merged: dict[int, _Unit] = {}
    for u in units:
        slot = merged.setdefault(
            u.target_id, _Unit(u.target_size, [], u.target_id)
        )
        slot.columns.extend(u.columns)
    units = list(merged.values())
    key = ("block", block_size) + _signature(args, extent)
    cached = _plan_cache.get(key)
    rec = active_recorder()
    if cached is not None:
        if rec is not None:
            rec.counter("op2.plan.cache_hit")
        return cached  # type: ignore[return-value]

    t0 = time.perf_counter()
    nblocks = max(1, -(-extent // block_size))
    row_of = [
        np.arange(b * block_size, min((b + 1) * block_size, extent),
                  dtype=np.int64)
        for b in range(nblocks)
    ]
    block_colors, ncolors = _first_fit_colors(units, nblocks, row_of=row_of)

    plan = BlockPlan(extent=extent, block_size=block_size, nblocks=nblocks,
                     block_colors=block_colors, ncolors=ncolors,
                     _maps=_maps_of(args))
    if rec is not None:
        rec.add_span("build_plan", "op2.plan", t0, time.perf_counter(),
                     kind="block", extent=extent, ncolors=ncolors)
        rec.counter("op2.plan.build")
    _plan_cache[key] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop all cached plans (tests and long-lived drivers)."""
    _plan_cache.clear()


def clear_native_plan_arrays() -> None:
    """Drop the flattened native-ABI arrays cached on live block plans.

    The coloring itself stays valid across native-backend resets (it
    depends only on maps and extents), but the flattened
    ``(blk_lo, blk_hi, col_off)`` arrays are part of the compiled
    wrappers' ABI — :func:`~repro.op2.backends.native.
    reset_native_state` clears them so backend-switching tests never
    observe stale plan arrays from a previous toolchain configuration.
    """
    for plan in _plan_cache.values():
        cache = getattr(plan, "_native_cache", None)
        if cache:
            cache.clear()

