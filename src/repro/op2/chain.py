"""Lazy par_loop execution: loop chains, halo elision and loop fusion.

Eager ``par_loop`` executes each loop the moment it is declared, so
every loop must conservatively refresh whatever halos it reads. The
Hydra inner iteration issues dozens of back-to-back loops per
Runge-Kutta stage; seen *as a chain*, most of those refreshes are
redundant. This module defers validated :class:`ParLoop` objects into a
per-thread :class:`LoopChain` (under ``Config.lazy`` or an explicit
:func:`loop_chain` context) and flushes them through a dataflow
analysis that the eager path cannot perform:

* **cross-loop halo elision** — a dat read through several maps with no
  intervening write gets *one* union-scope exchange instead of one
  partial exchange per map (the eager dirty bit remembers only the last
  scope, so under ``Config.partial_halos`` it re-exchanges per map);
* **forward batching** — every exchange a chain segment needs is
  hoisted to the earliest point its data is ready and packed into one
  grouped multi-dat message per neighbour (the grouped-halo
  optimization applied *across* loops instead of within one);
* **loop fusion** — adjacent loops over the same iteration set with
  no reordering-sensitive dependency are handed to the backend as one
  *group* (:func:`~repro.op2.parloop.execute_group`, of which an eager
  loop is the group of one): the numpy backends run its members back
  to back, the native backends compile the group into a single wrapper
  spanning one OpenMP region
  (:func:`~repro.op2.codegen.csource.generate_native`).

Equivalence guarantee
---------------------
Chained execution is *bitwise identical* to eager execution: fused
wrappers preserve full loop-before-loop ordering, fusion is refused
whenever a cross-loop dependency could reorder floating-point work,
READ Globals are snapshotted at enqueue time (call-site semantics),
and host access to dat/global data transparently flushes the chain.
``Config.chain_verify`` makes the runtime enforce this on every flush
by replaying the chain eagerly and comparing bitwise
(:class:`ChainEquivalenceError` on any mismatch); the regression suite
pins it with fingerprints on the airfoil and mini-Rig250 runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.op2.access import Access, READING, WRITING
from repro.op2.config import current_config
from repro.op2.halo import (exchange_halos_multi_begin,
                            exchange_halos_multi_end, marker_covers,
                            normalize_scopes, resolve_eager_scope)
from repro.op2.parloop import ParLoop, execute_group, loop_read_scopes
from repro.telemetry.recorder import active_recorder, span as _tspan

#: backends the analyzer forms multi-loop groups for — the native ones
#: compile a group into one OpenMP region, the numpy ones run its
#: members back to back
FUSABLE_BACKENDS = frozenset({"sequential", "vectorized", "atomics",
                              "native", "native-atomics"})

#: bound on fused-group size, to keep generated modules small
MAX_FUSE = 8


class ChainEquivalenceError(RuntimeError):
    """Chained execution diverged from the eager replay (verify mode)."""


@dataclass
class ChainStats:
    """Cumulative per-thread chain accounting (independent of telemetry)."""

    loops: int = 0            #: par_loops enqueued
    flushes: int = 0          #: flush calls that executed work
    fused: int = 0            #: loops absorbed into fused wrappers
    exchanges: int = 0        #: batched exchange rounds performed
    eager_exchanges: int = 0  #: exchange calls eager mode would have made
    halo_elided: int = 0      #: eager exchange calls avoided
    messages: int = 0         #: point-to-point halo messages sent (this rank)
    eager_messages: int = 0   #: messages eager mode would have sent
    messages_saved: int = 0   #: eager messages avoided

    def as_dict(self) -> dict:
        return {
            "loops": self.loops, "flushes": self.flushes,
            "fused": self.fused, "exchanges": self.exchanges,
            "eager_exchanges": self.eager_exchanges,
            "halo_elided": self.halo_elided,
            "messages": self.messages,
            "eager_messages": self.eager_messages,
            "messages_saved": self.messages_saved,
        }


@dataclass
class _Pending:
    """One enqueued loop plus its call-site context."""

    loop: "ParLoop"
    backend: str | None
    #: (arg index, snapshot) for every READ Global — call-site semantics
    gbl_reads: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def extent(self) -> int:
        s = self.loop.iterset
        return s.exec_size if self.loop.has_indirect_writes else s.size


# --------------------------------------------------------------------------
# dataflow analysis
# --------------------------------------------------------------------------

@dataclass
class _Exchange:
    """One scheduled exchange: refresh ``dat`` for ``scopes`` before
    executing the loop at ``at`` (hoistable back to ``ready``)."""

    dat: object
    scopes: frozenset
    ready: int      #: earliest position the data is complete (after last write)
    at: int         #: position of the first loop that needs it


def _read_scopes(pending: "_Pending", cfg) -> dict[int, tuple]:
    """Per-dat halo scopes this loop reads — the exact eager rule.

    Delegates to :func:`~repro.op2.parloop.loop_read_scopes` so the
    chain analyzer and eager ``_refresh_halos`` can never drift apart
    (the bitwise-equivalence guarantee depends on them agreeing on
    scope depth).
    """
    return loop_read_scopes(pending.loop, cfg)


def _written_dats(loop: "ParLoop"):
    for arg in loop.args:
        if arg.is_dat and arg.access in WRITING and arg.data.set.halo is not None:
            yield arg.data


class _SimFreshness:
    """Simulated dat freshness, mirroring ``Dat.is_fresh_for`` semantics."""

    def __init__(self) -> None:
        self._state: dict[int, object] = {}  # id(dat) -> fresh_for marker

    def seed(self, dat) -> None:
        if id(dat) not in self._state:
            self._state[id(dat)] = dat.fresh_for if dat.halo_fresh else None

    def is_fresh(self, dat, scope: str) -> bool:
        self.seed(dat)
        return marker_covers(self._state[id(dat)], scope)

    def mark_fresh(self, dat, marker) -> None:
        self._state[id(dat)] = marker

    def mark_stale(self, dat) -> None:
        if dat.set.total_size != dat.set.size:
            self._state[id(dat)] = None


def _eager_exchange_count(pending: list[_Pending], scopes_list: list, cfg
                          ) -> tuple[int, int]:
    """(exchange calls, messages) eager execution of the chain would do."""
    sim = _SimFreshness()
    calls = 0
    messages = 0
    for p, needs in zip(pending, scopes_list):
        groups: dict[tuple[int, str], tuple] = {}
        for dat, scopes in needs.values():
            scope = resolve_eager_scope(scopes)
            if sim.is_fresh(dat, scope):
                continue
            key = (id(dat.set), scope)
            groups.setdefault(key, (dat.set, scope, []))[2].append(dat)
        for sset, scope, dats in groups.values():
            plan = sset.halo.plan_for(scope)
            calls += 1
            messages += len(plan.send) * (1 if cfg.grouped_halos else len(dats))
            for d in dats:
                sim.mark_fresh(d, plan.name)
        for d in _written_dats(p.loop):
            sim.mark_stale(d)
    return calls, messages


def _analyze(pending: list[_Pending], scopes_list: list, cfg
             ) -> dict[int, list[_Exchange]]:
    """Schedule the chain's exchanges: hoisted, scope-unioned, batched.

    Returns ``position -> exchanges to run before executing that loop``.
    For each dat, the loop sequence splits into write-free *windows*; all
    reads inside one window are served by a single exchange whose scope
    is the union of every read scope in the window, placed at the first
    position whose read the entry freshness cannot satisfy. Exchanges
    from different dats are then batched: each round runs at the
    earliest still-unmet position and absorbs every exchange whose data
    is already complete (``ready <= round position``).
    """
    # per-dat access timeline
    reads: dict[int, tuple[object, list[tuple[int, set]]]] = {}
    writes: dict[int, list[int]] = {}
    for pos, (p, needs) in enumerate(zip(pending, scopes_list)):
        for dat, scopes in needs.values():
            reads.setdefault(id(dat), (dat, []))[1].append((pos, scopes))
        for d in _written_dats(p.loop):
            writes.setdefault(id(d), []).append(pos)

    sim = _SimFreshness()
    required: list[_Exchange] = []
    for key, (dat, events) in reads.items():
        wpos = writes.get(key, [])
        # split read events into write-free windows
        windows: dict[int, list[tuple[int, set]]] = {}
        for pos, scopes in events:
            prior = [w for w in wpos if w < pos]
            start = (prior[-1] + 1) if prior else 0
            windows.setdefault(start, []).append((pos, scopes))
        for start in sorted(windows):
            evs = sorted(windows[start])
            if start == 0:
                # entry freshness may already satisfy some or all reads
                sim.seed(dat)
                unmet = [(pos, scopes) for pos, scopes in evs
                         if any(not sim.is_fresh(dat, s) for s in scopes)]
            else:
                unmet = evs  # a write inside the chain staled everything
            if not unmet:
                continue
            union: set = set()
            for _pos, scopes in evs:
                union |= scopes
            required.append(_Exchange(dat=dat, scopes=normalize_scopes(union),
                                      ready=start, at=unmet[0][0]))

    # batch into rounds: run at the earliest unmet position, absorbing
    # every exchange already satisfiable there (forward prefetch)
    schedule: dict[int, list[_Exchange]] = {}
    todo = sorted(required, key=lambda e: (e.at, e.ready))
    while todo:
        p = todo[0].at
        round_members = [e for e in todo if e.ready <= p]
        todo = [e for e in todo if e.ready > p]
        schedule.setdefault(p, []).extend(round_members)
    return schedule


# --------------------------------------------------------------------------
# fusion
# --------------------------------------------------------------------------

def _resolved_backend_name(p: _Pending, cfg) -> str:
    return p.backend or cfg.backend


def _dep_blocks_fusion(group: list[_Pending], cand: _Pending) -> bool:
    """True if a data dependency forbids fusing ``cand`` onto ``group``.

    Shared dats where either side writes must be accessed *directly* by
    both (element-local), so section order inside the fused wrapper and
    chunked execution reproduce eager results bitwise. Distributed
    loops executing over the exec halo additionally refuse any such
    dependency: eager would re-exchange the written dat between them.
    """
    cand_access: dict[int, list] = {}
    for a in cand.loop.args:
        if a.is_dat:
            cand_access.setdefault(id(a.data), []).append(a)
    distributed = cand.loop.iterset.halo is not None
    over_halo = cand.extent > cand.loop.iterset.size
    for p in group:
        for a in p.loop.args:
            if not a.is_dat or id(a.data) not in cand_access:
                continue
            for b in cand_access[id(a.data)]:
                writes = (a.access in WRITING) or (b.access in WRITING)
                if not writes:
                    continue
                if a.is_indirect or b.is_indirect:
                    return True
                if distributed and over_halo:
                    return True
    return False


def _gbl_conflict(group: list[_Pending], cand: _Pending) -> bool:
    """Same Global READ with different call-site snapshots can't fuse."""
    snaps: dict[int, np.ndarray] = {}
    for p in group:
        for i, snap in p.gbl_reads:
            snaps[id(p.loop.args[i].data)] = snap
    for i, snap in cand.gbl_reads:
        prev = snaps.get(id(cand.loop.args[i].data))
        if prev is not None and not np.array_equal(prev, snap):
            return True
    return False


def _fuse_groups(pending: list[_Pending],
                 schedule: dict[int, list[_Exchange]],
                 cfg) -> list[list[int]]:
    """Partition chain positions into fusable runs (singletons included).

    Purely structural — Global-snapshot conflicts are *not* checked here
    (they vary run to run), so callers must post-process the groups with
    :func:`_resplit_gbl` before executing. That split lets the result be
    cached across flushes of the same chain shape.
    """
    groups: list[list[int]] = []
    for pos, p in enumerate(pending):
        name = _resolved_backend_name(p, cfg)
        can_extend = (
            groups
            and not schedule.get(pos)          # exchange must run in between
            and cfg.chain_fuse
            and name in FUSABLE_BACKENDS
            and len(groups[-1]) < MAX_FUSE
        )
        if can_extend:
            head = pending[groups[-1][0]]
            can_extend = (
                head.loop.iterset is p.loop.iterset
                and _resolved_backend_name(head, cfg) == name
                and head.extent == p.extent
                and not _dep_blocks_fusion([pending[i] for i in groups[-1]], p)
            )
        if can_extend:
            groups[-1].append(pos)
        else:
            groups.append([pos])
    return groups


def _resplit_gbl(pending: list[_Pending],
                 groups: list[list[int]]) -> list[list[int]]:
    """Split fused groups wherever Global snapshots conflict this flush."""
    out: list[list[int]] = []
    for group in groups:
        if len(group) == 1 or not any(pending[i].gbl_reads for i in group):
            out.append(group)
            continue
        cur = [group[0]]
        for pos in group[1:]:
            if _gbl_conflict([pending[i] for i in cur], pending[pos]):
                out.append(cur)
                cur = [pos]
            else:
                cur.append(pos)
        out.append(cur)
    return out


# --------------------------------------------------------------------------
# flush-plan cache (the inspector/executor split)
# --------------------------------------------------------------------------

@dataclass
class _ExchangeUnit:
    """One per-set batched exchange of a scheduled round, split-phase.

    Sends post as soon as the last producing loop has run (``ready``);
    receives complete just before the first consuming loop (``at``) —
    the compute issued in between hides the exchange latency. ``tag``
    disambiguates concurrently in-flight units; it is derived from the
    unit's deterministic order, so all ranks agree on it.
    """

    sset: object
    dat_scopes: list        #: [(dat, frozenset of scopes)]
    ready: int
    at: int
    tag: int


#: tag base for chain exchanges, clear of the eager per-dat tag range
_CHAIN_TAG = 7500


def _build_units(schedule: dict[int, list[_Exchange]]) -> list[_ExchangeUnit]:
    """Flatten a schedule into deterministically ordered exchange units."""
    units: list[_ExchangeUnit] = []
    for p in sorted(schedule):
        by_set: dict[int, tuple] = {}
        for ex in schedule[p]:
            by_set.setdefault(id(ex.dat.set), (ex.dat.set, []))[1].append(ex)
        for sset, exs in by_set.values():
            exs.sort(key=lambda e: e.dat.name)
            units.append(_ExchangeUnit(
                sset=sset,
                dat_scopes=[(e.dat, e.scopes) for e in exs],
                ready=max(e.ready for e in exs), at=p,
                tag=_CHAIN_TAG + len(units)))
    return units


@dataclass
class _FlushPlan:
    """One inspected chain shape: schedule, fusion groups, eager baseline.

    Iterative solvers flush the *same* chain every iteration; inspecting
    it once and replaying the plan (OP2's inspector/executor idiom) is
    what keeps lazy dispatch overhead below eager's. ``bindings`` and
    ``entry_marks`` record exactly what the analysis depended on — the
    per-loop (kernel, iterset, backend, dat/map/access bindings) and
    each halo-bearing dat's entry freshness marker — both for the cheap
    identity re-validation on later flushes and as strong references
    that keep every probed ``id()`` from being recycled.
    """

    schedule: dict[int, list[_Exchange]]
    units: list[_ExchangeUnit]
    groups: list[list[int]]
    eager_calls: int
    eager_msgs: int
    #: per loop: (kernel, iterset, backend, ((data|None, map, access)...))
    #: — ``None`` stands for any Global, which never influences the plan
    bindings: list
    entry_marks: list   #: [(dat, freshness marker at inspection time)]
    #: per loop: precomputed ``flatten_bindings`` (template, patches) —
    #: valid whenever ``bindings`` re-validates, saving the per-loop
    #: array-gathering walk on every executor replay
    templates: list


#: plan-cache size bound; one plan per distinct (chain shape, config,
#: entry freshness) — cleared wholesale on overflow
_PLAN_CACHE_MAX = 128


def _probe_key(pending: list[_Pending], cfg) -> tuple:
    """Cheap first-level cache key: kernel sequence + config flags.

    Deliberately partial — a hit must be confirmed with
    :func:`_plan_matches` (identity walk, no allocation). Kernel ids
    cannot be stale: any cached plan under this key pins its kernels,
    so a matching id proves it is the same live object.
    """
    return (tuple(id(p.loop.kernel) for p in pending),
            cfg.partial_halos, cfg.grouped_halos, cfg.chain_fuse,
            cfg.backend)


def _capture_bindings(pending: list[_Pending]) -> tuple[list, list]:
    """What this flush's analysis depends on, for later re-validation."""
    bindings = []
    entry: dict[int, tuple] = {}
    for p in pending:
        loop = p.loop
        args = tuple((a.data if a.is_dat else None, a.map, a.access)
                     for a in loop.args)
        bindings.append((loop.kernel, loop.iterset, p.backend, args))
        for a in loop.args:
            if a.is_dat and a.data.set.halo is not None:
                d = a.data
                if id(d) not in entry:
                    entry[id(d)] = (d, d.fresh_for if d.halo_fresh else None)
    return bindings, list(entry.values())


def _plan_matches(plan: _FlushPlan, pending: list[_Pending]) -> bool:
    """Identity-compare a cached plan's inputs against this flush."""
    if len(plan.bindings) != len(pending):
        return False
    for (kern, iset, bk, bargs), p in zip(plan.bindings, pending):
        loop = p.loop
        if loop.kernel is not kern or loop.iterset is not iset \
                or p.backend != bk or len(loop.args) != len(bargs):
            return False
        for a, (d, m, acc) in zip(loop.args, bargs):
            if (a.data if a.is_dat else None) is not d \
                    or a.map is not m or a.access is not acc:
                return False
    for d, marker in plan.entry_marks:
        if (d.fresh_for if d.halo_fresh else None) != marker:
            return False
    return True


# --------------------------------------------------------------------------
# the chain
# --------------------------------------------------------------------------

class LoopChain:
    """A per-thread queue of deferred par_loops."""

    def __init__(self, name: str = "chain") -> None:
        self.name = name
        self.pending: list[_Pending] = []
        self.stats = ChainStats()
        #: ids of Globals any pending loop reduces into — O(1) conflict
        #: checks for enqueue and host Global writes
        self._gbl_reductions: set[int] = set()

    # -- queueing ------------------------------------------------------
    def enqueue(self, loop: "ParLoop", backend: str | None) -> None:
        read_idx = [i for i, arg in enumerate(loop.args)
                    if arg.is_global and arg.access is Access.READ]
        # a pending reduction into a Global this loop READs must land
        # first — snapshots taken below must see the reduced value
        if self._gbl_reductions and read_idx:
            if any(id(loop.args[i].data) in self._gbl_reductions
                   for i in read_idx):
                self.flush()
        gbl_reads = [(i, loop.args[i].data._data.copy()) for i in read_idx]
        self.pending.append(_Pending(loop=loop, backend=backend,
                                     gbl_reads=gbl_reads))
        for arg in loop.args:
            if arg.is_global and arg.is_reduction:
                self._gbl_reductions.add(id(arg.data))
        self.stats.loops += 1

    # -- flushing ------------------------------------------------------
    def flush(self) -> None:
        if not self.pending or _tls_get("in_flush"):
            return
        pending, self.pending = self.pending, []
        self._gbl_reductions.clear()
        cfg = current_config()
        _tls_set("in_flush", True)
        try:
            with _tspan("chain.flush", "op2.chain", chain=self.name,
                        loops=len(pending)):
                if cfg.chain_verify:
                    self._flush_verified(pending, cfg)
                else:
                    self._run(pending, cfg)
        finally:
            _tls_set("in_flush", False)

    def _run(self, pending: list[_Pending], cfg) -> None:
        key = _probe_key(pending, cfg)
        cache = _tls_get("plan_cache")
        if cache is None:
            cache = {}
            _tls_set("plan_cache", cache)
        plan = None
        bucket = cache.get(key)
        if bucket is not None:
            for cand in bucket:
                if _plan_matches(cand, pending):
                    plan = cand
                    break
        if plan is None:
            scopes_list = [_read_scopes(p, cfg) for p in pending]
            schedule = _analyze(pending, scopes_list, cfg)
            eager_calls, eager_msgs = _eager_exchange_count(
                pending, scopes_list, cfg)
            bindings, entry_marks = _capture_bindings(pending)
            if sum(len(b) for b in cache.values()) >= _PLAN_CACHE_MAX:
                cache.clear()
            plan = _FlushPlan(
                schedule=schedule, units=_build_units(schedule),
                groups=_fuse_groups(pending, schedule, cfg),
                eager_calls=eager_calls, eager_msgs=eager_msgs,
                bindings=bindings, entry_marks=entry_marks,
                templates=[p.loop.binding_template() for p in pending])
            cache.setdefault(key, []).append(plan)
        for p, tmpl in zip(pending, plan.templates):
            p.loop._flat_template = tmpl
        groups = _resplit_gbl(pending, plan.groups)
        eager_calls, eager_msgs = plan.eager_calls, plan.eager_msgs

        # map each unit to fusion-group indices: sends post after the
        # group that completes the last write, receives complete before
        # the group whose head consumes the data
        pos_group = {pos: gi for gi, g in enumerate(groups) for pos in g}
        begins: dict[int, list[_ExchangeUnit]] = {}
        ends: dict[int, list[_ExchangeUnit]] = {}
        for u in plan.units:
            gb = 0 if u.ready == 0 else pos_group[u.ready - 1] + 1
            begins.setdefault(gb, []).append(u)
            ends.setdefault(pos_group[u.at], []).append(u)

        sent = 0
        rounds = 0
        in_flight: dict[int, object] = {}
        for gi, group in enumerate(groups):
            # begins strictly before ends: when both land on the same
            # group, every rank must post its sends before any blocks
            # on a receive
            for u in begins.get(gi, ()):
                tok = exchange_halos_multi_begin(u.sset, u.dat_scopes,
                                                 tag=u.tag)
                in_flight[id(u)] = tok
                if tok is not None:
                    sent += tok.sent
                rounds += 1
            for u in ends.get(gi, ()):
                exchange_halos_multi_end(in_flight.pop(id(u)))
            self._execute([pending[i] for i in group], cfg)

        st = self.stats
        st.flushes += 1
        st.exchanges += rounds
        st.eager_exchanges += eager_calls
        st.halo_elided += max(0, eager_calls - rounds)
        st.messages += sent
        st.eager_messages += eager_msgs
        st.messages_saved += max(0, eager_msgs - sent)
        rec = active_recorder()
        if rec is not None:
            rec.counter("chain.flushes")
            rec.counter("chain.loops", len(pending))
            rec.counter("chain.exchanges", rounds)
            rec.counter("chain.halo_elided", max(0, eager_calls - rounds))
            rec.counter("chain.messages_saved", max(0, eager_msgs - sent))
            if eager_calls > rounds:
                rec.instant("chain.elided", "op2.chain",
                            exchanges=eager_calls - rounds,
                            messages=max(0, eager_msgs - sent))

    # -- execution -----------------------------------------------------
    def _execute(self, group: list[_Pending], cfg) -> None:
        with _swapped_globals(group):
            execute_group([p.loop for p in group],
                          _resolved_backend_name(group[0], cfg))
        if len(group) > 1:
            self.stats.fused += len(group) - 1
            rec = active_recorder()
            if rec is not None:
                rec.counter("chain.fused", len(group) - 1)

    # -- verification --------------------------------------------------
    def _flush_verified(self, pending: list[_Pending], cfg) -> None:
        """Run chained, replay eagerly on restored state, compare bitwise."""
        dats, gbls = _touched(pending)
        saved_dats = {id(d): (d._data.copy(), d.halo_fresh, d.fresh_for)
                      for d in dats}
        saved_gbls = {id(g): g._data.copy() for g in gbls}

        self._run(pending, cfg)
        lazy_dats = {id(d): d._data[: d.set.size].copy() for d in dats}
        lazy_gbls = {id(g): g._data.copy() for g in gbls}

        for d in dats:
            data, fresh, ff = saved_dats[id(d)]
            d._data[:] = data
            d.halo_fresh = fresh
            d.fresh_for = ff
        for g in gbls:
            g._data[:] = saved_gbls[id(g)]
        for p in pending:
            with _swapped_globals([p]):
                p.loop.execute(p.backend)

        for d in dats:
            eager = d._data[: d.set.size]
            if not np.array_equal(eager, lazy_dats[id(d)], equal_nan=True):
                raise ChainEquivalenceError(
                    f"chain {self.name!r}: dat {d.name!r} diverged from "
                    f"eager execution (max abs diff "
                    f"{np.max(np.abs(eager - lazy_dats[id(d)])):.3e})"
                )
        for g in gbls:
            if not np.array_equal(g._data, lazy_gbls[id(g)], equal_nan=True):
                raise ChainEquivalenceError(
                    f"chain {self.name!r}: global {g.name!r} diverged from "
                    f"eager execution ({g._data} != {lazy_gbls[id(g)]})"
                )


def _touched(pending: list[_Pending]) -> tuple[list, list]:
    """Unique dats and Globals any pending loop accesses."""
    dats: dict[int, object] = {}
    gbls: dict[int, object] = {}
    for p in pending:
        for a in p.loop.args:
            if a.is_dat:
                dats.setdefault(id(a.data), a.data)
            else:
                gbls.setdefault(id(a.data), a.data)
    return list(dats.values()), list(gbls.values())


@contextmanager
def _swapped_globals(group: list[_Pending]):
    """Bind each READ Global to its call-site snapshot for the duration."""
    saved: list[tuple[np.ndarray, np.ndarray]] = []
    for p in group:
        for i, snap in p.gbl_reads:
            g = p.loop.args[i].data
            saved.append((g._data, g._data.copy()))
            g._data[:] = snap
    try:
        yield
    finally:
        for arr, orig in reversed(saved):
            arr[:] = orig


# --------------------------------------------------------------------------
# thread-local plumbing + public API
# --------------------------------------------------------------------------

_tls = threading.local()


def _tls_get(name: str, default=None):
    return getattr(_tls, name, default)


def _tls_set(name: str, value) -> None:
    setattr(_tls, name, value)


def current_chain() -> LoopChain | None:
    """This thread's open chain (explicit or implicit), if any."""
    return _tls_get("chain")


def chain_stats() -> ChainStats:
    """Cumulative chain statistics for this thread."""
    stats = _tls_get("stats")
    if stats is None:
        stats = ChainStats()
        _tls_set("stats", stats)
    return stats


def reset_chain_stats() -> None:
    stats = ChainStats()
    _tls_set("stats", stats)
    chain = _tls_get("chain")
    if chain is not None:  # rebind a live implicit chain to the new counters
        chain.stats = stats


def submit(loop: "ParLoop", backend: str | None) -> bool:
    """Offer a loop to the lazy runtime; True iff it was enqueued.

    Loops enqueue when a :func:`loop_chain` context is open or
    ``Config.lazy`` is set. Sanitize mode always executes eagerly (the
    race auditor inspects loops one at a time) — after flushing
    anything still pending so program order is preserved.
    """
    cfg = current_config()
    chain = _tls_get("chain")
    if cfg.sanitize or _tls_get("in_flush"):
        if chain is not None:
            chain.flush()
        return False
    if chain is not None and _tls_get("implicit") and not cfg.lazy:
        # Config.lazy was switched off: retire the implicit chain
        chain.flush()
        _tls_set("chain", None)
        chain = None
    if chain is None:
        if not cfg.lazy:
            return False
        chain = LoopChain("lazy")
        chain.stats = chain_stats()
        _tls_set("chain", chain)
        _tls_set("implicit", True)
    chain.enqueue(loop, backend)
    return True


def flush_chain() -> None:
    """Execute everything pending on this thread's chain (if any).

    Also retires the implicit chain when ``Config.lazy`` has been
    switched off, so ``set_config(lazy=False); flush_chain()`` fully
    restores eager semantics on this thread.
    """
    chain = _tls_get("chain")
    if chain is not None:
        chain.flush()
        if _tls_get("implicit") and not current_config().lazy:
            _tls_set("chain", None)


def sync_host_access() -> None:
    """Flush before host code observes dat/global data (hot no-op path)."""
    chain = _tls_get("chain")
    if chain is None or not chain.pending or _tls_get("in_flush"):
        return
    chain.flush()


def sync_global_write(g) -> None:
    """Flush before a host write to a Global a pending loop reduces into.

    Host writes to Globals that pending loops merely READ need no flush
    (those loops snapshotted their values at enqueue), which is what
    keeps e.g. per-stage RK coefficient updates from breaking chains.
    """
    chain = _tls_get("chain")
    if chain is None or not chain.pending or _tls_get("in_flush"):
        return
    if id(g) in chain._gbl_reductions:
        chain.flush()


@contextmanager
def loop_chain(name: str = "chain", enabled: bool | None = True):
    """Collect every par_loop in the body into one lazily-executed chain.

    ``enabled=True`` chains unconditionally; ``enabled=None`` chains
    only when ``Config.lazy`` is set (how library code like the Hydra
    solver marks chain boundaries without changing default behavior);
    ``enabled=False`` is a no-op. Nested chains join the outer one (the
    outer flush sees the whole sequence). The chain flushes on exit and
    whenever host code reads dat or Global data.
    """
    if enabled is None:
        enabled = current_config().lazy
    outer = _tls_get("chain")
    if not enabled or outer is not None:
        yield outer
        return
    chain = LoopChain(name)
    chain.stats = chain_stats()
    _tls_set("chain", chain)
    _tls_set("implicit", False)
    try:
        yield chain
    finally:
        try:
            chain.flush()
        finally:
            _tls_set("chain", None)
