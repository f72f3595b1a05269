"""Lazy par_loop execution: loop chains and halo elision.

Eager ``par_loop`` executes each loop the moment it is declared, so
every loop must conservatively refresh whatever halos it reads. The
Hydra inner iteration issues dozens of back-to-back loops per
Runge-Kutta stage; seen *as a chain*, most of those refreshes are
redundant. This module defers :class:`~repro.op2.parloop.BoundLoop`
objects into a per-thread :class:`LoopChain` (under ``Config.lazy`` or
an explicit :func:`loop_chain` context) and flushes them through a
dataflow analysis that the eager path cannot perform:

* **cross-loop halo elision** — a dat read through several maps with no
  intervening write gets *one* union-scope exchange instead of one
  partial exchange per map (the eager dirty bit remembers only the last
  scope, so under ``Config.partial_halos`` it re-exchanges per map);
* **forward batching** — every exchange a chain segment needs is
  hoisted to the earliest point its data is ready and packed into one
  grouped multi-dat message per neighbour (the grouped-halo
  optimization applied *across* loops instead of within one), posted
  split-phase so the loops in between hide its latency.

The loops themselves run one at a time, in program order, through the
same one-loop entry point an eager ``par_loop`` uses
(:func:`~repro.op2.parloop.execute_loop`): the chain changes *when*
halos move, never how a loop computes.

Equivalence guarantee
---------------------
Chained execution is *bitwise identical* to eager execution: loops
keep their program order, READ Globals are snapshotted at enqueue time
(call-site semantics), and host access to dat/global data
transparently flushes the chain. ``Config.chain_verify`` makes the
runtime enforce this on every flush by replaying the chain eagerly and
comparing bitwise (:class:`ChainEquivalenceError` on any mismatch);
the regression suite pins it with fingerprints on the airfoil and
mini-Rig250 runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.op2.access import WRITING
from repro.op2.config import current_config
from repro.op2.halo import (exchange_begin, exchange_end, exchange_messages,
                            marker_covers, message_streams, normalize_scopes)
from repro.op2.parloop import (BoundLoop, eager_exchanges, eager_reads,
                               execute_loop, loop_halo_reads)
from repro.telemetry.recorder import active_recorder, span as _tspan


class ChainEquivalenceError(RuntimeError):
    """Chained execution diverged from the eager replay (verify mode)."""


@dataclass
class ChainStats:
    """Cumulative per-thread chain accounting (independent of telemetry)."""

    loops: int = 0            #: par_loops enqueued
    flushes: int = 0          #: flush calls that executed work
    exchanges: int = 0        #: batched exchange rounds performed
    eager_exchanges: int = 0  #: exchange calls eager mode would have made
    halo_elided: int = 0      #: eager exchange calls avoided
    messages: int = 0         #: point-to-point halo messages sent (this rank)
    eager_messages: int = 0   #: messages eager mode would have sent
    messages_saved: int = 0   #: eager messages avoided

    def as_dict(self) -> dict:
        return {
            "loops": self.loops, "flushes": self.flushes,
            # always 0, no loop fusion: benchmarks/e2e/probes.py reads it
            "fused": 0, "exchanges": self.exchanges,
            "eager_exchanges": self.eager_exchanges,
            "halo_elided": self.halo_elided,
            "messages": self.messages,
            "eager_messages": self.eager_messages,
            "messages_saved": self.messages_saved,
        }


@dataclass
class _Pending:
    """One enqueued loop plus its call-site context."""

    loop: BoundLoop
    backend: str | None
    #: (arg index, snapshot) for every READ Global — call-site semantics
    gbl_reads: list[tuple[int, np.ndarray]] = field(default_factory=list)


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


def _written_dats(loop: BoundLoop):
    for arg in loop.args:
        if arg.is_dat and arg.access in WRITING and arg.data.set.halo is not None:
            yield arg.data


def _eager_exchange_count(pending: list[_Pending], scopes_list: list, cfg
                          ) -> tuple[int, int]:
    """(exchange calls, messages) eager execution of the chain would do."""
    grouped = cfg.grouped_halos
    marks: dict[int, object] = {}  # id(dat) -> marker eager would leave

    def is_fresh(dat, scope: str) -> bool:
        return marker_covers(marks.get(id(dat), dat.fresh_for), scope)

    calls = messages = 0
    for p, needs in zip(pending, scopes_list):
        for sset, scope, dats in eager_exchanges(eager_reads(needs),
                                                 is_fresh):
            plan = sset.halo.plan_for(scope)
            calls += 1
            messages += sum(exchange_messages(plan, len(s), grouped)
                            for s in message_streams(dats, grouped))
            for d in dats:
                marks[id(d)] = plan.name
        for d in _written_dats(p.loop):
            if d.set.total_size != d.set.size:
                marks[id(d)] = None
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
                unmet = [(pos, scopes) for pos, scopes in evs
                         if any(not dat.is_fresh_for(s) for s in scopes)]
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
    """One inspected chain shape: exchange schedule and eager baseline.

    Iterative solvers flush the *same* chain every iteration; inspecting
    it once and replaying the plan (OP2's inspector/executor idiom) is
    what keeps lazy dispatch overhead below eager's. ``bindings`` and
    ``entry_marks`` record exactly what the analysis depended on — the
    per-loop (loop, kernel, iterset, backend, dat/map/access bindings)
    and each halo-bearing dat's entry freshness marker — both for the
    cheap identity re-validation on later flushes and as strong
    references that keep every probed ``id()`` from being recycled.
    Each loop keeps its own argument layout and prepared backend calls
    (:class:`~repro.op2.parloop.BoundLoop`), so a replay passes the
    loops to :func:`~repro.op2.parloop.execute_loop` as they are.
    """

    units: list[_ExchangeUnit]
    eager_calls: int
    eager_msgs: int
    #: per loop: (loop, kernel, iterset, backend, ((data|None, map,
    #: access)...)) — ``None`` stands for any Global, which never
    #: influences the plan
    bindings: list
    entry_marks: list   #: [(dat, freshness marker at inspection time)]


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
            cfg.partial_halos, cfg.grouped_halos)


def _capture_bindings(pending: list[_Pending]) -> tuple[list, list]:
    """What this flush's analysis depends on, for later re-validation."""
    bindings = []
    entry: dict[int, tuple] = {}
    for p in pending:
        loop = p.loop
        args = tuple((a.data if a.is_dat else None, a.map, a.access)
                     for a in loop.args)
        bindings.append((loop, loop.kernel, loop.iterset, p.backend, args))
        for a in loop.args:
            if a.is_dat and a.data.set.halo is not None:
                d = a.data
                if id(d) not in entry:
                    entry[id(d)] = (d, d.fresh_for)
    return bindings, list(entry.values())


def _plan_matches(plan: _FlushPlan, pending: list[_Pending]) -> bool:
    """Identity-compare a cached plan's inputs against this flush.

    The same bound loop with the same backend matches at once; another
    loop matches when its kernel, set and argument bindings do.
    """
    if len(plan.bindings) != len(pending):
        return False
    for (bloop, kern, iset, bk, bargs), p in zip(plan.bindings, pending):
        loop = p.loop
        if p.backend != bk:
            return False
        if loop is bloop:
            continue
        if loop.kernel is not kern or loop.iterset is not iset \
                or len(loop.args) != len(bargs):
            return False
        for a, (d, m, acc) in zip(loop.args, bargs):
            if (a.data if a.is_dat else None) is not d \
                    or a.map is not m or a.access is not acc:
                return False
    for d, marker in plan.entry_marks:
        if d.fresh_for != marker:
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
    def enqueue(self, loop: BoundLoop, backend: str | None) -> None:
        read_idx = loop.global_reads
        # a pending reduction into a Global this loop READs must land
        # first — snapshots taken below must see the reduced value
        if self._gbl_reductions and read_idx:
            if any(id(loop.args[i].data) in self._gbl_reductions
                   for i in read_idx):
                self.flush()
        gbl_reads = [(i, loop.args[i].data._data.copy()) for i in read_idx]
        self.pending.append(_Pending(loop=loop, backend=backend,
                                     gbl_reads=gbl_reads))
        for g in loop.reduced_globals:
            self._gbl_reductions.add(id(g))
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
            scopes_list = [loop_halo_reads(p.loop, cfg) for p in pending]
            eager_calls, eager_msgs = _eager_exchange_count(
                pending, scopes_list, cfg)
            bindings, entry_marks = _capture_bindings(pending)
            if sum(len(b) for b in cache.values()) >= _PLAN_CACHE_MAX:
                cache.clear()
            plan = _FlushPlan(
                units=_build_units(_analyze(pending, scopes_list, cfg)),
                eager_calls=eager_calls, eager_msgs=eager_msgs,
                bindings=bindings, entry_marks=entry_marks)
            cache.setdefault(key, []).append(plan)
        eager_calls, eager_msgs = plan.eager_calls, plan.eager_msgs

        # sends post right after the loop that completes the last write,
        # receives complete just before the first loop that reads
        begins: dict[int, list[_ExchangeUnit]] = {}
        ends: dict[int, list[_ExchangeUnit]] = {}
        for u in plan.units:
            begins.setdefault(u.ready, []).append(u)
            ends.setdefault(u.at, []).append(u)

        sent = 0
        rounds = 0
        in_flight: dict[int, object] = {}
        for pos, p in enumerate(pending):
            # begins strictly before ends: when both land on the same
            # loop, every rank must post its sends before any blocks on
            # a receive
            for u in begins.get(pos, ()):
                in_flight[id(u)] = exchange_begin(u.sset, u.dat_scopes, u.tag,
                                                  True, "halo:chain")
                rounds += 1
            for u in ends.get(pos, ()):
                sent += exchange_end(in_flight.pop(id(u)))
            with _swapped_globals(p):
                execute_loop(p.loop, p.backend or cfg.backend)

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

    # -- verification --------------------------------------------------
    def _flush_verified(self, pending: list[_Pending], cfg) -> None:
        """Run chained, replay eagerly on restored state, compare bitwise."""
        dats, gbls = _touched(pending)
        saved_dats = {id(d): (d._data.copy(), d.fresh_for) for d in dats}
        saved_gbls = {id(g): g._data.copy() for g in gbls}

        self._run(pending, cfg)
        lazy_dats = {id(d): d._data[: d.set.size].copy() for d in dats}
        lazy_gbls = {id(g): g._data.copy() for g in gbls}

        for d in dats:
            data, d.fresh_for = saved_dats[id(d)]
            d._data[:] = data
        for g in gbls:
            g._data[:] = saved_gbls[id(g)]
        for p in pending:
            with _swapped_globals(p):
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
    """Unique dats and Globals any pending loop accesses and may
    change (frozen dats and const Globals cannot)."""
    dats: dict[int, object] = {}
    gbls: dict[int, object] = {}
    for p in pending:
        for a in p.loop.args:
            if a.is_dat and not a.data.frozen:
                dats.setdefault(id(a.data), a.data)
            elif a.is_global and not a.data.const:
                gbls.setdefault(id(a.data), a.data)
    return list(dats.values()), list(gbls.values())


@contextmanager
def _swapped_globals(p: _Pending):
    """Bind each READ Global to its call-site snapshot for the duration."""
    saved: list[tuple[np.ndarray, np.ndarray]] = []
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


def submit(loop: BoundLoop, backend: str | None) -> bool:
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
