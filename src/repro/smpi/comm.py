"""One simulated-MPI communicator over a four-method channel.

:class:`SimComm` is the only class that knows MPI semantics — rank
translation, traffic accounting, the fault-injection path, matched
receives, every collective and ``split``. It is written once over a
per-rank :class:`Channel` (``put`` / ``get`` / ``poll`` / ``close``)
that moves opaque wire items ``(comm_id, kind, src_world, tag,
payload)`` between *world* ranks; what differs between transports
lives in the two channel implementations and nowhere else:

* :class:`ThreadChannel` (this module) — ranks are threads of one
  interpreter. One mailbox + condition per world rank, payloads copied
  on ``put`` (value semantics, like a real network). Blocked ``get``\\ s
  register a wait-for edge with the world's
  :class:`~repro.smpi.deadlock.WaitRegistry`, so a genuine cycle (or a
  wait on a rank that already exited) raises
  :class:`~repro.smpi.errors.DeadlockError` naming every stuck rank
  within milliseconds; under a seeded
  :class:`~repro.smpi.schedule.DeterministicScheduler` every channel
  operation is a scheduling point, which makes ``ANY_SOURCE`` and
  ``probe`` races replayable and sweepable.
* :class:`~repro.smpi.transport.ProcessChannel` — ranks are forked OS
  processes; see :mod:`repro.smpi.transport`.

Consequences that hold on both transports *by construction*:

* Collectives are ``kind="coll"`` messages tagged by a per-communicator
  sequence counter (every member calls collectives in the same program
  order, so the counters agree without negotiation): gather to a root,
  fold in ascending rank order, broadcast. Floating-point reductions
  are therefore bitwise-identical across transports.
* Collectives are not recorded in the :class:`~repro.smpi.traffic.Traffic`
  ledger, bypass the fault plan and emit exactly one
  ``smpi.collective`` telemetry span (no inner ``smpi.recv`` spans).
* Sub-communicators from :meth:`SimComm.split` are deterministic
  ``comm_id`` namespaces over the same per-rank channel — HS and CU
  groups of the coupled solver cannot see each other's messages, yet
  share the world's traffic ledger, fault plan and deadlock detector.
* Point-to-point traffic is recorded keyed by *world* ranks, whatever
  communicator carried it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Collection, Protocol, Sequence

import numpy as np

from repro.smpi.deadlock import WaitEdge, WaitRegistry
from repro.smpi.errors import SimAbort, SimMPIError, TransportError
from repro.smpi.traffic import Traffic, payload_nbytes
from repro.telemetry.recorder import active_recorder, span as _tspan

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.faults import FaultPlan
    from repro.smpi.schedule import DeterministicScheduler

ANY_SOURCE = -1
ANY_TAG = -1

#: Default seconds a blocking operation may wait before the run is
#: declared hung. True message/collective deadlocks on the thread
#: channel are caught by the wait-for detector long before this; the
#: timeout only catches ranks stuck outside the MPI layer.
DEFAULT_TIMEOUT = 120.0

#: Poll step (seconds) of blocking waits; also bounds how often the
#: deadlock detector re-checks an already-blocked rank and how long an
#: abort takes to reach a rank blocked on the process channel.
_WAIT_STEP = 0.05

#: A wire item: ``(comm_id, kind, src_world, tag, payload)``.
Item = tuple
Match = Callable[[Item], bool]


def _copy_payload(obj: Any) -> Any:
    """Deep-copy the mutable buffers of a payload (numpy value semantics)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_copy_payload(o) for o in obj)
    if isinstance(obj, list):
        return [_copy_payload(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


def _find(items: list[Item], match: Match) -> int:
    """Index of the earliest-arrived item ``match`` accepts, or -1."""
    for i, item in enumerate(items):
        if match(item):
            return i
    return -1


class Channel(Protocol):
    """What a transport must provide for one rank: four methods.

    Items are opaque to the channel apart from ``item[4]``, the
    payload, which ``put`` must detach from the sender (copy, pickle
    or shared-memory hand-off) so each delivery owns its buffers.
    Delivery is FIFO per (sender, receiver) pair; items no ``get`` has
    matched yet stay buffered in arrival order.
    """

    def put(self, dst_world: int, item: Item) -> None:
        """Deliver ``item`` to world rank ``dst_world`` (buffered)."""

    def get(self, match: Match, deadline: float, edge: WaitEdge) -> Item:
        """Remove and return the earliest item ``match`` accepts,
        blocking until one arrives. Raises :class:`TimeoutError` once
        ``time.monotonic()`` passes ``deadline`` and
        :class:`~repro.smpi.errors.SimAbort` once the run is closed.
        ``edge`` describes the wait for deadlock diagnosis."""

    def poll(self, match: Match) -> bool:
        """Whether a ``get(match)`` would return without blocking."""

    def close(self) -> None:
        """Abort the run: wake every blocked ``get`` on every rank."""


class ThreadChannel:
    """In-process channel: one mailbox + condition per world rank."""

    def __init__(self, peers: "list[ThreadChannel]",
                 abort: threading.Event, registry: WaitRegistry,
                 scheduler: "DeterministicScheduler | None") -> None:
        self._peers = peers  #: every rank's channel, indexed by world rank
        self._abort = abort
        self._registry = registry
        self._scheduler = scheduler
        self._cond = threading.Condition()
        self._box: list[Item] = []

    @classmethod
    def world(cls, nranks: int, abort: threading.Event,
              registry: WaitRegistry,
              scheduler: "DeterministicScheduler | None" = None,
              ) -> "list[ThreadChannel]":
        """The connected channels of one ``nranks``-rank run."""
        peers: list[ThreadChannel] = []
        peers.extend(cls(peers, abort, registry, scheduler)
                     for _ in range(nranks))
        return peers

    def put(self, dst_world: int, item: Item) -> None:
        item = item[:4] + (_copy_payload(item[4]),)
        peer = self._peers[dst_world]
        with peer._cond:
            peer._box.append(item)
            peer._cond.notify_all()
        if self._scheduler is not None:
            self._scheduler.maybe_yield()

    def get(self, match: Match, deadline: float, edge: WaitEdge) -> Item:
        abort, box = self._abort, self._box

        def ready() -> bool:
            # lock-free peek (GIL-atomic snapshot): the deadlock detector
            # and the scheduler call this from other ranks' threads
            return abort.is_set() or any(match(it) for it in list(box))

        if self._scheduler is not None:
            self._scheduler.wait_until(ready, edge)
        registered = False
        with self._cond:
            try:
                while True:
                    if abort.is_set():
                        raise SimAbort("run aborted by another rank")
                    i = _find(box, match)
                    if i >= 0:
                        break
                    if not registered:
                        self._registry.register(edge, ready)
                        registered = True
                    self._registry.raise_if_deadlocked(edge.rank)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError
                    self._cond.wait(min(_WAIT_STEP, remaining))
            finally:
                # drop the edge while the item is still in the box, so a
                # peer's detector never sees "registered and unsatisfied"
                if registered:
                    self._registry.unregister(edge.rank)
            return box.pop(i)

    def poll(self, match: Match) -> bool:
        if self._scheduler is not None:
            # a yield point, so a probe-poll loop cannot starve the
            # rank it is waiting on
            self._scheduler.maybe_yield()
        with self._cond:
            return _find(self._box, match) >= 0

    def close(self) -> None:
        self._abort.set()
        for peer in self._peers:
            with peer._cond:
                peer._cond.notify_all()
        if self._scheduler is not None:
            self._scheduler.abort_all()


@dataclass
class Request:
    """Handle for a nonblocking operation.

    Sends complete immediately (buffered); receives resolve on
    :meth:`wait`.
    """

    _resolve: Callable[[], Any] | None = None
    _value: Any = None
    _done: bool = field(default=False)

    def wait(self) -> Any:
        if not self._done:
            assert self._resolve is not None
            self._value = self._resolve()
            self._done = True
        return self._value

    def test(self) -> bool:
        return self._done


class SimComm:
    """One rank's view of a simulated-MPI communicator.

    The same class runs on every transport; only the ``channel``
    differs. ``world_ranks[r]`` is the world rank of this
    communicator's rank ``r``.
    """

    def __init__(self, channel: Channel, world_ranks: Sequence[int],
                 rank: int, traffic: Traffic, timeout: float,
                 faults: "FaultPlan | None" = None,
                 comm_id: str = "world") -> None:
        self._chan = channel
        self._world_ranks = list(world_ranks)
        self._local = {w: r for r, w in enumerate(self._world_ranks)}
        self.rank = rank
        self._traffic = traffic
        self._timeout = timeout
        self._faults = faults
        self.comm_id = comm_id
        self._seq = 0        #: collectives issued on this communicator
        self._split_gen = 0  #: splits issued on this communicator
        self._others = tuple(w for w in self._world_ranks
                             if w != self.world_rank)

    # -- introspection -------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._world_ranks)

    @property
    def traffic(self) -> Traffic:
        return self._traffic

    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator."""
        return self._world_ranks[self.rank]

    def set_phase(self, phase: str) -> None:
        """Label subsequent sends from this rank for traffic accounting."""
        self._traffic.set_phase(self.world_rank, phase)

    # -- fault injection ------------------------------------------------
    def notify_step(self, step: int) -> None:
        """Announce a physical-step boundary to the installed fault plan.

        No-op without a plan. A matching crash fault raises
        :class:`~repro.smpi.errors.RankFailure` here (or, for
        ``crash_hard`` on the process transport, SIGKILLs this rank's
        process after a pre-death notice), which aborts the world
        through the standard failure path.
        """
        if self._faults is not None:
            self._faults.on_step(self.world_rank, step)

    # -- matched, deadline-bounded waits ---------------------------------
    def _match(self, kind: str, srcs: Collection[int] | None,
               tag: int) -> Match:
        """Predicate over wire items: this communicator's ``kind``
        messages from world ranks ``srcs`` (``None`` = any) with
        ``tag`` (:data:`ANY_TAG` = any)."""
        comm_id = self.comm_id

        def match(item: Item) -> bool:
            return (item[0] == comm_id and item[1] == kind
                    and (tag == ANY_TAG or item[3] == tag)
                    and (srcs is None or item[2] in srcs))
        return match

    def _get(self, match: Match, edge: WaitEdge, timeout: float) -> Item:
        try:
            return self._chan.get(match, time.monotonic() + timeout, edge)
        except TimeoutError:
            raise SimMPIError(f"{edge.describe()} timed out after "
                              f"{timeout:.1f}s — deadlock?") from None

    # -- point to point --------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered blocking send (the channel detaches numpy payloads)."""
        if not 0 <= dest < self.size:
            raise SimMPIError(f"send dest {dest} out of range [0, {self.size})")
        me, dst = self.world_rank, self._world_ranks[dest]
        nbytes = payload_nbytes(obj)
        self._traffic.record(me, dst, nbytes)
        rec = active_recorder()
        if rec is not None:
            rec.instant("send", "smpi.send", dst=dst, tag=tag, nbytes=nbytes,
                        phase=self._traffic.phase_of(me))
            rec.counter("smpi.messages")
            rec.counter("smpi.nbytes", nbytes)
        chan, plan = self._chan, self._faults
        if plan is None:
            chan.put(dst, (self.comm_id, "p2p", me, tag, obj))
            return
        # Matching runs on the sending rank; process-transport plans pin
        # src (validate_for_transport), so fire-once counts agree with
        # thread runs.
        actions = plan.on_send(me, dst, tag)
        if actions.corrupt is not None:
            # poke a private copy: the sender must not see its own
            # buffer corrupted
            obj = actions.corrupt(_copy_payload(obj))
        if actions.hold:
            # freeze the payload now — the sender may reuse its buffer
            # before the delayed delivery happens
            held = (self.comm_id, "p2p", me, tag, _copy_payload(obj))
            plan.hold_message(me, dst, lambda: chan.put(dst, held))
            return
        for _ in range(actions.deliver):
            chan.put(dst, (self.comm_id, "p2p", me, tag, obj))
        # a prior delayed message to this destination arrives *after*
        # this one — the reordering the delay fault models
        plan.release_held(me, dst)

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                    timeout: float | None = None) -> tuple[Any, int, int]:
        """Blocking receive returning ``(payload, source, tag)``.

        ``timeout`` overrides the communicator-wide default for this
        one receive — serve loops use it so a dead client degrades to
        a :class:`~repro.smpi.errors.SimMPIError` instead of a hang.
        """
        timeout = self._timeout if timeout is None else timeout
        if source == ANY_SOURCE:
            srcs, peers, detail = None, self._others, "source=ANY"
        else:
            peers = (self._world_ranks[source],)
            srcs, detail = peers, f"source={peers[0]}"
        edge = WaitEdge(rank=self.world_rank, op="recv", peers=peers,
                        tag=None if tag == ANY_TAG else tag, detail=detail)
        rec = active_recorder()
        t0 = time.perf_counter() if rec is not None else 0.0
        _cid, _kind, src, got_tag, payload = self._get(
            self._match("p2p", srcs, tag), edge, timeout)
        if rec is not None:
            rec.add_span("recv", "smpi.recv", t0, time.perf_counter(),
                         src=src, tag=got_tag)
        return payload, self._local[src], got_tag

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> Any:
        """Blocking receive; returns the payload (see :meth:`recv_status`)."""
        return self.recv_status(source, tag, timeout)[0]

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(_done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(_resolve=lambda: self.recv(source, tag))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Nonblocking check for a matching pending message."""
        srcs = None if source == ANY_SOURCE else (self._world_ranks[source],)
        return self._chan.poll(self._match("p2p", srcs, tag))

    def sendrecv(self, obj: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (safe against head-on exchanges)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives -------------------------------------------------------
    # Built from kind="coll" messages so user tags can never collide;
    # they go straight to the channel: no ledger record, no fault plan,
    # no per-message telemetry.

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _coll_send(self, obj: Any, dest: int, seq: int) -> None:
        self._chan.put(self._world_ranks[dest],
                       (self.comm_id, "coll", self.world_rank, seq, obj))

    def _coll_recv(self, op: str, sources: Sequence[int],
                   seq: int) -> tuple[int, Any]:
        """One ``(rank, contribution)`` to collective ``op`` from any of
        the local ranks ``sources`` — the members still missing, which
        is exactly what the wait-for edge names."""
        peers = tuple(self._world_ranks[r] for r in sources)
        edge = WaitEdge(rank=self.world_rank, op=op, peers=peers,
                        detail=f"{self.size}-rank {op}")
        item = self._get(self._match("coll", peers, seq), edge,
                         self._timeout)
        return self._local[item[2]], item[4]

    def _collect(self, op: str, mine: Any, seq: int) -> list[Any]:
        """One contribution from every member, by rank, taken in
        arrival order; ``mine`` is this rank's own."""
        slots: list[Any] = [None] * self.size
        slots[self.rank] = _copy_payload(mine)
        missing = [r for r in range(self.size) if r != self.rank]
        while missing:
            r, slots[r] = self._coll_recv(op, missing, seq)
            missing.remove(r)
        return slots

    def _fan_in(self, op: str, obj: Any, root: int,
                seq: int) -> list[Any] | None:
        """Every member's ``obj``, by rank, on ``root``; None elsewhere."""
        if self.rank != root:
            self._coll_send(obj, root, seq)
            return None
        return self._collect(op, obj, seq)

    def _fan_out(self, op: str, objs: Sequence[Any] | None, root: int,
                 seq: int) -> Any:
        """``objs[r]`` (given on ``root``) delivered to each rank ``r``."""
        if self.rank != root:
            return self._coll_recv(op, (root,), seq)[1]
        for r in range(self.size):
            if r != root:
                self._coll_send(objs[r], r, seq)
        return _copy_payload(objs[root])

    def barrier(self) -> None:
        with _tspan("barrier", "smpi.collective", size=self.size):
            seq = self._next_seq()
            self._fan_in("barrier", None, 0, seq)
            self._fan_out("barrier", [None] * self.size, 0, seq)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        with _tspan("bcast", "smpi.collective", size=self.size):
            return self._fan_out("bcast", [obj] * self.size, root,
                                 self._next_seq())

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        with _tspan("gather", "smpi.collective", size=self.size):
            return self._fan_in("gather", obj, root, self._next_seq())

    def allgather(self, obj: Any) -> list[Any]:
        with _tspan("allgather", "smpi.collective", size=self.size):
            seq = self._next_seq()
            slots = self._fan_in("allgather", obj, 0, seq)
            return self._fan_out("allgather", [slots] * self.size, 0, seq)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        with _tspan("scatter", "smpi.collective", size=self.size):
            if self.rank == root and (objs is None
                                      or len(objs) != self.size):
                raise SimMPIError(
                    f"scatter root must supply {self.size} items, got "
                    f"{None if objs is None else len(objs)}")
            return self._fan_out("scatter", objs, root, self._next_seq())

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] | str = "sum",
               root: int = 0) -> Any | None:
        result = self.allreduce(obj, op)
        return result if self.rank == root else None

    def allreduce(self, obj: Any,
                  op: Callable[[Any, Any], Any] | str = "sum") -> Any:
        if isinstance(op, str) and op not in _REDUCE_OPS:
            raise SimMPIError(
                f"unknown reduce op {op!r}; use one of {sorted(_REDUCE_OPS)}")
        fn = _REDUCE_OPS[op] if isinstance(op, str) else op
        with _tspan("allreduce", "smpi.collective", size=self.size):
            seq = self._next_seq()
            slots = self._fan_in("allreduce", obj, 0, seq)
            acc = None
            if slots is not None:
                # fold in ascending rank order, whatever order the
                # contributions arrived in: bitwise-reproducible
                acc = slots[0]
                for other in slots[1:]:
                    acc = fn(acc, other)
            return self._fan_out("allreduce", [acc] * self.size, 0, seq)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise SimMPIError(f"alltoall needs {self.size} items, got {len(objs)}")
        with _tspan("alltoall", "smpi.collective", size=self.size):
            seq = self._next_seq()
            for r in range(self.size):
                if r != self.rank:
                    self._coll_send(objs[r], r, seq)
            return self._collect("alltoall", objs[self.rank], seq)

    # -- communicator management ---------------------------------------
    def split(self, color: int, key: int | None = None) -> "SimComm | None":
        """Partition the communicator by ``color``; order ranks by ``key``.

        A negative ``color`` opts the rank out (returns ``None``), like
        ``MPI_UNDEFINED``. All ranks of this communicator must call.
        Every member computes the same grouping from the same
        allgathered ``(color, key, rank)`` triples, so the derived
        ``comm_id`` — ``"{parent}/{gen}.{color}"`` — agrees everywhere
        without a coordinator.
        """
        key = self.rank if key is None else key
        triples = self.allgather((color, key, self.rank))
        self._split_gen += 1
        if color < 0:
            return None
        ranks = [r for _k, r in sorted((k, r) for c, k, r in triples
                                       if c == color)]
        return SimComm(self._chan, [self._world_ranks[r] for r in ranks],
                       ranks.index(self.rank), self._traffic, self._timeout,
                       self._faults,
                       f"{self.comm_id}/{self._split_gen}.{color}")


def waitall(requests: list[Request]) -> list[Any]:
    """Wait on every request; returns their values in order."""
    return [req.wait() for req in requests]


def run_ranks(nranks: int, fn: Callable[..., Any], args: tuple = (),
              timeout: float = DEFAULT_TIMEOUT,
              traffic: Traffic | None = None,
              scheduler: "DeterministicScheduler | None" = None,
              fault_plan: "FaultPlan | None" = None,
              transport: str | None = None,
              watchdog_s: float | None = None,
              heartbeat_s: float | None = None) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` cooperating ranks.

    Returns each rank's return value, ordered by rank. If any rank
    raises, the whole run is aborted (every blocked wait is woken with
    :class:`~repro.smpi.errors.SimAbort`) and the first failure is
    re-raised.

    ``watchdog_s`` tunes the process transport's hung-child deadline
    (default ``$REPRO_SMPI_WATCHDOG_S``, else ``2 * timeout``) and
    ``heartbeat_s`` its per-child liveness heartbeat (default
    ``$REPRO_SMPI_HEARTBEAT_S``, else disabled); the threaded
    transport ignores both — its wait-for-graph detector reports
    genuine deadlocks directly.

    ``transport`` selects how ranks execute (default: the
    ``REPRO_SMPI_TRANSPORT`` environment variable, else ``"thread"``).
    Either way ``fn`` receives the same :class:`SimComm`:

    * ``"thread"`` — ranks are threads of this interpreter. Blocked
      send/recv or collective cycles are reported as
      :class:`~repro.smpi.errors.DeadlockError` with the wait-for
      cycle long before ``timeout``. Pass a
      :class:`~repro.smpi.schedule.DeterministicScheduler` to
      serialize the ranks under a seeded, replayable interleaving,
      and/or a :class:`~repro.smpi.faults.FaultPlan` to inject crashes
      and message faults deterministically (world ranks and every
      sub-communicator share the plan).
    * ``"process"`` — ranks are forked OS processes with true
      multi-core parallelism (see :mod:`repro.smpi.transport`).
      Fault plans work here too — each forked rank applies its
      inherited copy and fire-once state is merged back — with two
      transport-specific rules enforced up front: message faults must
      pin ``src``, and ``crash_hard`` faults are *only* expressible
      here. The deterministic scheduler is a thread-channel feature;
      requesting one raises
      :class:`~repro.smpi.errors.TransportError`.
    """
    # runtime import: transport.py builds on this module
    from repro.smpi.transport import resolve_transport, run_ranks_process

    if resolve_transport(transport) == "process":
        if scheduler is not None:
            raise TransportError(
                "process transport does not support scheduler; "
                "deterministic scheduling requires transport='thread'"
            )
        return run_ranks_process(nranks, fn, args=args, timeout=timeout,
                                 traffic=traffic, watchdog_s=watchdog_s,
                                 fault_plan=fault_plan,
                                 heartbeat_s=heartbeat_s)
    if fault_plan is not None:
        # rejects crash_hard up front: a thread cannot die abnormally
        fault_plan.validate_for_transport("thread")
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    traffic = traffic if traffic is not None else Traffic()
    abort = threading.Event()
    registry = WaitRegistry()
    if scheduler is not None:
        scheduler.attach(nranks, abort)
    channels = ThreadChannel.world(nranks, abort, registry, scheduler)
    results: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = SimComm(channels[rank], range(nranks), rank, traffic,
                       timeout, fault_plan)
        try:
            if scheduler is not None:
                scheduler.thread_started(rank)
            results[rank] = fn(comm, *args)
        except SimAbort:
            pass
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            with failures_lock:
                failures.append((rank, exc))
            channels[rank].close()
        finally:
            registry.mark_done(rank)
            if scheduler is not None:
                scheduler.thread_finished(rank)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"smpi-rank-{r}", daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout * 2)
        if t.is_alive():
            channels[0].close()
            with failures_lock:
                if not failures:  # prefer a rank's own error if one exists
                    raise SimMPIError(
                        f"rank thread {t.name} failed to terminate")
    if failures:
        failures.sort(key=lambda pair: pair[0])
        raise failures[0][1]
    return results


def _sum(a: Any, b: Any) -> Any:
    return a + b


def _min(a: Any, b: Any) -> Any:
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


def _max(a: Any, b: Any) -> Any:
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _prod(a: Any, b: Any) -> Any:
    return a * b


_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": _sum,
    "min": _min,
    "max": _max,
    "prod": _prod,
}
