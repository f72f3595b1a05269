"""Process transport for simulated-MPI runs: channel, launch, supervision.

:func:`repro.smpi.run_ranks` hands every rank the same
:class:`~repro.smpi.comm.SimComm`, whatever the transport. On the
default ``"thread"`` transport ranks are threads of one interpreter —
fully deterministic and instrumentable, but GIL-capped. This module is
the ``"process"`` transport: each rank is an OS process (``fork``)
with true multi-core parallelism. It contributes only what really
differs between the two:

* :class:`ProcessChannel` — the four-method
  :class:`~repro.smpi.comm.Channel` over one ``multiprocessing.Queue``
  per world rank (a single FIFO per receiver keeps the MPI
  non-overtaking guarantee). numpy payloads at or above
  :data:`REPRO_SMPI_SHM_MIN` bytes (env-tunable, default 64 KiB) ride
  in ``multiprocessing.shared_memory`` segments instead of being
  pickled through the pipe — the classic large-``Dat``-halo fast path;
  everything else stays pickled. Either way the receiver owns a
  private copy (value semantics on send).
* Launch and supervision (:func:`run_ranks_process`) — fork, result
  pipes, process sentinels, heartbeat, watchdog, queue drain and the
  shared-memory prefix sweep.
* The environment resolvers (:func:`resolve_transport`,
  :func:`watchdog_seconds`, :func:`heartbeat_seconds`,
  :func:`shm_threshold`).

Matching, collectives, ``split``, traffic accounting and the fault
path are *not* here: they are written once in
:mod:`repro.smpi.comm`, so results, fold order and
``Traffic.structure_fingerprint()`` agree with the thread transport by
construction. Per-rank message logs are merged into the caller's
:class:`~repro.smpi.traffic.Traffic` in ascending rank order (the
canonical sender-ordered schedule).

Fault tolerance (the process transport is a first-class fault
domain):

* Each forked rank applies its inherited copy of the run's
  :class:`~repro.smpi.faults.FaultPlan`; the fire-once state is
  shipped back to the parent's plan object (in the final report, or a
  pre-death notice for hard crashes), so supervised retries replay
  clean. Message faults must pin ``src`` (matching runs on the
  sending rank); ``crash_hard`` faults SIGKILL the child to model
  real node death.
* Abnormal child death — a killing signal, a nonzero exit, a broken
  result pipe — is surfaced as a typed
  :class:`~repro.smpi.errors.ProcessRankDied` (a
  :class:`~repro.smpi.errors.RankFailure` subclass carrying rank,
  step when attributable, signal and exitcode), never as a bare hang;
  detection is immediate (process sentinel) and the world is aborted
  so surviving ranks wind down in milliseconds, not watchdog-timeouts.
* An optional per-child heartbeat (``heartbeat_s`` kwarg or
  :data:`HEARTBEAT_ENV`) reports a *wedged* rank — alive but silent on
  its channel — within the heartbeat deadline instead of waiting out
  the ``2×timeout`` watchdog. Disabled by default: ranks that
  legitimately compute for long stretches without communicating would
  be falsely reaped.
* Shared-memory segments are reclaimed on **every** crash path:
  receivers unlink on decode, the parent drains stray queue messages,
  and each run's segments carry a unique name prefix that the parent
  sweeps from ``/dev/shm`` after teardown — a child SIGKILLed between
  segment creation and enqueue still leaks nothing.

Deliberate non-parity (documented, enforced): the deterministic
scheduler and the wait-for-graph deadlock detector are thread-channel
features — requesting a scheduler with ``transport="process"`` raises
:class:`~repro.smpi.errors.TransportError`; a genuinely hung run is
caught by the heartbeat (if enabled) or the watchdog.

Telemetry is not a transport feature: a rank's recorder is bound on
the rank itself, so a program that wants its spans returns the
recorder with its result, the same on both transports (traced coupled
runs do). A rank that dies without reporting takes its spans with it.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import queue as _queue
import signal as _signal
import threading
import time
import uuid
from dataclasses import dataclass
from multiprocessing import connection as _mpconn
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.smpi.comm import _WAIT_STEP, Item, Match, SimComm, _find
from repro.smpi.errors import (
    ProcessRankDied,
    SimAbort,
    SimMPIError,
    TransportError,
)
from repro.smpi.threads import enter_launch
from repro.smpi.traffic import Traffic
from repro.telemetry.recorder import active_recorder, use_recorder

#: Environment variable naming the default transport for
#: :func:`repro.smpi.run_ranks` calls that do not pass one explicitly.
TRANSPORT_ENV = "REPRO_SMPI_TRANSPORT"

#: Environment variable overriding the shared-memory payload threshold
#: (bytes). numpy payloads at least this large travel via
#: ``multiprocessing.shared_memory`` instead of pickle-through-pipe.
SHM_MIN_ENV = "REPRO_SMPI_SHM_MIN"

#: Environment variable overriding the hung-child watchdog deadline
#: (seconds). The watchdog is how long the parent waits for every rank
#: process to report before declaring the stragglers hung; the default
#: is ``2 * timeout``. Long coupled jobs under a loaded machine can
#: legitimately outlive that — a service raises this instead of having
#: healthy children falsely reaped.
WATCHDOG_ENV = "REPRO_SMPI_WATCHDOG_S"

#: Environment variable enabling the per-child heartbeat (seconds).
#: When set (or when ``heartbeat_s`` is passed explicitly), each rank
#: process beats over its result pipe on every channel operation and
#: blocking-wait poll; a rank silent for longer than this deadline is
#: reaped and reported as a typed
#: :class:`~repro.smpi.errors.ProcessRankDied` instead of waiting out
#: the full watchdog. Unset / non-positive = disabled.
HEARTBEAT_ENV = "REPRO_SMPI_HEARTBEAT_S"

_DEFAULT_SHM_MIN = 64 * 1024

#: Transports :func:`resolve_transport` accepts.
TRANSPORTS = ("thread", "process")


def default_transport() -> str:
    """The transport used when ``run_ranks(transport=None)``.

    Reads :data:`TRANSPORT_ENV` (so a CI job or CLI wrapper can flip a
    whole test suite to the process transport without touching call
    sites) and falls back to ``"thread"``.
    """
    return os.environ.get(TRANSPORT_ENV, "thread")


def resolve_transport(name: str | None) -> str:
    """Validate an explicit transport name or resolve the default."""
    resolved = default_transport() if name is None else name
    if resolved not in TRANSPORTS:
        raise TransportError(
            f"unknown smpi transport {resolved!r}; expected one of "
            f"{TRANSPORTS} (explicit or via ${TRANSPORT_ENV})"
        )
    return resolved


def shm_threshold() -> int:
    """Current shared-memory payload threshold in bytes."""
    try:
        return int(os.environ.get(SHM_MIN_ENV, _DEFAULT_SHM_MIN))
    except ValueError:
        return _DEFAULT_SHM_MIN


def watchdog_seconds(timeout: float,
                     watchdog_s: float | None = None) -> float:
    """Resolve the hung-child watchdog deadline for one run.

    Precedence: explicit ``watchdog_s`` kwarg, then the
    :data:`WATCHDOG_ENV` environment variable, then ``2 * timeout``
    (the historical hard-coded factor). Values must be positive;
    unparsable or non-positive settings fall back to the default.
    """
    if watchdog_s is not None and watchdog_s > 0:
        return float(watchdog_s)
    env = os.environ.get(WATCHDOG_ENV)
    if env:
        try:
            value = float(env)
        except ValueError:
            value = 0.0
        if value > 0:
            return value
    return timeout * 2


def heartbeat_seconds(heartbeat_s: float | None = None) -> float | None:
    """Resolve the per-child heartbeat deadline for one run.

    Precedence: explicit ``heartbeat_s`` kwarg, then the
    :data:`HEARTBEAT_ENV` environment variable. ``None`` (the default)
    disables the heartbeat entirely — a rank that computes for minutes
    without communicating must not be falsely reaped. Non-positive or
    unparsable settings also disable it.
    """
    if heartbeat_s is not None:
        return float(heartbeat_s) if heartbeat_s > 0 else None
    env = os.environ.get(HEARTBEAT_ENV)
    if env:
        try:
            value = float(env)
        except ValueError:
            return None
        if value > 0:
            return value
    return None


# ---------------------------------------------------------------------------
# payload encoding: shared-memory hand-off for large numpy buffers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ShmRef:
    """Wire descriptor for an ndarray parked in a shared-memory segment.

    Ownership protocol: the **sender** creates the segment, copies the
    array in, unregisters it from its own resource tracker and closes
    its handle; the **receiver** (or the parent's post-run drain, for
    messages nobody received) attaches, copies out and unlinks. Exactly
    one unlink per segment, no tracker double-accounting.
    """

    name: str
    shape: tuple
    dtype: str
    nbytes: int


# Per-process shared-memory naming. Rank processes stamp every segment
# they create with a run+rank-unique prefix so the parent can sweep
# /dev/shm for leftovers after teardown — the only leak window the
# queue drain cannot cover is a child SIGKILLed between creating a
# segment and enqueueing its ref, and a name sweep closes it.
_SHM_NAME_PREFIX: str | None = None
_SHM_NAME_COUNTER = itertools.count()


def _set_shm_prefix(prefix: str | None) -> None:
    global _SHM_NAME_PREFIX
    _SHM_NAME_PREFIX = prefix


def _next_shm_name() -> str | None:
    """Next segment name under the current prefix (None = OS-chosen)."""
    if _SHM_NAME_PREFIX is None:
        return None
    return f"{_SHM_NAME_PREFIX}{next(_SHM_NAME_COUNTER)}"


def _sweep_shm_prefix(prefix: str) -> int:
    """Unlink every /dev/shm segment carrying this run's name prefix.

    Returns the number of segments reclaimed (0 on clean runs and on
    platforms without a /dev/shm directory).
    """
    root = "/dev/shm"
    swept = 0
    if not prefix or not os.path.isdir(root):  # pragma: no cover - non-Linux
        return 0
    try:
        names = os.listdir(root)
    except OSError:  # pragma: no cover - defensive
        return 0
    for fname in names:
        if not fname.startswith(prefix):
            continue
        try:
            seg = shared_memory.SharedMemory(name=fname)
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - permissions race
            continue
        seg.close()
        try:
            seg.unlink()
            swept += 1
        except FileNotFoundError:  # pragma: no cover - concurrent free
            pass
    return swept


def _encode_payload(obj: Any) -> Any:
    """Replace large simple-dtype ndarrays with shared-memory refs."""
    if isinstance(obj, np.ndarray):
        if (obj.nbytes >= shm_threshold() and obj.nbytes > 0
                and not obj.dtype.hasobject):
            arr = np.ascontiguousarray(obj)
            shm = shared_memory.SharedMemory(create=True, size=arr.nbytes,
                                             name=_next_shm_name())
            try:
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                # the receiver unlinks; keep the creator's tracker out of
                # it so nothing is double-freed at interpreter exit
                resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
                return _ShmRef(shm.name, arr.shape, arr.dtype.str,
                               int(arr.nbytes))
            finally:
                shm.close()
        return obj
    if isinstance(obj, tuple):
        return tuple(_encode_payload(o) for o in obj)
    if isinstance(obj, list):
        return [_encode_payload(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _encode_payload(v) for k, v in obj.items()}
    return obj


def _decode_payload(obj: Any) -> Any:
    """Materialize shared-memory refs back into owned ndarrays."""
    if isinstance(obj, _ShmRef):
        shm = shared_memory.SharedMemory(name=obj.name)
        try:
            src = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                             buffer=shm.buf)
            return src.copy()
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already freed
                pass
    if isinstance(obj, tuple):
        return tuple(_decode_payload(o) for o in obj)
    if isinstance(obj, list):
        return [_decode_payload(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _decode_payload(v) for k, v in obj.items()}
    return obj


def _release_payload(obj: Any) -> None:
    """Unlink shm segments of a message nobody will ever decode."""
    if isinstance(obj, _ShmRef):
        try:
            shm = shared_memory.SharedMemory(name=obj.name)
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already freed
            pass
        return
    if isinstance(obj, (tuple, list)):
        for o in obj:
            _release_payload(o)
    elif isinstance(obj, dict):
        for o in obj.values():
            _release_payload(o)


# ---------------------------------------------------------------------------
# the process channel
# ---------------------------------------------------------------------------

class ProcessChannel:
    """One rank's :class:`~repro.smpi.comm.Channel` between OS processes.

    Every communicator of a rank multiplexes over the rank's single
    queue, so a ``get`` may pull in items meant for a later ``get``;
    those wait, decoded, in a process-local buffer in arrival order.
    The heartbeat is beaten on every channel operation and every poll
    of a blocking wait, so a rank that communicates is never mistaken
    for a wedged one.

    The queue/event objects only need ``put``/``get``/``get_nowait``
    and ``set``/``is_set``, so tests can wire channels over plain
    ``queue.Queue``/``threading.Event`` to exercise the contract
    in-process.

    ``puts`` and ``pumps`` count the items this rank put on a queue and
    took off its own; a rank's final report carries both, and equal
    totals over all ranks prove every queue empty.
    """

    def __init__(self, rank: int, queues: Sequence[Any], abort: Any,
                 beat: Callable[[], None] = lambda: None) -> None:
        self._inbox = queues[rank]
        self._queues = queues  #: every rank's queue, indexed by world rank
        self._abort = abort
        self._beat = beat
        self._buffer: list[Item] = []
        self.puts = 0
        self.pumps = 0

    def put(self, dst_world: int, item: Item) -> None:
        self._beat()
        self._queues[dst_world].put(item[:4] + (_encode_payload(item[4]),))
        self.puts += 1

    def _pump(self, block: float = 0.0) -> bool:
        """Move at most one wire item into the buffer."""
        try:
            item = (self._inbox.get(timeout=block) if block > 0
                    else self._inbox.get_nowait())
        except _queue.Empty:
            return False
        self.pumps += 1
        self._buffer.append(item[:4] + (_decode_payload(item[4]),))
        return True

    def get(self, match: Match, deadline: float, edge: Any) -> Item:
        # ``edge`` is unused: there is no cross-process wait-for graph
        # (yet); a hung run is caught by the heartbeat or the watchdog
        while True:
            self._beat()
            i = _find(self._buffer, match)
            if i >= 0:
                return self._buffer.pop(i)
            if self._abort.is_set():
                raise SimAbort("run aborted by another rank")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            self._pump(min(_WAIT_STEP, remaining))

    def poll(self, match: Match) -> bool:
        self._beat()
        while self._pump():
            pass
        return _find(self._buffer, match) >= 0

    def close(self) -> None:
        self._abort.set()


# ---------------------------------------------------------------------------
# process lifecycle
# ---------------------------------------------------------------------------

class _ChildReporter:
    """Serialized writer for a child's result pipe.

    The pipe now carries framed messages — ``("hb",)`` heartbeats,
    ``("fault", notice)`` pre-death notices and the final report tuple
    — and the hard-crash handler may fire from the thick of a step, so
    every write goes through one lock and swallows a vanished parent.
    """

    def __init__(self, conn: Any, heartbeat: float | None) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        # beat at ~3x the deadline rate so one lost poll window can
        # never look like silence
        self._interval = heartbeat / 3.0 if heartbeat else None
        self._last = 0.0

    def send(self, frame: Any) -> None:
        self.send_bytes(pickle.dumps(frame))

    def send_bytes(self, blob: bytes) -> None:
        with self._lock:
            try:
                self._conn.send_bytes(blob)
            except Exception:  # pragma: no cover - parent already gone
                pass

    def maybe_beat(self) -> None:
        """Beat if heartbeats are on and the interval elapsed."""
        if self._interval is None:
            return
        now = time.monotonic()
        if now - self._last >= self._interval:
            self._last = now
            self.send(("hb",))


def _child_main(rank: int, nranks: int, fn: Callable[..., Any], args: tuple,
                queues: Sequence[Any], conn: Any, abort: Any, done: Any,
                timeout: float, fault_plan: Any = None,
                heartbeat: float | None = None,
                shm_prefix: str | None = None) -> None:
    """Rank body: run ``fn``, report over the pipe, wait, hard-exit.

    The explicit ``os._exit`` (after the parent signals ``done``)
    skips inherited atexit handlers and queue-feeder joins that would
    otherwise deadlock a fork child; ``done`` guarantees every queue
    message this rank produced has either been consumed by a peer or
    drained by the parent before the feeder threads are cancelled.

    The final report is a 5-tuple ``(status, payload, message_log,
    fault_state, (puts, pumps))`` — ``fault_state`` ships this child's
    fire-once fault-plan delta back to the parent (None when no plan
    is installed), and the counts are its channel's queue traffic
    (:class:`ProcessChannel`). A matched ``crash_hard`` never reaches the report: the
    bound handler sends a ``("fault", notice)`` frame and SIGKILLs the
    process, so the parent sees the notice followed by pipe EOF.
    """
    enter_launch(nranks, forked=True)
    if shm_prefix:
        _set_shm_prefix(f"{shm_prefix}r{rank}x")
    # the fork copied the launching thread's recorder binding; a rank
    # traces only when its program binds its own, as a rank thread does
    use_recorder(None)
    reporter = _ChildReporter(conn, heartbeat)
    traffic = Traffic()
    if fault_plan is not None:
        # the fork gave this child its own copy-on-write plan; record
        # firings separately so the parent merges only this child's
        # delta, and bind the hard-crash handler to this process
        fault_plan.begin_local_record()

        def _die_hard(crash_rank: int, step: int) -> None:
            reporter.send(("fault", {
                "rank": crash_rank, "step": step,
                "state": fault_plan.snapshot_state(),
            }))
            for q in queues:
                q.cancel_join_thread()
            os.kill(os.getpid(), _signal.SIGKILL)
            os._exit(1)  # pragma: no cover - unreachable backstop

        fault_plan.bind_hard_crash(_die_hard)
    channel = ProcessChannel(rank, queues, abort, reporter.maybe_beat)
    comm = SimComm(channel, range(nranks), rank, traffic, timeout, fault_plan)
    reporter.maybe_beat()  # mark liveness before any compute
    status: str
    payload: Any
    try:
        payload = fn(comm, *args)
        status = "ok"
    except SimAbort:
        status, payload = "abort", None
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        channel.close()
        status, payload = "err", exc
    fault_state = (fault_plan.snapshot_state()
                   if fault_plan is not None else None)
    queued = (channel.puts, channel.pumps)
    report = (status, payload, traffic.message_log(), fault_state, queued)
    try:
        blob = pickle.dumps(report)
    except Exception as exc:  # result/exception not picklable
        fallback = ("err",
                    SimMPIError(f"rank {rank} result not picklable: {exc!r}"),
                    traffic.message_log(), fault_state, queued)
        blob = pickle.dumps(fallback)
    reporter.send_bytes(blob)
    done.wait(timeout=max(timeout, 30.0))
    for q in queues:
        q.cancel_join_thread()
    os._exit(0)


def _all_consumed(reports: Sequence[tuple | None]) -> bool:
    """Did every rank report ``ok``, with every item any rank put on a
    queue taken off one? Then no queue and no feeder thread holds an
    item, and there is nothing to drain."""
    if any(r is None or r[0] != "ok" for r in reports):
        return False
    return sum(r[4][0] for r in reports) == sum(r[4][1] for r in reports)


def _drain_queues(queues: Sequence[Any]) -> None:
    """Empty every rank queue, unlinking stray shared-memory segments.

    Runs until two passes 10 ms apart find nothing, so items still in
    a dying rank's feeder thread land first."""
    empty_passes = 0
    while empty_passes < 2:
        got = False
        for q in queues:
            while True:
                try:
                    item = q.get_nowait()
                except _queue.Empty:
                    break
                except (OSError, ValueError):  # pragma: no cover - closed
                    break
                got = True
                _release_payload(item[4])
        if got:
            empty_passes = 0
        else:
            empty_passes += 1
            time.sleep(0.01)


def _signal_name(signum: int | None) -> str:
    if signum is None:
        return ""
    try:
        return _signal.Signals(signum).name
    except ValueError:  # pragma: no cover - unnamed signal
        return f"signal {signum}"


def run_ranks_process(nranks: int, fn: Callable[..., Any], args: tuple = (),
                      timeout: float = 120.0,
                      traffic: Traffic | None = None,
                      watchdog_s: float | None = None,
                      fault_plan: Any = None,
                      heartbeat_s: float | None = None) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` forked OS processes.

    The process-transport launcher behind
    :func:`repro.smpi.comm.run_ranks`: same return contract (per-rank
    results in rank order; the lowest-failing-rank exception re-raised
    on failure), but ranks execute with true multi-core parallelism.
    ``fork`` is required — test suites pass closures over mesh data,
    which spawn could not pickle — so this transport is POSIX-only.

    ``watchdog_s`` bounds how long the parent waits for all ranks to
    report before declaring the stragglers hung (default
    ``$REPRO_SMPI_WATCHDOG_S``, else ``2 * timeout``); see
    :func:`watchdog_seconds`.

    ``fault_plan`` installs a :class:`~repro.smpi.faults.FaultPlan`:
    each forked rank applies its inherited copy at step boundaries and
    on the send path, and the fire-once deltas are merged back into
    the caller's plan object (one merge per child, ascending rank
    order) so supervised retries replay clean. Plans are validated up
    front (:meth:`~repro.smpi.faults.FaultPlan.validate_for_transport`).

    ``heartbeat_s`` enables the per-child liveness heartbeat (default
    ``$REPRO_SMPI_HEARTBEAT_S``, else disabled); a rank silent past
    the deadline is killed and reported as
    :class:`~repro.smpi.errors.ProcessRankDied` with
    ``reason="heartbeat"``. Abnormal child death (SIGKILL, nonzero
    exit, broken pipe) is detected immediately via pipe EOF, aborts
    the surviving ranks and raises ``ProcessRankDied`` naming rank,
    signal and exit code.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only guard
        raise TransportError("process transport requires fork()")
    if fault_plan is not None:
        fault_plan.validate_for_transport("process")
    heartbeat = heartbeat_seconds(heartbeat_s)
    out_traffic = traffic if traffic is not None else Traffic()
    ctx = mp.get_context("fork")
    # start the shm resource tracker before forking so children inherit
    # a live tracker instead of racing to spawn their own
    resource_tracker.ensure_running()
    # run-unique shm name prefix: children stamp their segments with it
    # so the post-run sweep can reclaim anything a killed child created
    # but never enqueued
    shm_prefix = f"psmpi{os.getpid()}x{uuid.uuid4().hex[:8]}"
    queues = [ctx.Queue() for _ in range(nranks)]
    pipes = [ctx.Pipe(duplex=False) for _ in range(nranks)]
    abort = ctx.Event()
    done = ctx.Event()
    procs = [
        ctx.Process(target=_child_main,
                    args=(r, nranks, fn, args, queues, pipes[r][1], abort,
                          done, timeout, fault_plan, heartbeat, shm_prefix),
                    name=f"smpi-proc-{r}", daemon=True)
        for r in range(nranks)
    ]
    reports: list[tuple | None] = [None] * nranks
    #: rank -> pre-death ("fault") notice payload, for crash_hard
    death_notices: dict[int, dict] = {}
    #: ranks whose fault-state delta was already folded into the plan
    merged_ranks: set[int] = set()
    heartbeat_frames = 0
    wedged_ranks: set[int] = set()
    died_ranks: set[int] = set()

    def _merge_fault_state(r: int, state: Any) -> None:
        if fault_plan is not None and state and r not in merged_ranks:
            merged_ranks.add(r)
            fault_plan.merge_state(state)

    try:
        for p in procs:
            p.start()
        for _parent, child in pipes:
            child.close()
        conn_rank = {pipes[r][0]: r for r in range(nranks)}
        sentinel_rank = {procs[r].sentinel: r for r in range(nranks)}
        pending = set(range(nranks))
        watchdog = watchdog_seconds(timeout, watchdog_s)
        start = time.monotonic()
        deadline = start + watchdog
        last_beat = {r: start for r in range(nranks)}
        # grace between "went silent" and the kill: long enough for a
        # wedged-but-aborted rank to report SimAbort, short enough that
        # the typed error still lands well inside the deadline
        hb_grace = min(2.0, heartbeat) if heartbeat is not None else 0.0

        def _read_frame(r: int, conn: Any, now: float) -> bool:
            """Read one frame off rank ``r``'s pipe; False on EOF."""
            nonlocal heartbeat_frames
            try:
                frame = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):
                return False
            if frame[0] == "hb":
                last_beat[r] = now
                heartbeat_frames += 1
            elif frame[0] == "fault":
                # pre-death notice from a crash_hard about to SIGKILL;
                # the sentinel fires right after
                death_notices[r] = frame[1]
                _merge_fault_state(r, frame[1].get("state"))
                last_beat[r] = now
            else:
                reports[r] = frame
                pending.discard(r)
                if len(frame) >= 4:
                    _merge_fault_state(r, frame[3])
            return True

        def _mark_died(r: int) -> None:
            """Rank ``r``'s process is gone with no final report.

            Drain any frames it flushed before dying (a crash_hard
            notice, trailing heartbeats); if that still yields no
            final report, record the abnormal death and abort the
            survivors immediately — they must not block until the
            watchdog on a peer that no longer exists.
            """
            conn = pipes[r][0]
            now = time.monotonic()
            while r in pending and conn.poll(0):
                if not _read_frame(r, conn, now):
                    break
            if r in pending:
                died_ranks.add(r)
                reports[r] = None
                pending.discard(r)
                abort.set()

        def _pump_frames(until: float) -> None:
            """Read frames until the deadline or all ranks reported.

            Waits on each pending rank's result pipe *and* its process
            sentinel: pipe EOF alone cannot signal death, because
            every fork child inherits every pipe's write end, so a
            SIGKILLed rank's pipe stays open in its siblings.
            """
            while pending and time.monotonic() < until:
                wait_t = min(0.2, max(0.0, until - time.monotonic()))
                if heartbeat is not None:
                    wait_t = min(wait_t, heartbeat / 4.0)
                ready = _mpconn.wait(
                    [pipes[r][0] for r in pending]
                    + [procs[r].sentinel for r in pending],
                    timeout=wait_t)
                now = time.monotonic()
                dead_now: list[int] = []
                for obj in ready:
                    r = conn_rank.get(obj)
                    if r is None:
                        dead_now.append(sentinel_rank[obj])
                        continue
                    if r in pending and not _read_frame(r, pipes[r][0], now):
                        dead_now.append(r)
                for r in sorted(set(dead_now)):
                    if r in pending:
                        _mark_died(r)
                if heartbeat is not None:
                    now = time.monotonic()
                    for r in sorted(pending):
                        silent = now - last_beat[r]
                        if silent <= heartbeat:
                            continue
                        # first offense: wake it (a blocked rank reports
                        # SimAbort within one poll step) ...
                        abort.set()
                        if silent <= heartbeat + hb_grace:
                            continue
                        # ... still silent past the grace: wedged; kill
                        # it so the run fails typed instead of hanging
                        if procs[r].is_alive():
                            procs[r].kill()
                        wedged_ranks.add(r)
                        reports[r] = None
                        pending.discard(r)

        _pump_frames(deadline)
        if pending:
            # watchdog expired: wake blocked ranks, give them a short
            # grace to report SimAbort, then declare them hung
            abort.set()
            _pump_frames(time.monotonic() + 5.0)
            for r in pending:
                reports[r] = ("hung", None, [], None)
            pending.clear()
        if not _all_consumed(reports):
            _drain_queues(queues)
        done.set()
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
                p.join(timeout=5.0)
    finally:
        done.set()
        for p in procs:
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
        for q in queues:
            q.close()
        for parent, _child in pipes:
            parent.close()
        for p in procs:
            if p.pid is not None:  # never-started procs cannot be joined
                p.join(timeout=5.0)
        # last-resort shm reclamation: segments created by a killed
        # child that never made it into a queue (the drain can't see
        # those) still carry this run's name prefix
        swept = _sweep_shm_prefix(shm_prefix)

    rec = active_recorder()
    if rec is not None:
        if heartbeat_frames:
            rec.counter("smpi.process.heartbeats", heartbeat_frames)
        if wedged_ranks:
            rec.counter("smpi.process.heartbeat_reaped", len(wedged_ranks))
        if died_ranks:
            rec.counter("smpi.process.died", len(died_ranks))
        if swept:
            rec.counter("smpi.process.shm_swept", swept)

    # merge per-rank logs in ascending rank order: the canonical
    # sender-ordered schedule, deterministic run to run
    for report in reports:
        if report is not None:
            out_traffic.merge_log(report[2])

    failures: list[tuple[int, BaseException]] = []
    for r, report in enumerate(reports):
        if r in wedged_ranks:
            failures.append((r, ProcessRankDied(
                f"rank {r} sent no heartbeat for more than "
                f"{heartbeat:.1f}s (${HEARTBEAT_ENV} / heartbeat_s) and "
                f"was killed — wedged rank", rank=r, signal=None,
                exitcode=procs[r].exitcode, reason="heartbeat")))
            continue
        status = report[0] if report is not None else "died"
        if status == "err":
            failures.append((r, report[1]))
        elif status == "died":
            code = procs[r].exitcode
            signum = -code if (code is not None and code < 0) else None
            notice = death_notices.get(r)
            if notice is not None:
                failures.append((r, ProcessRankDied(
                    f"rank {r} process killed by injected crash_hard at "
                    f"step {notice.get('step')}"
                    + (f" ({_signal_name(signum)})" if signum else ""),
                    rank=r, step=notice.get("step"), signal=signum,
                    exitcode=code, reason="exit")))
            else:
                detail = (f"killed by {_signal_name(signum)}" if signum
                          else f"exitcode {code}")
                failures.append((r, ProcessRankDied(
                    f"rank {r} process died without reporting ({detail})",
                    rank=r, signal=signum, exitcode=code, reason="exit")))
        elif status == "hung":
            failures.append((r, ProcessRankDied(
                f"rank {r} failed to terminate within the {watchdog:.1f}s "
                f"watchdog (${WATCHDOG_ENV} / watchdog_s) — deadlock? "
                f"(process transport has no wait-for-graph detector)",
                rank=r, exitcode=procs[r].exitcode, reason="watchdog")))
    if failures:
        # abnormal deaths are the root cause — a peer's secondary
        # timeout must not shadow them; then lowest rank first, as on
        # the thread transport
        failures.sort(key=lambda pair: (
            0 if (pair[0] in died_ranks or pair[0] in wedged_ranks) else 1,
            pair[0]))
        raise failures[0][1]
    if any(report is not None and report[0] == "abort" for report in reports):
        # every rank either aborted or succeeded, yet nobody reported
        # the original error (e.g. it died unpicklably)
        raise SimMPIError("run aborted but no rank reported a failure")
    return [report[1] for report in reports]  # type: ignore[index]
