"""Deterministic cooperative scheduling of simulated-MPI ranks.

With the default free-threaded :func:`~repro.smpi.comm.run_ranks`, the
OS decides how rank threads interleave, so an ``ANY_SOURCE`` receive
or a ``probe`` race reproduces only by luck. The
:class:`DeterministicScheduler` removes the OS from the picture: it
hands a single *baton* around, so exactly one rank thread executes at
a time, and every scheduling decision — who runs next at each yield
point (send, probe, blocking wait) — is drawn from a seeded RNG over
the *sorted* candidate set. Same seed, same interleaving, byte for
byte; different seeds explore different message orders, which is what
:func:`sweep_schedules` automates for tests.

The scheduler is also a deadlock oracle: when no rank is runnable and
at least one is blocked, nothing can ever change again (there is no
hidden concurrency), so it reports the full wait-for cycle
immediately via :class:`~repro.smpi.errors.DeadlockError`.

A scheduler instance drives exactly one :func:`run_ranks` call.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.smpi.comm import DEFAULT_TIMEOUT, run_ranks
from repro.smpi.deadlock import WaitEdge, format_cycle
from repro.smpi.errors import DeadlockError, SimAbort
from repro.smpi.traffic import Traffic

__all__ = ["DeterministicScheduler", "ScheduleRun", "sweep_schedules"]

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


class DeterministicScheduler:
    """Seeded, replayable serialization of rank threads.

    Pass an instance to ``run_ranks(..., scheduler=...)``. Rank
    threads park until granted the baton; the communicator layer calls
    :meth:`maybe_yield` at message sends/probes and :meth:`wait_until`
    at blocking operations, and the scheduler picks the next runnable
    rank with ``random.Random(seed)``. Scheduling only starts once all
    ranks have registered, so thread start-up order cannot leak into
    the schedule.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._nranks: int | None = None
        self._abort: threading.Event | None = None
        self._states: dict[int, str] = {}
        self._preds: dict[int, Callable[[], bool]] = {}
        self._edges: dict[int, WaitEdge] = {}
        self._idents: dict[int, int] = {}
        self._current: int | None = None
        self._cycle: list[WaitEdge] | None = None
        self._cycle_message = ""
        self._attached = False

    # -- run_ranks lifecycle -------------------------------------------
    def attach(self, nranks: int, abort: threading.Event) -> None:
        with self._cond:
            if self._attached:
                raise RuntimeError(
                    "a DeterministicScheduler drives exactly one run_ranks "
                    "call; create a fresh instance (or use sweep_schedules)"
                )
            self._attached = True
            self._nranks = nranks
            self._abort = abort

    def thread_started(self, rank: int) -> None:
        """Register this thread as ``rank`` and park until scheduled."""
        with self._cond:
            self._idents[threading.get_ident()] = rank
            self._states[rank] = _READY
            if len(self._states) == self._nranks:
                self._schedule_locked()
            self._park_locked(rank)

    def thread_finished(self, rank: int) -> None:
        with self._cond:
            self._states[rank] = _DONE
            self._preds.pop(rank, None)
            self._edges.pop(rank, None)
            if self._current == rank:
                self._current = None
            self._schedule_locked()

    def abort_all(self) -> None:
        """Wake every parked thread so it can observe the abort event."""
        with self._cond:
            self._cond.notify_all()

    # -- scheduling points ----------------------------------------------
    def maybe_yield(self) -> None:
        """Optional preemption point: the RNG may hand the baton over."""
        with self._cond:
            rank = self._me()
            self._states[rank] = _READY
            self._current = None
            self._schedule_locked()
            self._park_locked(rank)

    def wait_until(self, predicate: Callable[[], bool],
                   edge: WaitEdge) -> None:
        """Block until ``predicate()`` holds (also a preemption point).

        The predicate must be a GIL-atomic snapshot (no lock taking);
        it is re-evaluated by whichever thread runs the scheduler.
        On a world-wide dead end, raises :class:`DeadlockError` with
        the registered ``edge``s of every blocked rank.
        """
        with self._cond:
            rank = self._me()
            self._states[rank] = _BLOCKED
            self._preds[rank] = predicate
            self._edges[rank] = edge
            self._current = None
            self._schedule_locked()
            try:
                self._park_locked(rank)
            finally:
                self._preds.pop(rank, None)
                self._edges.pop(rank, None)

    # -- internals -------------------------------------------------------
    def _me(self) -> int:
        return self._idents[threading.get_ident()]

    def _park_locked(self, rank: int) -> None:
        while self._current != rank:
            if self._abort is not None and self._abort.is_set():
                raise SimAbort("run aborted by another rank")
            if self._cycle is not None and self._states.get(rank) == _BLOCKED:
                raise DeadlockError(self._cycle_message, self._cycle)
            self._cond.wait(0.1)
        self._states[rank] = _RUNNING

    def _schedule_locked(self) -> None:
        if self._current is not None:
            return
        if self._nranks is None or len(self._states) < self._nranks:
            return  # wait for every rank to register (deterministic start)
        if self._abort is not None and self._abort.is_set():
            self._cond.notify_all()
            return
        runnable = [r for r, s in self._states.items() if s == _READY]
        runnable += [r for r, s in self._states.items()
                     if s == _BLOCKED and self._preds[r]()]
        if not runnable:
            blocked = sorted(r for r, s in self._states.items()
                             if s == _BLOCKED)
            if blocked:
                # single-threaded world with nobody runnable: permanent
                done = {r for r, s in self._states.items() if s == _DONE}
                self._cycle = [self._edges[r] for r in blocked]
                self._cycle_message = format_cycle(self._cycle, done)
                self._cond.notify_all()
            return
        self._current = self._rng.choice(sorted(runnable))
        self._cond.notify_all()


@dataclass
class ScheduleRun:
    """Outcome of one seeded run inside a schedule sweep."""

    seed: int
    results: list
    traffic: Any  #: the run's Traffic ledger

    @property
    def fingerprint(self) -> str:
        """Stable hash of the ordered message ledger."""
        return self.traffic.fingerprint()


def sweep_schedules(nranks: int, fn: Callable[..., Any], args: tuple = (),
                    nschedules: int = 8, base_seed: int = 0,
                    timeout: float | None = None) -> list[ScheduleRun]:
    """Run ``fn`` under ``nschedules`` different deterministic schedules.

    Each seed gets a fresh scheduler and traffic ledger; compare the
    returned fingerprints to see whether (and how) message order
    depends on the interleaving. Re-running with the same
    ``base_seed`` reproduces every run byte-for-byte.
    """
    timeout = DEFAULT_TIMEOUT if timeout is None else timeout
    runs: list[ScheduleRun] = []
    for seed in range(base_seed, base_seed + nschedules):
        traffic = Traffic()
        results = run_ranks(nranks, fn, args=args, timeout=timeout,
                            traffic=traffic,
                            scheduler=DeterministicScheduler(seed))
        runs.append(ScheduleRun(seed=seed, results=results, traffic=traffic))
    return runs
