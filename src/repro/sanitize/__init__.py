"""Concurrency-correctness tooling for the simulated cluster.

One import surface for the three sanitizers that guard the paper's
correctness invariants:

* **Deterministic scheduling** —
  :class:`~repro.smpi.schedule.DeterministicScheduler` serializes rank
  threads under a seeded, replayable interleaving;
  :func:`~repro.smpi.schedule.sweep_schedules` runs N seeds and hands
  back per-run :class:`~repro.smpi.schedule.ScheduleRun` ledgers whose
  fingerprints expose schedule-dependent message orders.
* **Deadlock detection** — every blocking SMPI operation registers a
  :class:`~repro.smpi.deadlock.WaitEdge` in a
  :class:`~repro.smpi.deadlock.WaitRegistry`; a genuine wait-for cycle
  (or a wait on an exited rank) raises
  :class:`~repro.smpi.errors.DeadlockError` naming the full cycle in
  milliseconds instead of ripening into the 120 s watchdog.
* **Race sanitizing** — the
  :class:`~repro.op2.backends.sanitizer.SanitizerBackend` OP2 backend
  audits the one block plan the compiled ``native`` backend executes
  (the same cached object) on every run, per-block write-sets and
  partition, raising :class:`~repro.op2.backends.sanitizer.RaceError`
  if two blocks of one color write a dat entry, then runs the plan in
  its block-color order.

This package is a pure façade: the implementations live in
``repro.smpi`` and ``repro.op2.backends`` (which must not depend on
this package), re-exported here so tests and the ``repro sanitize``
CLI have one import point.
"""

from repro.op2.backends.sanitizer import (
    RaceError,
    RaceFinding,
    SanitizerBackend,
    check_block_plan,
)
from repro.smpi.deadlock import DeadlockError, WaitEdge, WaitRegistry, format_cycle
from repro.smpi.schedule import DeterministicScheduler, ScheduleRun, sweep_schedules

__all__ = [
    "DeadlockError",
    "DeterministicScheduler",
    "RaceError",
    "RaceFinding",
    "SanitizerBackend",
    "ScheduleRun",
    "WaitEdge",
    "WaitRegistry",
    "check_block_plan",
    "format_cycle",
    "sweep_schedules",
]
