"""One OpenMP thread budget per rank.

Every compiled region — the native backend's loop wrappers and the
coupler's gather kernel — runs :func:`omp_threads` threads. As in the
paper's OP2 CPU runs, ranks × threads fill the node, and the count
follows from what the launch already fixes:

* ``OMP_NUM_THREADS`` (its first entry), when set: the OpenMP
  deployment setting;
* otherwise the usable cores (``os.sched_getaffinity``) shared out
  over the ranks of the :func:`~repro.smpi.run_ranks` call the caller
  runs in, at least one each; outside any launch the caller is one
  rank;
* then the fork guard: a forked rank whose parent process already ran
  a compiled region with more than one thread runs one. libgomp's
  thread pool does not survive ``fork``, so a team of more than one in
  the child would hang. Each clamp bumps the
  ``smpi.process.omp_clamped`` telemetry counter and warns once per
  process.

The compiled callers take the count from :func:`region_threads`. The
native backend does so when it prepares a loop, so a loop prepared
before the budget changes keeps the count it was prepared with.
"""

from __future__ import annotations

import os
import threading
import warnings

from repro.telemetry.recorder import active_recorder

#: per thread: ``nranks`` of the launch this thread runs a rank of
_launch = threading.local()
#: this process ran a compiled region with more than one thread
_team_entered = False
#: this process is a rank forked after its parent ran such a region
_fork_guarded = False
_warned = False
_warn_lock = threading.Lock()


def enter_launch(nranks: int, forked: bool = False) -> None:
    """Record that the calling thread runs one of ``nranks`` ranks;
    ``forked`` (a process-transport rank) arms the fork guard when the
    parent process had entered a multi-threaded region."""
    global _fork_guarded
    _launch.nranks = nranks
    if forked:
        _fork_guarded = _team_entered


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _env_threads() -> int | None:
    first = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(first) if first.isdigit() and int(first) > 0 else None


def omp_threads() -> int:
    """The OpenMP thread count of a compiled region entered now."""
    threads = (_env_threads()
               or max(1, usable_cores() // getattr(_launch, "nranks", 1)))
    if threads > 1 and _fork_guarded:
        _count_clamp(threads)
        return 1
    return threads


def region_threads() -> int:
    """:func:`omp_threads` for a compiled region the caller is about to
    enter; a team of more than one arms the fork guard of the ranks
    this process forks later."""
    global _team_entered
    threads = omp_threads()
    if threads > 1:
        _team_entered = True
    return threads


def _count_clamp(threads: int) -> None:
    global _warned
    rec = active_recorder()
    if rec is not None:
        rec.counter("smpi.process.omp_clamped")
    with _warn_lock:
        if _warned:
            return
        _warned = True
    warnings.warn(
        f"forked rank runs 1 OpenMP thread instead of {threads}: its parent "
        f"process ran a multi-threaded compiled region, and libgomp's thread "
        f"pool does not survive fork", RuntimeWarning, stacklevel=3)
