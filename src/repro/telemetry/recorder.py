"""The per-rank span recorder — the telemetry subsystem's hot path.

Every instrumented layer (op2 par_loops and plans, smpi messages and
collectives, coupler phases, hydra steps, util timers) funnels into one
:class:`RankRecorder` per simulated-MPI rank (= thread). The recorder
keeps three things:

* **spans** — ``(name, cat, t0, t1, args)`` complete events on this
  rank's timeline (``perf_counter`` seconds; ranks share one process
  clock, so cross-rank merging needs no clock synchronization);
* **counters** — monotonically accumulated named values;
* **loop_stats** — per-kernel aggregates (calls / compute / halo /
  elements), the single source of truth behind the legacy
  :class:`~repro.op2.profiling.LoopProfile` facade.

Cost discipline: when tracing is off, instrumented call sites reduce to
one thread-local attribute read returning ``None`` (``active_recorder``)
— the overhead-guard test pins this. The bound recorder is the only
tracing state: a thread traces exactly when :func:`active_recorder`
returns one. A tracing recorder is *bound* either by each rank of a
traced coupled run (which returns it with its report, on either smpi
transport) or by the :func:`tracing` context manager for serial code.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanEvent:
    """One complete (or instant, when ``t1 == t0``) event on a rank."""

    name: str
    cat: str
    t0: float
    t1: float
    rank: int = 0
    args: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def is_instant(self) -> bool:
        return self.t1 == self.t0


@dataclass
class LoopStat:
    """Accumulated cost of one kernel's par_loops on one rank.

    This is the record type :class:`~repro.op2.profiling.LoopProfile`
    exposes (its legacy name ``LoopRecord`` aliases it).
    """

    calls: int = 0
    compute_seconds: float = 0.0
    halo_seconds: float = 0.0
    elements: int = 0

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.halo_seconds


class _SpanHandle:
    """Context manager recording one span into its recorder on exit."""

    __slots__ = ("_rec", "name", "cat", "args", "t0")

    def __init__(self, rec: "RankRecorder", name: str, cat: str,
                 args: dict) -> None:
        self._rec = rec
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_SpanHandle":
        self._rec._open += 1
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        rec = self._rec
        rec._open -= 1
        rec.spans.append(SpanEvent(self.name, self.cat, self.t0, t1,
                                   rec.rank, self.args or None))


class _NullSpan:
    """No-op stand-in returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class RankRecorder:
    """Span/counter/loop-stat sink for one rank (one thread)."""

    def __init__(self, rank: int = 0, tracing: bool = True) -> None:
        self.rank = rank
        #: spans (and send instants) are only recorded when True;
        #: loop_stats always accumulate (the profiling facade needs them)
        self.tracing = tracing
        self.spans: list[SpanEvent] = []
        self.counters: dict[str, float] = {}
        self.loop_stats: dict[str, LoopStat] = {}
        self._open = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, cat: str, **args) -> _SpanHandle:
        """Context manager: times its body as one span."""
        return _SpanHandle(self, name, cat, args)

    def add_span(self, name: str, cat: str, t0: float, t1: float,
                 **args) -> None:
        """Record an already-timed interval."""
        self.spans.append(SpanEvent(name, cat, t0, t1, self.rank,
                                    args or None))

    def instant(self, name: str, cat: str, **args) -> None:
        """Record a point event (exported as a Chrome instant mark)."""
        t = time.perf_counter()
        self.spans.append(SpanEvent(name, cat, t, t, self.rank,
                                    args or None))

    def counter(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def record_loop(self, kernel_name: str, compute: float, halo: float,
                    elements: int, t0: float | None = None) -> None:
        """One par_loop's cost: aggregates always, spans when given ``t0``.

        The span pair is synthesized from the same numbers the
        aggregates receive (halo ``[t0, t0+halo]``, compute
        ``[t0+halo, t0+halo+compute]``), so the metrics breakdown and
        the :class:`~repro.op2.profiling.LoopProfile` facade agree
        exactly, not just to measurement noise.
        """
        st = self.loop_stats.get(kernel_name)
        if st is None:
            st = self.loop_stats[kernel_name] = LoopStat()
        st.calls += 1
        st.compute_seconds += compute
        st.halo_seconds += halo
        st.elements += elements
        if t0 is not None:
            if halo > 0.0:
                self.spans.append(SpanEvent(kernel_name, "op2.halo",
                                            t0, t0 + halo, self.rank))
            self.spans.append(SpanEvent(
                kernel_name, "op2.compute", t0 + halo, t0 + halo + compute,
                self.rank, {"elements": elements}))

    # -- health --------------------------------------------------------
    def validate(self) -> None:
        """Raise if spans are unbalanced or any duration is negative."""
        if self._open != 0:
            raise ValueError(
                f"rank {self.rank}: {self._open} span(s) still open — "
                f"every start needs a matching end"
            )
        for s in self.spans:
            if s.t1 < s.t0:
                raise ValueError(
                    f"rank {self.rank}: span {s.name!r} ({s.cat}) has "
                    f"negative duration {s.t1 - s.t0:.3e}s"
                )

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.loop_stats.clear()
        self._open = 0


# --------------------------------------------------------------------------
# thread-local binding
# --------------------------------------------------------------------------

_tls = threading.local()


def current_recorder() -> RankRecorder:
    """This thread's recorder (auto-created, tracing off, on first use)."""
    rec = getattr(_tls, "recorder", None)
    if rec is None:
        rec = RankRecorder(rank=0, tracing=False)
        _tls.recorder = rec
    return rec


def use_recorder(rec: RankRecorder) -> RankRecorder | None:
    """Bind ``rec`` as this thread's recorder; returns the previous one."""
    prev = getattr(_tls, "recorder", None)
    _tls.recorder = rec
    return prev


def active_recorder() -> RankRecorder | None:
    """The thread's recorder iff tracing is enabled on it, else None.

    This is the disabled-mode fast path: one attribute read and a flag
    check, no allocation.
    """
    rec = getattr(_tls, "recorder", None)
    if rec is not None and rec.tracing:
        return rec
    return None


def span(name: str, cat: str, **args):
    """Module-level span helper: no-op context when tracing is off."""
    rec = active_recorder()
    if rec is None:
        return _NULL_SPAN
    return _SpanHandle(rec, name, cat, args)


@contextmanager
def tracing(rank: int = 0):
    """Trace the current thread: bind a fresh tracing recorder.

    Serial convenience for tests, benchmarks and scripts::

        with telemetry.tracing() as rec:
            app.iterate(5)
        rec.validate()
        timeline = merge_timelines([rec])

    Traced coupled runs do the multi-rank equivalent themselves: every
    rank binds its own recorder and returns it with its report.
    """
    rec = RankRecorder(rank=rank)
    prev = use_recorder(rec)
    try:
        yield rec
    finally:
        use_recorder(prev)
