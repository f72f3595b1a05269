"""The per-rank span recorder — the telemetry subsystem's hot path.

Every instrumented layer (op2 par_loops and plans, smpi messages and
collectives, coupler phases, hydra steps) funnels into one
:class:`RankRecorder` per simulated-MPI rank (= thread). The recorder
keeps two things:

* **spans** — ``(name, cat, t0, t1, args)`` complete events on this
  rank's timeline (``perf_counter`` seconds; ranks share one process
  clock, so cross-rank merging needs no clock synchronization);
* **counters** — monotonically accumulated named values.

Per-kernel cost is not stored: :func:`loop_stats` computes it from the
``op2.compute`` / ``op2.halo`` spans every par_loop records. The phase
totals a run reports (``HydraSolver.timers``, the CU serve seconds)
are plain dicts fed by :func:`timed`, which also records the span.

Cost discipline: when tracing is off, instrumented call sites reduce to
one thread-local attribute read returning ``None`` (``active_recorder``)
— the overhead-guard test pins this. The bound recorder is the only
tracing state: a thread traces exactly when one is bound to it, either
by each rank of a traced coupled run (which returns it with its report,
on either smpi transport) or by the :func:`tracing` context manager for
serial code.
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
    """Accumulated cost of one kernel's par_loops (see :func:`loop_stats`)."""

    calls: int = 0
    compute_seconds: float = 0.0
    halo_seconds: float = 0.0
    elements: int = 0

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.halo_seconds


def loop_stats(spans) -> dict[str, LoopStat]:
    """Per-kernel cost, computed from par_loop spans.

    Every ``op2.compute`` span is one call of the kernel it names and
    carries its element count; an ``op2.halo`` span
    of the same name adds that call's halo refresh. Span durations are
    exact differences of clock readings, so these totals equal the
    :meth:`~repro.telemetry.timeline.Timeline.breakdown` buckets
    exactly, in any summation order.
    """
    out: dict[str, LoopStat] = {}
    for s in spans:
        if s.cat == "op2.compute":
            st = out.setdefault(s.name, LoopStat())
            st.calls += 1
            st.compute_seconds += s.duration
            st.elements += (s.args or {}).get("elements", 0)
        elif s.cat == "op2.halo":
            out.setdefault(s.name, LoopStat()).halo_seconds += s.duration
    return out


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
    """Span/counter sink for one rank (one thread)."""

    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        self.spans: list[SpanEvent] = []
        self.counters: dict[str, float] = {}
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

    # -- views ---------------------------------------------------------
    @property
    def loop_stats(self) -> dict[str, LoopStat]:
        """Per-kernel cost on this rank (:func:`loop_stats` of the spans)."""
        return loop_stats(self.spans)

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
        self._open = 0


# --------------------------------------------------------------------------
# thread-local binding
# --------------------------------------------------------------------------


class _Binding(threading.local):
    #: this thread's recorder; the class default makes the unbound read
    #: a plain attribute lookup
    recorder: RankRecorder | None = None


_tls = _Binding()


def use_recorder(rec: RankRecorder | None) -> RankRecorder | None:
    """Bind ``rec`` (None = unbind) to this thread; returns the previous."""
    prev = _tls.recorder
    _tls.recorder = rec
    return prev


def active_recorder() -> RankRecorder | None:
    """This thread's bound recorder, or None when it is not tracing.

    The disabled-mode fast path: one thread-local read, no allocation.
    """
    return _tls.recorder


def span(name: str, cat: str, **args):
    """Module-level span helper: no-op context when tracing is off."""
    rec = _tls.recorder
    if rec is None:
        return _NULL_SPAN
    return _SpanHandle(rec, name, cat, args)


@contextmanager
def timed(totals: dict[str, float], name: str, cat: str | None = None):
    """Add the body's wall seconds to ``totals[name]``.

    With a ``cat`` and a bound recorder the same interval is also
    recorded as a ``name`` span under ``cat``, so a reported phase total
    and its spans come from one pair of clock readings.
    """
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t1 = time.perf_counter()
        totals[name] = totals.get(name, 0.0) + (t1 - t0)
        if cat is not None:
            rec = _tls.recorder
            if rec is not None:
                rec.add_span(name, cat, t0, t1)


@contextmanager
def tracing(rank: int = 0):
    """Trace the current thread: bind a fresh recorder.

    Serial convenience for tests, benchmarks and scripts::

        with tracing() as rec:
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
