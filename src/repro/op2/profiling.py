"""Per-loop profiling: where does the time go?

OP2's generated code is instrumented per loop; the paper's analysis
(compute vs halo vs coupler) starts from exactly this breakdown. When
``Config.profile`` is on (or the thread is tracing), every par_loop
records its wall-clock under its kernel name, split into halo-exchange
time and compute time.

Since the telemetry subsystem landed, the numbers live in the thread's
:class:`~repro.telemetry.recorder.RankRecorder` (``loop_stats``) — one
source of truth shared with trace spans and metrics summaries — and
:class:`LoopProfile` is a thin view over it that preserves the original
API (``records``, ``record``, ``top``, ``total_seconds``, ``report``,
``reset``).
"""

from __future__ import annotations

from repro.telemetry.recorder import (LoopStat, RankRecorder,
                                      current_recorder)

#: Legacy name — the record type now lives in repro.telemetry.
LoopRecord = LoopStat


class LoopProfile:
    """Per-kernel cost view over a telemetry recorder's ``loop_stats``.

    By default binds to the calling thread's recorder, so profiles keep
    their historical per-rank (= per-thread) scoping.
    """

    def __init__(self, recorder: RankRecorder | None = None) -> None:
        self._recorder = recorder

    @property
    def recorder(self) -> RankRecorder:
        return self._recorder if self._recorder is not None \
            else current_recorder()

    @property
    def records(self) -> dict[str, LoopRecord]:
        return self.recorder.loop_stats

    def record(self, kernel_name: str, compute: float, halo: float,
               elements: int) -> None:
        self.recorder.record_loop(kernel_name, compute, halo, elements)

    def top(self, n: int = 10) -> list[tuple[str, LoopRecord]]:
        """The n most expensive kernels, by total time."""
        return sorted(self.records.items(),
                      key=lambda kv: kv[1].total_seconds, reverse=True)[:n]

    def total_seconds(self) -> float:
        return sum(r.total_seconds for r in self.records.values())

    def report(self, n: int = 10) -> str:
        """Aligned text report of the top kernels."""
        from repro.util.tables import format_table

        total = self.total_seconds()
        rows = []
        for name, rec in self.top(n):
            share = 100.0 * rec.total_seconds / total if total else 0.0
            rows.append([name, rec.calls, rec.elements,
                         rec.compute_seconds * 1e3, rec.halo_seconds * 1e3,
                         share])
        return format_table(
            ["kernel", "calls", "elements", "compute ms", "halo ms", "%"],
            rows, title="par_loop profile (this rank)", floatfmt=".2f")

    def reset(self) -> None:
        self.records.clear()


def current_profile() -> LoopProfile:
    """This thread's loop profile (a view over its telemetry recorder)."""
    return LoopProfile()


def reset_profile() -> None:
    current_profile().reset()
