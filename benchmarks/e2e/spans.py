"""In-memory span recorder for the benchmark's traced pass.

Used only by benchmark files, around their calls into the program's
layers; spans inside the program are a later issue. One root span per
workload, children around driver construction, ``run(0)``,
``run(nsteps)`` and every layer probe. Spans are kept in memory and
written into ``BENCH_e2e.json`` under ``trace`` when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanRecorder:
    """Spans of one workload's traced pass: name, start, end, parent."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as a child of the innermost open span."""
        span = {"id": len(self.spans), "name": name,
                "workload": self.workload,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def child_coverage(spans: list[dict], root_id: int = 0) -> float:
    """Share of a span's duration that its direct children cover."""
    root = spans[root_id]
    covered = sum(duration(s) for s in spans if s["parent"] == root_id)
    return covered / duration(root) if duration(root) > 0 else 0.0
