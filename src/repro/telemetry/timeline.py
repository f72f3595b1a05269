"""Cross-rank merge: many :class:`RankRecorder`s → one :class:`Timeline`.

:func:`merge_timelines` folds the recorders every rank of a traced run
returns into a single, sorted event stream with aggregation views — the
per-category table, the paper's compute/halo/coupler breakdown, the
per-kernel table, and a timestamp-free structural fingerprint for
determinism regression tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.telemetry.recorder import LoopStat, SpanEvent, loop_stats

#: Categories whose span time counts as "coupler" in the paper-style
#: breakdown. Nested detail categories (coupler.search / coupler.interp,
#: smpi.*, op2.halo.exchange, hydra.*) are intentionally excluded so the
#: three breakdown buckets never double-count wall time.
COUPLER_CATS = frozenset({
    "coupler.wait", "coupler.gather", "coupler.apply", "coupler.serve",
})


@dataclass
class Timeline:
    """The merged, queryable trace of one run across all ranks."""

    spans: list[SpanEvent] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    ranks: tuple[int, ...] = ()

    # -- aggregation views --------------------------------------------
    def by_category(self) -> dict[str, dict[str, float]]:
        """Total seconds and event count per span category."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            c = out.setdefault(s.cat, {"seconds": 0.0, "count": 0})
            c["seconds"] += s.duration
            c["count"] += 1
        return out

    def by_rank(self) -> dict[int, dict[str, float]]:
        """Per-rank span seconds, split by category."""
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            r = out.setdefault(s.rank, {})
            r[s.cat] = r.get(s.cat, 0.0) + s.duration
        return out

    @property
    def loop_stats(self) -> dict[str, LoopStat]:
        """Per-kernel cost over all ranks (:func:`loop_stats` of the spans)."""
        return loop_stats(self.spans)

    def breakdown(self) -> dict[str, float]:
        """The paper's compute / halo / coupler split, in seconds.

        Buckets draw from disjoint top-level categories (``op2.compute``,
        ``op2.halo``, and :data:`COUPLER_CATS`), so they can be summed
        without double counting. When the run used the lazy loop-chain
        runtime, two count-valued (not seconds) columns are appended
        from the chain counters: ``halo_elided`` — exchange calls the
        staleness analysis removed — and ``messages_saved`` — halo
        messages avoided versus the eager schedule, summed over ranks.
        """
        out = {"compute": 0.0, "halo": 0.0, "coupler": 0.0}
        for s in self.spans:
            if s.cat == "op2.compute":
                out["compute"] += s.duration
            elif s.cat == "op2.halo":
                out["halo"] += s.duration
            elif s.cat in COUPLER_CATS:
                out["coupler"] += s.duration
        if "chain.flushes" in self.counters:
            out["halo_elided"] = self.counters.get("chain.halo_elided", 0.0)
            out["messages_saved"] = self.counters.get(
                "chain.messages_saved", 0.0)
        return out

    # -- determinism --------------------------------------------------
    def structure(self) -> tuple:
        """Timestamp-free view: per-rank ordered (rank, name, cat, args).

        Two runs of the same case under the same deterministic schedule
        must produce identical structures even though wall-clock
        timestamps differ; this is what the trace-determinism regression
        compares.
        """
        per_rank: dict[int, list[tuple]] = {}
        for s in self.spans:
            per_rank.setdefault(s.rank, []).append(
                (s.rank, s.name, s.cat,
                 tuple(sorted((s.args or {}).items()))))
        return tuple(tuple(per_rank[r]) for r in sorted(per_rank))

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.structure()).encode()).hexdigest()


def merge_timelines(recorders) -> Timeline:
    """Merge per-rank recorders into one globally ordered timeline."""
    spans: list[SpanEvent] = []
    counters: dict[str, float] = {}
    ranks = []
    for rec in recorders:
        ranks.append(rec.rank)
        spans.extend(rec.spans)
        for k, v in rec.counters.items():
            counters[k] = counters.get(k, 0.0) + v
    spans.sort(key=lambda s: (s.t0, s.rank))
    return Timeline(spans=spans, counters=counters,
                    ranks=tuple(sorted(ranks)))
