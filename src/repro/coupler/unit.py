"""Coupler Unit transfer procedure.

A CU owns one circumferential segment of one interface. Each step it
assembles the donor grid values it received from the source row's
ranks, shifts its targets into the donor frame, finds donors,
interpolates, applies the frame transformation, and routes results to
the ranks owning the target halo nodes.

Every run serves its transfers through :class:`CUTransferEngine`, one
persistent engine per (interface, direction, server). The server is a
CU rank in the coupled driver, and a target-owning solver rank in the
monolithic baseline (:mod:`repro.coupler.monolithic`): the two
placements differ in where the engine runs, never in what it runs. Each
serve runs :meth:`SlidingInterface.interpolate`, the one place the
transfer sequence is written. The engine's donor cache predicts each
target's donor from the previous round's, so after round 0 a serve on a
sliding interface runs no tree search: its cost is interpolation, not
search.

Every serve also reports the axial mass-flux sums needed for the
interface conservation check: ``values[:, 1]`` (``rho*u_x``) is
invariant under the sliding frame shift, so the target-side average
must reproduce the donor-side average; the driver aggregates this
across the servers of an interface per round.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.coupler.interface import SlidingInterface
from repro.coupler.search import IncrementalSearch, SearchStats, make_search
from repro.telemetry.recorder import active_recorder


@dataclass
class TransferResult:
    """Interpolated values for one CU's targets of one direction."""

    positions: np.ndarray     #: flat target grid positions
    values: np.ndarray        #: (m, 5) conserved state in the dst frame
    stats: SearchStats
    #: sum of the targets' axial mass flux (frame-invariant component)
    flux_sum: float = 0.0
    #: full-donor-grid mean of the same component
    donor_flux_mean: float = 0.0


class CUTransferEngine:
    """Persistent transfer engine for one (direction, server) — a CU's
    segment of targets, or a monolithic rank's own targets.

    Built once per run; every :meth:`serve` reuses the donor geometry
    and search structure and, with ``incremental=True``, predicts each
    target's donor from the previous round's instead of searching (see
    :class:`~repro.coupler.search.IncrementalSearch`). ``interp`` selects
    the interpolation stencil; ``native=True`` opts the gather-apply
    into the compiled kernel when a C toolchain exists.

    ``serve`` returns per-round *delta* statistics, which callers
    accumulate; the engine-lifetime totals, construction ``build_ops``
    included, stay on ``self.stats``. The incremental
    donor cache is exposed via :meth:`cache_state` /
    :meth:`restore_cache_state` so checkpointed runs resume with the
    exact counter trajectory of an uninterrupted run.
    """

    def __init__(self, iface: SlidingInterface, src: str, dst: str,
                 subset: np.ndarray, search_kind: str = "adt",
                 incremental: bool = True, interp: str = "bilinear",
                 native: bool = False) -> None:
        if interp not in ("bilinear", "biquadratic"):
            raise ValueError(
                f"interp must be 'bilinear' or 'biquadratic', got {interp!r}")
        self.iface = iface
        self.src = src
        self.dst = dst
        self.subset = subset
        self.interp = interp
        self.native = native
        geo_src = iface.side(src)
        geo = geo_src.donor_geometry()
        self.corners = geo.corners
        if incremental:
            self._inc: IncrementalSearch | None = IncrementalSearch(
                search_kind, geo)
            self._search = self._inc.search
            self._find = self._inc.query
        else:
            self._inc = None
            self._search = make_search(search_kind, geo.boxes, geo.corners)
            self._find = self._search.find_batch
        self._axes = (geo_src.stencil_axes() if interp == "biquadratic"
                      else None)

    @property
    def stats(self) -> SearchStats:
        """Engine-lifetime search statistics."""
        return self._search.stats

    # -- checkpoint support -------------------------------------------------
    def cache_state(self) -> tuple[np.ndarray, float]:
        """(cached donor quads, savings baseline) for checkpointing."""
        if self._inc is None or self._inc.cache is None:
            return np.empty(0, dtype=np.int64), -1.0
        cpq = self._inc.baseline_comparisons_per_query
        return self._inc.cache, (cpq if cpq is not None else -1.0)

    def restore_cache_state(self, cached: np.ndarray,
                            baseline_cpq: float) -> None:
        if self._inc is None:
            return
        self._inc.restore_cache(cached if cached.size else None,
                                baseline_cpq if baseline_cpq > 0 else None)

    # -- serving ------------------------------------------------------------
    def serve(self, donor_values: np.ndarray, t: float) -> TransferResult:
        """One round's transfer; ``result.stats`` is this round's delta."""
        subset = self.subset
        before = dataclasses.replace(self.stats)
        if subset.size == 0:
            return TransferResult(
                positions=subset,
                values=np.empty((0, donor_values.shape[1])),
                stats=SearchStats(),
                donor_flux_mean=float(np.mean(donor_values[:, 1])))
        values = self.iface.interpolate(
            self.src, self.dst, donor_values, t, subset, self._find,
            self.corners, self._axes, self.native)
        if self._axes is not None:
            self.stats.queries += subset.size   # stencil lookups, no search
        delta = self._delta_since(before)
        self._emit_counters(delta, int(subset.size))
        return TransferResult(
            positions=subset, values=values, stats=delta,
            flux_sum=float(np.sum(values[:, 1])),
            donor_flux_mean=float(np.mean(donor_values[:, 1])))

    def _delta_since(self, before: SearchStats) -> SearchStats:
        now = self.stats
        return SearchStats(*(getattr(now, f.name) - getattr(before, f.name)
                             for f in dataclasses.fields(SearchStats)))

    def _emit_counters(self, delta: SearchStats, targets: int) -> None:
        rec = active_recorder()
        if rec is None:
            return
        rec.counter("coupler.search.queries", delta.queries)
        rec.counter("coupler.search.comparisons", delta.comparisons)
        rec.counter("coupler.search.cache_hits", delta.cache_hits)
        rec.counter("coupler.search.revalidated", delta.revalidated)
        rec.counter("coupler.search.researched", delta.researched)
        rec.counter("coupler.search.comparisons_saved",
                    delta.comparisons_saved)
        rec.counter(f"coupler.interp.{self.interp}.points", targets)
        rec.counter("coupler.interp.rounds")


@dataclass
class CUAccounting:
    """One server's transfer effort over a run: a CU's, or a monolithic
    rank's share of one interface."""

    rounds: int = 0
    stats: SearchStats = field(default_factory=SearchStats)
    #: per serve, per direction: (direction, flux_sum, n_targets,
    #: donor_flux_mean) — the driver aggregates these across a whole
    #: interface into the per-round conservation check
    flux_log: list[tuple[int, float, int, float]] = field(
        default_factory=list)
