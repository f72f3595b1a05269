"""The from-scratch, per-point sliding-plane transfer.

:func:`cu_transfer` is what a Coupler Unit did before the persistent
:class:`~repro.coupler.unit.CUTransferEngine`: per round it windows the
donor quads around the shifted targets (:func:`donor_window`), builds a
fresh search over the window and interpolates target by target,
bilinear only. The tests hold the engine bitwise equal to it, and the
Table II benchmark (``benchmarks/bench_table2_search.py``) measures
its windowed search against the CU segment count.
:class:`ReferenceEngine` puts it behind the engine's surface, so a
whole coupled or monolithic run can be served by it.
"""

from __future__ import annotations

import numpy as np

from repro.coupler.interface import SlidingInterface
from repro.coupler.search import SearchStats, make_search
from repro.coupler.unit import TransferResult
from repro.hydra.gas import shift_frame


def donor_window(boxes: np.ndarray, y_lo: float, y_hi: float,
                 circumference: float, margin: float) -> np.ndarray:
    """Donor quads whose y-extent intersects the arc [y_lo, y_hi]+margin.

    The arc is treated periodically: quads are tested against the arc
    and its ±L images, so a window that wraps the seam still selects
    the right donors. Returns quad indices.
    """
    lo = y_lo - margin
    hi = y_hi + margin
    L = circumference
    hit = np.zeros(boxes.shape[0], dtype=bool)
    for shift in (-L, 0.0, L):
        hit |= (boxes[:, 2] + shift >= lo) & (boxes[:, 0] + shift <= hi)
    return np.nonzero(hit)[0]


def cu_transfer(iface: SlidingInterface, src: str, dst: str,
                donor_values: np.ndarray, t: float,
                subset: np.ndarray, search_kind: str = "adt",
                margin_quads: float = 2.0,
                cached_quads: tuple[np.ndarray, np.ndarray] | None = None
                ) -> TransferResult:
    """Perform one direction's transfer for the targets in ``subset``.

    ``donor_values`` covers the *full* donor grid of ``src``; the search
    however runs only over the donor window of the shifted subset,
    widened by ``margin_quads`` donor pitches. ``cached_quads`` skips
    rebuilding the side's ``donor_quads()``.
    """
    geo_src = iface.side(src)
    if cached_quads is None:
        cached_quads = geo_src.donor_quads()
    boxes, corners = cached_quads
    stats = SearchStats()
    donor_mean = float(np.mean(donor_values[:, 1]))
    if subset.size == 0:
        return TransferResult(positions=subset,
                              values=np.empty((0, donor_values.shape[1])),
                              stats=stats, donor_flux_mean=donor_mean)

    y_q, z_q = iface.shifted_targets(src, dst, t, subset)
    L = geo_src.circumference
    pitch = L / geo_src.grid_shape[1]
    # donor window: arc spanned by the shifted targets (+margin). The
    # targets of one segment stay contiguous modulo L, so span them in
    # an unwrapped frame anchored at the first target.
    rel = np.mod(y_q - y_q[0], L)
    lo = y_q[0] + rel.min()
    hi = y_q[0] + rel.max()
    window = donor_window(boxes, lo, hi, L, margin=margin_quads * pitch)
    search = make_search(search_kind, boxes[window])
    stats.build_ops += getattr(getattr(search, "tree", None), "build_ops", 0)

    out = np.empty((subset.size, donor_values.shape[1]))
    for i, (yy, zz) in enumerate(zip(y_q, z_q)):
        hit = search.find(float(yy), float(zz))
        if hit.quad < 0:
            raise RuntimeError(
                f"interface {iface.name!r} ({src}->{dst}): no donor for "
                f"target ({yy:.6f}, {zz:.6f}) at t={t} (window of "
                f"{len(window)} quads)")
        pts = corners[window[hit.quad]]
        w = hit.weights
        v = donor_values
        out[i] = ((w[0] * v[pts[0]] + w[1] * v[pts[1]])
                  + w[2] * v[pts[2]]) + w[3] * v[pts[3]]
    stats.merge(search.stats)

    values = shift_frame(out, iface.shift_rate(src, dst))
    return TransferResult(positions=subset, values=values, stats=stats,
                          flux_sum=float(np.sum(values[:, 1])),
                          donor_flux_mean=donor_mean)


class ReferenceEngine:
    """:func:`cu_transfer` behind the engine's surface: the from-scratch,
    per-point reference a whole run is compared against. Patch it in for
    ``repro.coupler.ranks.CUTransferEngine`` (the CUs) or
    ``repro.coupler.monolithic.CUTransferEngine`` (the inline baseline);
    forked ranks inherit the patch."""

    def __init__(self, iface, src, dst, subset, search_kind="adt", **_):
        self._where = (iface, src, dst)
        self._how = dict(subset=subset, search_kind=search_kind)
        self.stats = SearchStats()   # build cost arrives with each serve

    def serve(self, donor_values, t):
        return cu_transfer(*self._where, donor_values, t, **self._how)

    def cache_state(self):
        return np.empty(0, dtype=np.int64), -1.0

    def restore_cache_state(self, cached, baseline_cpq):
        pass
