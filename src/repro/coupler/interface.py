"""Sliding-plane interface geometry and transfer mathematics.

One :class:`SlidingInterface` joins the outlet of an upstream row to
the inlet of a downstream row. Each side exposes a (nr, nt) grid of
donor points (one core station inside its interface plane — the
station geometrically coincident with the *other* row's halo layer)
and a matching grid of halo targets. As the rows rotate relative to
each other, a target's position in the donor frame drifts
circumferentially; the transfer therefore (1) shifts target positions
into the donor frame, (2) finds + interpolates donors, and (3) applies
the exact frame velocity transformation to the conserved state —
written once, as :meth:`SlidingInterface.interpolate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coupler.biquad import GridAxes, biquadratic_stencil, grid_axes
from repro.coupler.fastpath import gather_apply
from repro.coupler.search import DonorGeometry, make_search
from repro.hydra.gas import shift_frame
from repro.telemetry.recorder import span as _tspan


@dataclass
class SideGeometry:
    """Static geometry of one side of an interface.

    ``y``/``z`` are flat (nr*nt) arrays over the grid (row-major,
    position = iz*nt + it); both the donor station and the halo layer
    share them (they differ only in x).
    """

    grid_shape: tuple[int, int]
    y: np.ndarray
    z: np.ndarray
    circumference: float
    frame_velocity: float

    def __post_init__(self) -> None:
        n = self.grid_shape[0] * self.grid_shape[1]
        if self.y.shape != (n,) or self.z.shape != (n,):
            raise ValueError(
                f"y/z must be flat ({n},) arrays for grid {self.grid_shape}"
            )

    def donor_quads(self) -> tuple[np.ndarray, np.ndarray]:
        """(boxes (K, 4), corner positions (K, 4)) of the donor grid.

        Quads span circumferentially adjacent grid columns (periodic
        wrap included: the seam quad is emitted twice, once shifted by
        -L, so queries normalized to [0, L) always find a donor). Quads
        are ordered by cell (row-major over the (nr-1, nt) cells), each
        seam duplicate directly after its original.
        """
        nr, nt = self.grid_shape
        y2 = self.y.reshape(nr, nt)[:-1]
        z2 = self.z.reshape(nr, nt)
        L = self.circumference
        y1 = np.roll(y2, -1, axis=1)
        y1[:, -1] = y2[:, -1] + (L - y2[:, -1] + y2[:, 0])
        boxes = np.stack([y2, z2[:-1], y1, z2[1:]], axis=-1).reshape(-1, 4)
        pos = np.arange((nr - 1) * nt).reshape(nr - 1, nt)
        nxt = np.roll(pos, -1, axis=1)
        corners = np.stack([pos, nxt, nxt + nt, pos + nt],
                           axis=-1).reshape(-1, 4)
        # seam quad: duplicate shifted into [-dy, 0]
        seam = boxes[:, 2] > L
        cell = np.repeat(np.arange(seam.size), 1 + seam)
        boxes, corners = boxes[cell], corners[cell]
        dup = np.flatnonzero(seam) + np.arange(1, int(seam.sum()) + 1)
        boxes[dup[:, None], [0, 2]] -= L
        return boxes, corners

    def donor_geometry(self) -> DonorGeometry:
        """Cached :class:`DonorGeometry` of this side's donor grid."""
        geo = getattr(self, "_donor_geo", None)
        if geo is None:
            boxes, corners = self.donor_quads()
            geo = DonorGeometry(boxes=boxes, corners=corners,
                                period=self.circumference)
            self._donor_geo = geo
        return geo

    def stencil_axes(self) -> GridAxes | None:
        """Biquadratic stencil axes of the donor grid; None with fewer
        than 3 radial stations (bilinear is the documented fallback)."""
        axes = grid_axes(self.grid_shape, self.y, self.z, self.circumference)
        return axes if axes.zlines.size >= 3 else None


@dataclass
class SlidingInterface:
    """The moving joint between two blade rows."""

    name: str
    up: SideGeometry      #: upstream row's outlet side
    down: SideGeometry    #: downstream row's inlet side

    def __post_init__(self) -> None:
        if not np.isclose(self.up.circumference, self.down.circumference):
            raise ValueError(
                f"interface {self.name!r}: circumferences differ "
                f"({self.up.circumference} vs {self.down.circumference})"
            )

    def side(self, which: str) -> SideGeometry:
        if which == "up":
            return self.up
        if which == "down":
            return self.down
        raise ValueError(f"side must be 'up' or 'down', got {which!r}")

    def shift_rate(self, src: str, dst: str) -> float:
        """d/dt of the donor-frame drift of a target fixed in ``dst``.

        A point at rest in the dst frame sits at absolute position
        ``y + v_dst * t``; in the src frame that is
        ``y + (v_dst - v_src) * t``.
        """
        return self.side(dst).frame_velocity - self.side(src).frame_velocity

    def shifted_targets(self, src: str, dst: str, t: float,
                        subset: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Target points of ``dst`` expressed in ``src``'s frame at ``t``.

        Returns (y_in_src_frame normalized to [0, L), z).
        """
        geo = self.side(dst)
        y = geo.y if subset is None else geo.y[subset]
        z = geo.z if subset is None else geo.z[subset]
        L = geo.circumference
        y_src = np.mod(y + self.shift_rate(src, dst) * t, L)
        return y_src, z

    def interpolate(self, src: str, dst: str, donor_values: np.ndarray,
                    t: float, subset: np.ndarray | None, find,
                    corners: np.ndarray, axes: GridAxes | None = None,
                    native: bool = False) -> np.ndarray:
        """The one transfer procedure (paper §III-B) behind both
        :meth:`transfer` and :meth:`CUTransferEngine.serve
        <repro.coupler.unit.CUTransferEngine.serve>`.

        Targets shifted into the donor frame resolve to donor points +
        weights through ``find(y, z)`` (a search's ``find_batch`` or a
        donor cache's ``query``) and ``corners`` — or the biquadratic
        stencil when ``axes`` is given — then gather-apply and the frame
        transformation into ``dst``.
        """
        y_q, z_q = self.shifted_targets(src, dst, t, subset)
        with _tspan("donor_search", "coupler.search", interface=self.name):
            if axes is not None:
                # structured stencil lookup replaces the box search
                pts, weights = biquadratic_stencil(axes, y_q, z_q)
            else:
                hits = find(y_q, z_q)
                miss = np.nonzero(hits.quads < 0)[0]
                if miss.size:
                    i = int(miss[0])
                    raise RuntimeError(
                        f"interface {self.name!r} ({src}->{dst}): no donor "
                        f"for target ({y_q[i]:.6f}, {z_q[i]:.6f}) at t={t}")
                pts, weights = corners[hits.quads], hits.weights
        with _tspan("interpolate", "coupler.interp", targets=int(y_q.size),
                    interface=self.name,
                    interp="bilinear" if axes is None else "biquadratic"):
            out = gather_apply(weights, pts, donor_values, native=native)
        return shift_frame(out, self.shift_rate(src, dst))

    def transfer(self, src: str, dst: str, donor_values: np.ndarray,
                 t: float, search_kind: str = "adt",
                 subset: np.ndarray | None = None,
                 search=None, interp: str = "bilinear",
                 native: bool = False) -> tuple[np.ndarray, object]:
        """Interpolate donor-side values onto dst targets at time ``t``.

        ``donor_values`` is (nr*nt, 5) conserved state on the src donor
        grid (in src's frame). Returns (target values (m, 5) in dst's
        frame, the search object — inspect ``.stats`` for effort).

        ``interp`` selects ``"bilinear"`` (default) or ``"biquadratic"``
        (3x3 conservative high-order stencil, see
        :mod:`repro.coupler.biquad`); ``native`` opts the gather-apply
        into the compiled kernel when available.
        """
        geo_src = self.side(src)
        if search is None:
            geo = geo_src.donor_geometry()
            search = make_search(search_kind, geo.boxes, geo.corners)
        axes = geo_src.stencil_axes() if interp == "biquadratic" else None
        out = self.interpolate(src, dst, donor_values, t, subset,
                               search.find_batch, search.corners, axes,
                               native)
        return out, search
