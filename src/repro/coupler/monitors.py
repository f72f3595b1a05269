"""Hydra Session monitors of a coupled run: what each HS rank measures
on its row for the merged :class:`~repro.coupler.driver.CoupledResult`
— temporal pressure probes, sliding-plane mass flow, the mid-radius
pressure cut (paper Fig. 10), the halo-to-plane discontinuity. All but
:meth:`ProbeRecorder.record` are collective over the session's ranks.
"""

from __future__ import annotations

import numpy as np

from repro.hydra.gas import primitives
from repro.hydra.session import HydraSession


def _mid_radius_ids(mesh) -> np.ndarray:
    """Global node ids of the mid-radius cylindrical cut, (nt, nx core)."""
    cfg = mesh.config
    return np.array(
        [[mesh.node_id(cfg.nr // 2, it, mesh.ix0_core + ix)
          for ix in range(cfg.nx)] for it in range(cfg.nt)], dtype=np.int64)


class ProbeRecorder:
    """Temporal pressure probes at a row's exit station (mid radius).

    The paper's Fig. 10 notes "strong unsteadiness in the large axial
    gaps downstream" — this recorder captures the per-step pressure at
    the row's last core station so the run can report a temporal-
    standard-deviation unsteadiness measure per row.
    """

    def __init__(self, session: HydraSession) -> None:
        self.solver = session.solver
        ids = _mid_radius_ids(session.mesh)[:, -1]  # last core station
        _pos, self._local = session._global_to_local(ids)
        self.history: list[np.ndarray] = []

    def record(self) -> None:
        q = self.solver.q.data_with_halos[self._local]
        self.history.append(primitives(q)["p"].copy())

    def history_array(self) -> np.ndarray:
        """The history as one ``(steps, probes)`` array (checkpoint form)."""
        if self.history:
            return np.stack(self.history)
        return np.zeros((0, self._local.size))

    def unsteadiness(self, sub) -> float:
        """Mean temporal std of the probed pressures (collective).

        Computed over the second half of the recorded history so the
        startup transient (the initial pressure adjustment sweeping
        through the machine) does not mask the periodic rotor-stator
        interaction the paper's Fig. 10 describes.
        """
        settled = self.history[len(self.history) // 2:]
        if len(settled) < 2 or self._local.size == 0:
            local = (0.0, 0)
        else:
            series = np.stack(settled)
            local = (float(series.std(axis=0).sum()), series.shape[1])
        pieces = sub.allgather(local) if sub.size > 1 else [local]
        total = sum(p[0] for p in pieces)
        count = sum(p[1] for p in pieces)
        return total / count if count else 0.0


def session_monitors(sub, session: HydraSession,
                     probe: ProbeRecorder) -> dict:
    """The monitor fields of one HS rank's report (collective)."""
    solver = session.solver
    xs, ps = solver.station_pressure()
    wiggle = interface_wiggle(sub, session)
    return {
        "stations_x": xs.tolist(),
        "stations_p": ps.tolist(),
        "timers": dict(solver.timers),
        "wiggle": wiggle,
        "steps": solver.step,
        "midcut_p": mid_cut(sub, session),
        "plane_mdot_in": plane_mass_flow(sub, session, "in"),
        "plane_mdot_out": plane_mass_flow(sub, session, "out"),
        "unsteadiness": probe.unsteadiness(sub),
    }


def plane_mass_flow(sub, session: HydraSession, side: str) -> float | None:
    """Axial mass flow through a sliding-interface plane (collective).

    Integrates rho*u_x over the plane station's dual faces; None when
    the row has no sliding plane on that side (a true BC instead).
    """
    mesh = session.mesh
    cfg = mesh.config
    if side not in session.sides:
        return None
    grid = mesh.iface_in_plane if side == "in" else mesh.iface_out_plane
    dy = cfg.circumference / cfg.nt
    dz = (cfg.r_outer - cfg.r_inner) / (cfg.nr - 1)
    dz_eff = np.full(cfg.nr, dz)
    dz_eff[0] *= 0.5
    dz_eff[-1] *= 0.5
    area = np.broadcast_to((dz_eff * dy)[:, None],
                           (cfg.nr, cfg.nt)).ravel()
    pos, local = session._global_to_local(grid.ravel())
    q = session.solver.q.data_with_halos
    mdot = float(np.sum(q[local, 1] * area[pos]))
    if sub.size > 1:
        mdot = sub.allreduce(mdot, "sum")
    return mdot


def mid_cut(sub, session: HydraSession) -> np.ndarray:
    """Static pressure on the mid-radius cylindrical cut, (nt, nx core).

    Collective over the session: each rank contributes the cut nodes it
    owns; the assembled field is Fig. 10's surface for this row.
    """
    ids = _mid_radius_ids(session.mesh)
    pos, local = session._global_to_local(ids.ravel())
    p_local = primitives(session.solver.q.data_with_halos[local])["p"]
    mine = (pos, p_local)
    pieces = sub.allgather(mine) if sub.size > 1 else [mine]
    out = np.full(ids.size, np.nan)
    for ppos, values in pieces:
        out[ppos] = values
    return out.reshape(ids.shape)


def interface_wiggle(sub, session: HydraSession) -> float:
    """Relative jump between halo-layer and plane values.

    The halo layer is interpolated from the neighbour's interior at the
    same axial station as the donor layer; a healthy sliding-plane
    treatment keeps the solution continuous (paper Fig. 10's "absence
    of wiggles"), so the halo-to-plane difference should be of the
    order of the flow's own axial variation, not larger.
    """
    worst = 0.0
    mesh = session.mesh
    q = session.solver.q.data_with_halos
    for side_name in session.sides:
        halo_grid = (mesh.iface_in_halo if side_name == "in"
                     else mesh.iface_out_halo)
        plane_grid = (mesh.iface_in_plane if side_name == "in"
                      else mesh.iface_out_plane)
        pos, halo_local = session._global_to_local(halo_grid)
        pos2, plane_local = session._global_to_local(plane_grid)
        # compare only positions owned for both layers on this rank
        common, ia, ib = np.intersect1d(pos, pos2, return_indices=True)
        if common.size:
            ph = primitives(q[halo_local[ia]])["p"]
            pp = primitives(q[plane_local[ib]])["p"]
            worst = max(worst, float(np.max(np.abs(ph - pp) / pp)))
    if sub.size > 1:
        worst = sub.allreduce(worst, "max")
    return worst
