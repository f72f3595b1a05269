"""Monolithic baseline: sliding-plane work inline on the solver ranks.

The production (non-coupled) configuration the paper compares against:
no dedicated coupler processes, no interface segmentation. Every rank
that owns target halo nodes performs the donor search itself, over the
*full* donor set of the interface, serialized with its solve — which
is precisely why "the sliding planes nodes remain trapped in a limited
number of processors" and become the scaling bottleneck. Physics is
identical to the coupled driver (same search and interpolation code),
which the test suite verifies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import op2
from repro.coupler.driver import (
    CoupledResult,
    CoupledRunConfig,
    _Setup,
    _hs_report,
    _open_session,
    _tag,
    _TAG_DONOR,
    CoupledDriver,
)
from repro.coupler.unit import cu_transfer
from repro.smpi import Traffic, run_ranks


@dataclass
class MonolithicResult(CoupledResult):
    """Adds the per-rank inline-search effort distribution."""

    rank_search_comparisons: list[int] | None = None

    def search_imbalance(self) -> float:
        """max/mean of per-rank search comparisons (∞ concentration -> big)."""
        comps = np.array(self.rank_search_comparisons or [0.0], dtype=float)
        mean = comps.mean()
        return float(comps.max() / mean) if mean > 0 else 1.0


class MonolithicDriver(CoupledDriver):
    """Same rows, same physics — interface work trapped on solver ranks."""

    def __init__(self, cfg: CoupledRunConfig) -> None:
        if cfg.cus_per_interface != 1:
            cfg = dataclasses.replace(cfg, cus_per_interface=1)
        super().__init__(cfg)
        # strip the CU ranks: the monolithic world is solver ranks only
        self.cu_ranks = [[] for _ in self.cu_ranks]
        self.n_world = sum(len(r) for r in self.row_ranks)

    def run(self, nsteps: int) -> MonolithicResult:
        if nsteps < 0:
            raise ValueError("nsteps must be >= 0")
        setup = _Setup(
            cfg=self.cfg, meshes=self.meshes, problems=self.problems,
            layouts=self.layouts, row_ranks=self.row_ranks,
            cu_ranks=self.cu_ranks, interfaces=self.interfaces,
            directions=self.directions, nsteps=nsteps,
            n_world=self.n_world,
        )
        traffic = Traffic()
        results = run_ranks(self.n_world, _mono_rank_main, args=(setup,),
                            timeout=self.cfg.timeout, traffic=traffic)
        rows = [r for r in results if r["reporter"]]
        rows.sort(key=lambda r: r["row"])
        comps = [r["search_comparisons"] for r in results]
        return MonolithicResult(
            rows=rows, cus=[], traffic=traffic, nsteps=nsteps,
            dt=self.cfg.rig.dt_outer, rank_search_comparisons=comps,
        )


def _mono_rank_main(world, setup: _Setup):
    # every rank is a solver rank here
    row_idx = None
    for i, ranks in enumerate(setup.row_ranks):
        if world.rank in ranks:
            row_idx = i
            break
    assert row_idx is not None
    sub = world.split(row_idx)
    cfg = setup.cfg
    op2.set_config(partial_halos=cfg.partial_halos,
                   grouped_halos=cfg.grouped_halos)

    rig = cfg.rig
    session = _open_session(sub, row_idx, setup)
    solver = session.solver
    quads = {k: {"up": iface.up.donor_quads(), "down": iface.down.donor_quads()}
             for k, iface in enumerate(setup.interfaces)}
    comparisons = 0

    def couple(t: float) -> int:
        """Inline transfer: donor owners broadcast to target owners, and
        each target owner searches the full donor set itself."""
        comps = 0
        # send my donor pieces to every target-owning rank
        for d in setup.directions:
            if d.src_row != row_idx:
                continue
            positions, values = session.donor_values(d.src_side)
            world.set_phase(f"mono.donor:{d.k}:{d.direction}")
            dst_ranks = sorted(d.expected_cus)  # ranks owning any target
            for dst in dst_ranks:
                world.send((positions, values), dest=dst,
                           tag=_tag(_TAG_DONOR, d.k, d.direction))
        # receive donors and do the trapped search/interp locally
        wait = solver.timers["coupler_inline"]
        for d in setup.directions:
            if d.dst_row != row_idx or world.rank not in d.expected_cus:
                continue
            iface = setup.interfaces[d.k]
            src = "up" if d.direction == 0 else "down"
            dst = "down" if d.direction == 0 else "up"
            geo = iface.side(src)
            n_grid = geo.grid_shape[0] * geo.grid_shape[1]
            donors = np.zeros((n_grid, 5))
            for src_rank in setup.row_ranks[d.src_row]:
                positions, values = world.recv(
                    source=src_rank, tag=_tag(_TAG_DONOR, d.k, d.direction))
                if positions.size:
                    donors[positions] = values
            # my targets: the ones this rank owns (routing table reused)
            mine = d.cu_send[0].get(world.rank)
            if mine is None or mine.size == 0:
                continue
            wait.start()
            result = cu_transfer(
                iface, src, dst, donors, t, subset=mine,
                search_kind=cfg.search,
                # no segmentation: the whole annulus is the window
                margin_quads=float(geo.grid_shape[1]),
                cached_quads=quads[d.k][src])
            wait.stop()
            comps += result.stats.comparisons + result.stats.build_ops
            session.apply_halo_values(d.dst_side, result.positions,
                                      result.values)
        if session.sides:
            session.finish_coupling()
        world.set_phase("compute")
        return comps

    comparisons += couple(0.0)
    for step in range(1, setup.nsteps + 1):
        solver.advance_physical()
        comparisons += couple(step * rig.dt_outer)

    report = _hs_report(world, sub, solver, session, row_idx, setup)
    report["search_comparisons"] = comparisons
    return report
