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

from repro.coupler.driver import CoupledDriver, CoupledResult, CoupledRunConfig
from repro.coupler.ranks import (
    RunContext,
    rank_main,
    recv_donor_grid,
    send_donors,
)
from repro.coupler.unit import cu_transfer
from repro.hydra.session import HydraSession
from repro.telemetry.recorder import timed


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
    """Same rows, same physics — interface work trapped on solver ranks.

    Launched, configured and stepped by the coupled driver's own code;
    only the coupling round differs. There is no restart path, so a
    config that asks for checkpoints is rejected, not ignored.
    """

    def __init__(self, cfg: CoupledRunConfig) -> None:
        if cfg.checkpoint_every > 0:
            raise ValueError(
                "the monolithic baseline cannot checkpoint; "
                "set checkpoint_every=0")
        super().__init__(dataclasses.replace(cfg, cus_per_interface=1))
        # strip the CU ranks: the monolithic world is solver ranks only
        self.setup = dataclasses.replace(
            self.setup, cu_ranks=[[] for _ in self.setup.cu_ranks],
            n_world=sum(len(r) for r in self.setup.row_ranks))

    def run(self, nsteps: int) -> MonolithicResult:
        reports, merged = self._launch(_mono_rank_main, nsteps)
        return MonolithicResult(
            **merged, rank_search_comparisons=[r["search_comparisons"]
                                               for r in reports])


def _mono_rank_main(world, ctx: RunContext) -> dict:
    inline = _InlineCoupling(ctx.setup.interfaces)
    report = rank_main(world, ctx, couple=inline)
    report["search_comparisons"] = inline.comparisons
    return report


class _InlineCoupling:
    """One solver rank's coupling round without CUs: donor owners
    broadcast to target owners, and each target owner searches the full
    donor set itself. Counts the search effort trapped on this rank."""

    def __init__(self, interfaces: list) -> None:
        self.quads = [{"up": iface.up.donor_quads(),
                       "down": iface.down.donor_quads()}
                      for iface in interfaces]
        self.comparisons = 0

    def __call__(self, world, session: HydraSession, row_idx: int,
                 ctx: RunContext, t: float) -> None:
        setup = ctx.setup
        # send my donor pieces to every target-owning rank
        for d in setup.directions:
            if d.src_row == row_idx:
                send_donors(world, session, ctx, d, sorted(d.expected_cus),
                            "mono.donor")
        # receive donors and do the trapped search/interp locally; on a
        # trace it is coupler work, as a CU's serve is
        timers = session.solver.timers
        timers.setdefault("coupler_inline", 0.0)
        for d in setup.directions:
            if d.dst_row != row_idx or world.rank not in d.expected_cus:
                continue
            iface = setup.interfaces[d.k]
            donors = recv_donor_grid(world, ctx, d)
            # my targets: the ones this rank owns (routing table reused;
            # a rank is in expected_cus iff it owns at least one)
            mine = d.cu_send[0][world.rank]
            with timed(timers, "coupler_inline", "coupler.serve"):
                result = cu_transfer(
                    iface, d.src_iface, d.dst_iface, donors, t, subset=mine,
                    search_kind=ctx.cfg.search,
                    # no segmentation: the whole annulus is the window
                    margin_quads=float(
                        iface.side(d.src_iface).grid_shape[1]),
                    cached_quads=self.quads[d.k][d.src_iface])
            self.comparisons += (result.stats.comparisons
                                 + result.stats.build_ops)
            session.apply_halo_values(d.dst_side, result.positions,
                                      result.values)
