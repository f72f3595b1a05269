"""Monolithic baseline: sliding-plane work inline on the solver ranks.

The production (non-coupled) configuration the paper compares against:
no dedicated coupler processes, no interface segmentation. Every rank
that owns target halo nodes serves its own targets itself, serialized
with its solve — which is precisely why "the sliding planes nodes
remain trapped in a limited number of processors" and become the
scaling bottleneck. It serves them through the same
:class:`~repro.coupler.unit.CUTransferEngine` a CU runs, built from the
same config fields, so the two placements differ only in where the
transfer runs: same search, interpolation and donor cache, the same
physics (the test suite holds them bitwise equal), and the same
per-interface search and conservation accounting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.coupler.driver import CoupledDriver, CoupledResult, CoupledRunConfig
from repro.coupler.ranks import (
    RunContext,
    rank_main,
    recv_donor_grid,
    send_donors,
)
from repro.coupler.unit import CUAccounting, CUTransferEngine
from repro.hydra.session import HydraSession
from repro.telemetry.recorder import timed


@dataclass
class MonolithicResult(CoupledResult):
    """Adds the per-rank inline-search effort distribution.

    ``cus`` stays empty; ``inline`` holds the solver ranks' transfer
    reports instead — one per (rank, interface it serves), shaped like a
    CU's (``interface``, ``rounds``, ``stats``, ``flux_log``) — so
    :meth:`total_search_stats` and :meth:`interface_flux_error` read
    the same accounting on both placements.
    """

    inline: list[dict] = field(default_factory=list)
    #: per world rank: its inline search comparisons + build ops
    rank_search_comparisons: list[int] | None = None

    def _servers(self) -> list[dict]:
        return self.inline

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
        per_rank = [r["inline"] for r in reports]
        return MonolithicResult(
            **merged, inline=[t for served in per_rank for t in served],
            rank_search_comparisons=[
                sum(t["stats"].comparisons + t["stats"].build_ops
                    for t in served) for served in per_rank])


def _mono_rank_main(world, ctx: RunContext) -> dict:
    inline = _InlineCoupling(ctx, world.rank)
    report = rank_main(world, ctx, couple=inline)
    report["inline"] = inline.reports()
    return report


class _InlineCoupling:
    """One solver rank's coupling round without CUs: donor owners
    broadcast to target owners, and each target owner serves its own
    targets through one :class:`CUTransferEngine` per direction,
    accounting the effort per interface as a CU does."""

    def __init__(self, ctx: RunContext, rank: int) -> None:
        cfg, setup = ctx.cfg, ctx.setup
        self.engines: dict[tuple[int, int], CUTransferEngine] = {}
        self.accounts: dict[int, CUAccounting] = {}
        for d in setup.directions:
            # a rank is in expected_cus iff it owns at least one target;
            # with one (virtual) CU, its routing entry is exactly those
            if rank not in d.expected_cus:
                continue
            engine = CUTransferEngine(
                setup.interfaces[d.k], d.src_iface, d.dst_iface,
                subset=d.cu_send[0][rank], search_kind=cfg.search,
                incremental=cfg.incremental, interp=cfg.interp,
                native=cfg.interp_native)
            self.engines[d.k, d.direction] = engine
            acct = self.accounts.setdefault(d.k, CUAccounting())
            # search-structure construction cost, counted once per run
            acct.stats.build_ops += engine.stats.build_ops

    def reports(self) -> list[dict]:
        """CU-shaped transfer reports, one per interface served."""
        return [{"interface": k, "rounds": acct.rounds, "stats": acct.stats,
                 "flux_log": list(acct.flux_log)}
                for k, acct in sorted(self.accounts.items())]

    def __call__(self, world, session: HydraSession, row_idx: int,
                 ctx: RunContext, t: float) -> None:
        setup = ctx.setup
        # send my donor pieces to every target-owning rank
        for d in setup.directions:
            if d.src_row == row_idx:
                send_donors(world, session, ctx, d, sorted(d.expected_cus),
                            "mono.donor")
        # receive donors and serve my targets locally; on a trace it is
        # coupler work, as a CU's serve is
        timers = session.solver.timers
        timers.setdefault("coupler_inline", 0.0)
        for d in setup.directions:
            engine = self.engines.get((d.k, d.direction))
            if engine is None:
                continue
            donors = recv_donor_grid(world, ctx, d)
            with timed(timers, "coupler_inline", "coupler.serve"):
                result = engine.serve(donors, t)
            acct = self.accounts[d.k]
            acct.stats.merge(result.stats)
            acct.flux_log.append((d.direction, result.flux_sum,
                                  int(result.positions.size),
                                  result.donor_flux_mean))
            session.apply_halo_values(d.dst_side, result.positions,
                                      result.values)
        for acct in self.accounts.values():
            acct.rounds += 1
