"""Rank programs of a coupled run: one prologue, one step schedule.

Every world rank of every driver enters :func:`rank_main` and runs its
role — Hydra Session rank (:func:`hs_main`) or Coupler Unit
(:func:`cu_main`) — over the one :func:`step_schedule`. The monolithic
baseline is :func:`hs_main` with a different coupling round, so all
three hit fault-injection step marks, coupling rounds and checkpoint
barriers in the same order by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import op2
from repro.coupler.monitors import ProbeRecorder, session_monitors
from repro.coupler.search import SearchStats
from repro.coupler.setup import Direction, DriverSetup
from repro.coupler.unit import CUAccounting, CUTransferEngine
from repro.hydra.session import HydraSession
from repro.hydra.solver import HydraSolver
from repro.op2.distribute import build_local_problem, build_serial_problem
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointManifest,
)
from repro.telemetry.recorder import (RankRecorder, active_recorder,
                                      span as _tspan, timed, use_recorder)
from repro.util.atomicio import load_npz

if TYPE_CHECKING:
    from repro.coupler.driver import CoupledRunConfig


@dataclass
class RunContext:
    """What every rank of one run receives: the shared, read-only setup
    record plus this run's own state."""

    setup: DriverSetup
    cfg: CoupledRunConfig
    nsteps: int
    #: committed checkpoint set to restart from (None = cold start)
    resume: CheckpointManifest | None = None
    #: checkpoint writer (None = checkpointing off)
    ckpt: CheckpointManager | None = None


def _role_of(rank: int, setup: DriverSetup) -> tuple[str, int, int]:
    for role, groups in (("hs", setup.row_ranks), ("cu", setup.cu_ranks)):
        for i, ranks in enumerate(groups):
            if rank in ranks:
                return role, i, ranks.index(rank)
    raise RuntimeError(f"rank {rank} has no role")  # pragma: no cover


def rank_main(world, ctx: RunContext, couple=None):
    """The prologue of every rank, then its role's program. ``couple``
    replaces the HS ranks' coupling round (the monolithic baseline's
    inline transfer); None = exchange through the CUs.

    A traced run binds this rank's own recorder before any instrumented
    call and returns it in the report under ``"recorder"`` — the same
    path on a rank thread and on a forked rank process."""
    cfg = ctx.cfg
    rec = RankRecorder(world.rank) if cfg.trace else None
    if rec is not None:
        use_recorder(rec)
    role, idx, sub_idx = _role_of(world.rank, ctx.setup)
    color = (idx if role == "hs"
             else len(ctx.setup.row_ranks) + 100 + world.rank)
    sub = world.split(color)
    op2.set_config(partial_halos=cfg.partial_halos,
                   grouped_halos=cfg.grouped_halos,
                   sanitize=cfg.sanitize)
    if role == "hs":
        report = hs_main(world, sub, idx, ctx, couple or hs_couple)
    else:
        report = cu_main(world, idx, sub_idx, ctx)
    if rec is not None:
        report["recorder"] = rec
    return report


def step_schedule(world, ctx: RunContext, couple, restore, member, totals):
    """The collective cadence of a run, walked by every rank of any role.

    A cold start runs coupling round 0 (``couple(0.0)``), a restart
    ``restore(archive)`` on this rank's member of ``ctx.resume``. Then,
    per physical step: announce it (the fault-injection step mark),
    yield to the caller's step body the coupling time ``step * dt_outer``
    if the step couples (every ``couple_every``-th) else ``None``, and
    stage ``member()`` into a coordinated checkpoint set when one is due,
    adding its seconds to ``totals["checkpoint_write"]``.
    """
    cfg = ctx.cfg
    every = max(1, cfg.couple_every)
    start = 0
    if ctx.resume is None:
        couple(0.0)
    else:
        start = ctx.resume.step
        with load_npz(ctx.resume.member(world.rank)) as archive:
            restore(archive)
    for step in range(start + 1, ctx.nsteps + 1):
        world.notify_step(step)
        yield step * cfg.rig.dt_outer if step % every == 0 else None
        if ctx.ckpt is not None and step % cfg.checkpoint_every == 0:
            # the total feeds the report; the span is the set's own
            with timed(totals, "checkpoint_write"):
                _coordinated_checkpoint(world, ctx, step, member())


def _coordinated_checkpoint(world, ctx: RunContext, step: int,
                            payload: dict) -> None:
    """Write one consistent checkpoint set across the whole world.

    Stage members -> barrier -> rank 0 hashes + commits -> barrier.
    The barriers make the set *coordinated*: no rank proceeds into
    step N+1 physics until the step-N set is either fully committed
    or (on a crash) left as an ignorable ``.tmp`` staging dir.
    """
    ckpt = ctx.ckpt
    with _tspan("checkpoint", "resilience.checkpoint_write", step=step):
        if world.rank == 0:
            ckpt.prepare(step)
        world.barrier()
        ckpt.write_member(step, world.rank, **payload)
        world.barrier()
        if world.rank == 0:
            ckpt.commit(step, meta={"nsteps": ctx.nsteps,
                                    "couple_every": ctx.cfg.couple_every})
        world.barrier()
    rec = active_recorder()
    if rec is not None:
        rec.counter("resilience.checkpoint_write")


def _open_session(sub, row_idx: int, ctx: RunContext) -> HydraSession:
    """This rank's piece of row ``row_idx`` as a ready Hydra Session:
    local problem -> :class:`HydraSolver` -> :class:`HydraSession`."""
    cfg, setup = ctx.cfg, ctx.setup
    rowcfg = cfg.rig.rows[row_idx]
    gp = setup.problems[row_idx]
    layouts = setup.layouts[row_idx]
    layout = layouts[sub.rank] if layouts is not None else None
    local = (build_serial_problem(gp) if layout is None
             else build_local_problem(gp, layout, sub))

    inlet = (cfg.inlet.shifted_frame(rowcfg.wheel_speed)
             if not rowcfg.halo_in else None)
    p_out = cfg.p_out if not rowcfg.halo_out else None
    solver = HydraSolver(local, rowcfg, cfg.numerics,
                         dt_outer=cfg.rig.dt_outer, inlet=inlet, p_out=p_out)
    return HydraSession(solver, setup.meshes[row_idx], layout)


def hs_main(world, sub, row_idx: int, ctx: RunContext, couple) -> dict:
    session = _open_session(sub, row_idx, ctx)
    solver = session.solver
    probe = ProbeRecorder(session)

    def coupling_round(t: float) -> None:
        couple(world, session, row_idx, ctx, t)
        if session.sides:
            session.finish_coupling()
        world.set_phase("compute")

    for t in step_schedule(
            world, ctx, coupling_round,
            lambda archive: _hs_restore(archive, solver, probe),
            lambda: _hs_member_payload(solver, probe), solver.timers):
        solver.advance_physical()
        if t is not None:
            coupling_round(t)
            if solver.num.guard:
                # corrupted sliding-plane traffic must trip here, at
                # the step it arrives — never inside a checkpoint set
                solver.check_health()
        probe.record()

    return {
        "role": "hs",
        "row": row_idx,
        "name": ctx.cfg.rig.rows[row_idx].name,
        "reporter": sub.rank == 0,
        **session_monitors(sub, session, probe),
    }


def _hs_member_payload(solver: HydraSolver, probe: ProbeRecorder) -> dict:
    """An HS rank's checkpoint member: full BDF state + probes."""
    return {**solver.state_arrays(), "probe": probe.history_array()}


def _hs_restore(archive, solver: HydraSolver, probe: ProbeRecorder) -> None:
    try:
        solver.load_state(archive)
    except ValueError as exc:
        raise CheckpointError(f"HS member does not fit: {exc}") from exc
    probe.history = [row.copy() for row in archive["probe"]]


def hs_couple(world, session: HydraSession, row_idx: int, ctx: RunContext,
              t: float) -> None:
    """One coupling round: send donors, receive and apply halo values."""
    setup = ctx.setup
    # 1. ship donor data to every CU of each interface we feed
    for d in setup.directions:
        if d.src_row == row_idx:
            send_donors(world, session, ctx, d, setup.cu_ranks[d.k],
                        "coupler.gather")
    # 2. collect interpolated halo values (the total is reported even
    # when this rank waits on nothing)
    timers = session.solver.timers
    timers.setdefault("coupler_wait", 0.0)
    for d in setup.directions:
        if d.dst_row != row_idx:
            continue
        for c in d.expected_cus.get(world.rank, []):
            with timed(timers, "coupler_wait", "coupler.wait"):
                positions, values = world.recv(
                    source=setup.cu_ranks[d.k][c], tag=d.result_tag)
            if positions.size:
                with _tspan("apply", "coupler.apply", interface=d.k,
                            direction=d.direction):
                    session.apply_halo_values(d.dst_side, positions, values)


def send_donors(world, session: HydraSession, ctx: RunContext, d: Direction,
                dests, phase: str) -> None:
    """Ship this rank's donor pieces of ``d`` to every rank in ``dests``."""
    cfg = ctx.cfg
    with _tspan("gather", "coupler.gather", interface=d.k,
                direction=d.direction):
        positions, values = session.donor_values(d.src_side)
        if cfg.hs_device == "gpu":
            # PCIe accounting: without GPU-side gather the full state
            # array crosses the bus; with GG only the gathered values do
            nbytes = (values.nbytes if cfg.gpu_gather
                      else session.solver.q.data_with_halos.nbytes)
            world.set_phase("pcie")
            world.traffic.record(world.rank, world.rank, nbytes)
        world.set_phase(f"{phase}:{d.k}:{d.direction}")
        for dest in dests:
            world.send((positions, values), dest=dest, tag=d.donor_tag)


def recv_donor_grid(world, ctx: RunContext, d: Direction) -> np.ndarray:
    """Assemble ``d``'s full donor grid from every src-row rank's piece."""
    rows, cols = ctx.setup.interfaces[d.k].side(d.src_iface).grid_shape
    donors = np.zeros((rows * cols, 5))
    for src_rank in ctx.setup.row_ranks[d.src_row]:
        positions, values = world.recv(
            source=src_rank, tag=d.donor_tag,
            timeout=ctx.cfg.cu_request_timeout)
        if positions.size:
            donors[positions] = values
    return donors


def cu_main(world, k: int, cu_index: int, ctx: RunContext) -> dict:
    cfg, setup = ctx.cfg, ctx.setup
    iface = setup.interfaces[k]
    acct = CUAccounting()
    my_dirs = [d for d in setup.directions if d.k == k]
    totals: dict[str, float] = {}

    engines: dict[int, CUTransferEngine] = {}
    with timed(totals, "setup", "coupler.setup"):
        for d in my_dirs:
            engines[d.direction] = engine = CUTransferEngine(
                iface, d.src_iface, d.dst_iface,
                subset=d.cu_targets[cu_index], search_kind=cfg.search,
                incremental=cfg.incremental, interp=cfg.interp,
                native=cfg.interp_native)
            # search-structure construction cost, reported once per run
            # (a restart replaces the stats with the member's, which
            # hold it)
            acct.stats.build_ops += engine.stats.build_ops

    def serve_round(t: float) -> None:
        with timed(totals, "serve", "coupler.serve"):
            for d in my_dirs:
                donors = recv_donor_grid(world, ctx, d)
                with timed(totals, "serve_compute", "coupler.serve_compute"):
                    result = engines[d.direction].serve(donors, t)
                    acct.stats.merge(result.stats)
                    acct.flux_log.append((d.direction, result.flux_sum,
                                          int(result.positions.size),
                                          result.donor_flux_mean))
                    world.set_phase(f"coupler.scatter:{d.k}:{d.direction}")
                    # result.positions is ascending (np.nonzero order), so
                    # the per-target row lookup is one vectorized search
                    for dst, positions in d.cu_send[cu_index].items():
                        rows = np.searchsorted(result.positions, positions)
                        world.send((positions, result.values[rows]),
                                   dest=dst, tag=d.result_tag)
        acct.rounds += 1

    for t in step_schedule(
            world, ctx, serve_round,
            lambda archive: _cu_restore(archive, acct, engines),
            lambda: _cu_member_payload(acct, engines), totals):
        if t is not None:
            serve_round(t)
    return {
        "role": "cu",
        "interface": k,
        "cu_index": cu_index,
        "rounds": acct.rounds,
        "stats": acct.stats,
        "setup_seconds": totals["setup"],
        "serve_seconds": totals.get("serve", 0.0),
        "serve_compute_seconds": totals.get("serve_compute", 0.0),
        "checkpoint_seconds": totals.get("checkpoint_write", 0.0),
        "interp": cfg.interp,
        "flux_log": list(acct.flux_log),
    }


def _cu_member_payload(acct: CUAccounting,
                       engines: dict[int, CUTransferEngine]) -> dict:
    """A CU rank's checkpoint member: the counters of its report, plus
    the per-direction donor caches so a resumed run's donor-prediction
    trajectory — and therefore every comparison counter — replays
    bitwise."""
    payload = {
        "rounds": np.array([acct.rounds], dtype=np.int64),
        "stats": np.array(dataclasses.astuple(acct.stats), dtype=np.int64),
        "flux_log": np.array(acct.flux_log, dtype=np.float64).reshape(-1, 4),
    }
    for direction, engine in engines.items():
        cached, baseline = engine.cache_state()
        payload[f"cache_d{direction}"] = cached
        payload[f"baseline_d{direction}"] = np.array([baseline])
    return payload


def _cu_restore(archive, acct: CUAccounting,
                engines: dict[int, CUTransferEngine]) -> None:
    acct.rounds = int(archive["rounds"][0])
    acct.stats = SearchStats(*(int(v) for v in archive["stats"]))
    acct.flux_log = [
        (int(d), float(fs), int(n), float(dm))
        for d, fs, n, dm in archive["flux_log"]]
    for direction, engine in engines.items():
        engine.restore_cache_state(
            archive[f"cache_d{direction}"].astype(np.int64),
            float(archive[f"baseline_d{direction}"][0]))
