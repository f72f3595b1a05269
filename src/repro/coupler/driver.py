"""The coupled Rig250 driver: Hydra Sessions + Coupler Units over
simulated MPI.

Reproduces the paper's Fig. 5 architecture: each blade row runs as a
Hydra Session on its own sub-communicator; one or more Coupler Units
sit between adjacent sessions on dedicated ranks and carry out the
sliding-plane transfer each physical time step. This module is the
public trio — the run configuration, the driver that launches the
world, and the merged result. The setup record and its static routing
live in :mod:`~repro.coupler.setup`, the programs the ranks run in
:mod:`~repro.coupler.ranks`, the per-row monitors in
:mod:`~repro.coupler.monitors`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.coupler.ranks import RunContext, rank_main
from repro.coupler.search import SearchStats
from repro.coupler.setup import (
    DriverSetup,
    build_driver_setup,
    setup_fingerprint,
)
from repro.hydra.gas import FlowState
from repro.hydra.solver import Numerics
from repro.mesh.rig250 import Rig250Config
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointManifest,
    load_manifest,
)
from repro.smpi import DeterministicScheduler, FaultPlan, Traffic, run_ranks
from repro.telemetry.timeline import Timeline, merge_timelines


@dataclass
class CoupledRunConfig:
    """Everything needed to assemble and run a coupled compressor."""

    rig: Rig250Config
    #: MPI ranks per Hydra Session (int = same for every row)
    ranks_per_row: list[int] | int = 1
    cus_per_interface: int = 1
    search: str = "adt"
    #: cache donors across coupling rounds and predict each round's
    #: donor from them instead of re-searching
    incremental: bool = True
    #: interface interpolation: "bilinear" (default, bitwise-stable
    #: baseline) or "biquadratic" (conservative high-order stencil)
    interp: str = "bilinear"
    #: route the interpolation gather-apply through the compiled
    #: native kernel when a C toolchain exists (silent fallback)
    interp_native: bool = False
    numerics: Numerics = field(default_factory=Numerics)
    #: inflow in the absolute frame; rotors see it frame-shifted
    inlet: FlowState = field(default_factory=lambda: FlowState(ux=0.5))
    p_out: float = 1.02
    partition_scheme: str = "rcb"
    partial_halos: bool = False
    grouped_halos: bool = False
    #: "cpu" or "gpu" — gpu simulates the PCIe hop to the coupler
    hs_device: str = "cpu"
    #: GPU-side gather (GG): ship only interface values over PCIe
    gpu_gather: bool = True
    #: couple every k-th outer step (1 = the paper's every-step coupling;
    #: larger values trade interface freshness for coupler cost — the
    #: ablation benchmark quantifies the accuracy loss)
    couple_every: int = 1
    timeout: float = 300.0
    #: route every par_loop through the race-sanitizer backend
    sanitize: bool = False
    #: no effect (see the chain stand-ins at the end of :mod:`repro.op2`)
    lazy: bool = False
    #: serialize ranks under a seeded deterministic schedule (None = off)
    schedule_seed: int | None = None
    #: record telemetry spans on every rank (either transport); the
    #: merged :class:`~repro.telemetry.timeline.Timeline` lands on the
    #: result
    trace: bool = False
    #: write a coordinated checkpoint set every k physical steps
    #: (0 = off; requires ``checkpoint_dir``)
    checkpoint_every: int = 0
    #: directory for checkpoint sets (see :mod:`repro.resilience`)
    checkpoint_dir: str | os.PathLike | None = None
    #: deterministic fault injection (crashes, message faults)
    fault_plan: FaultPlan | None = None
    #: per-request receive timeout on CU serve loops (None = the
    #: communicator default): a dead or wedged client then surfaces as
    #: a SimMPIError on the CU instead of an indefinite hang
    cu_request_timeout: float | None = None
    #: smpi transport: "thread" (deterministic test mode), "process"
    #: (forked ranks, true multi-core), or None = the
    #: ``REPRO_SMPI_TRANSPORT`` environment default. Deterministic
    #: schedules are thread-only; tracing and fault plans work on both
    #: transports (``crash_hard`` faults are process-only).
    transport: str | None = None

    def ranks_of(self) -> list[int]:
        n = self.rig.n_rows
        if isinstance(self.ranks_per_row, int):
            return [self.ranks_per_row] * n
        if len(self.ranks_per_row) != n:
            raise ValueError(
                f"ranks_per_row must have {n} entries, got "
                f"{len(self.ranks_per_row)}"
            )
        return list(self.ranks_per_row)


@dataclass
class CoupledResult:
    """Merged outcome of a coupled run."""

    rows: list[dict]
    cus: list[dict]
    traffic: Traffic
    nsteps: int
    dt: float
    #: merged cross-rank telemetry (None unless the run had trace=True)
    timeline: Timeline | None = None
    #: physical step this run restarted from (0 = cold start)
    resumed_from: int = 0
    #: recovery history when the run was driven by
    #: :func:`repro.resilience.run_resilient` (a ``RecoveryLog``)
    recovery: object | None = None

    def monitor_payload(self) -> list:
        """The replay-sensitive monitor state a recovered, resumed or
        re-transported run must reproduce bitwise, as JSON-ready lists
        (hashed by the service digest, compared by ``repro resilience``)."""
        return [
            [(row["stations_p"], np.asarray(row["midcut_p"]).tolist(),
              row["unsteadiness"], row["wiggle"],
              row["plane_mdot_in"], row["plane_mdot_out"])
             for row in self.rows],
            [(cu["rounds"], cu["stats"].queries, cu["stats"].comparisons)
             for cu in self.cus],
        ]

    def pressure_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean static pressure vs axial station across the machine."""
        xs: list[float] = []
        ps: list[float] = []
        for row in self.rows:
            xs.extend(row["stations_x"])
            ps.extend(row["stations_p"])
        order = np.argsort(xs)
        return np.array(xs)[order], np.array(ps)[order]

    def pressure_ratio(self) -> float:
        """Outlet/inlet mean static pressure over the whole machine."""
        _xs, p = self.pressure_profile()
        return float(p[-1] / p[0])

    def _worst_share(self, timer: str, *others: str) -> float:
        """max over rows of ``timer`` / (``timer`` + ``others``)."""
        shares = []
        for row in self.rows:
            part = row["timers"].get(timer, 0.0)
            total = sum(row["timers"].get(o, 0.0) for o in others) + part
            if total > 0:
                shares.append(part / total)
        return max(shares, default=0.0)

    def coupler_wait_fraction(self) -> float:
        """max over rows of coupler-wait / total step time."""
        return self._worst_share("coupler_wait", "physical_step")

    def checkpoint_overhead(self) -> float:
        """Worst-rank fraction of wall time spent writing checkpoints
        (of physical_step + coupler_wait + checkpoint_write); 0.0 when
        checkpointing was off."""
        return self._worst_share("checkpoint_write", "physical_step",
                                 "coupler_wait")

    def interface_wiggle(self) -> float:
        """Max relative discontinuity across any sliding interface."""
        return max((row["wiggle"] for row in self.rows), default=0.0)

    def interface_mass_mismatch(self) -> float:
        """Worst relative mass-flow jump across any sliding interface.

        A conservative sliding-plane treatment keeps the axial mass flow
        continuous from one row's outlet plane to the next row's inlet
        plane (u_x is frame-independent, so no rotation correction is
        needed).
        """
        worst = 0.0
        for a, b in zip(self.rows, self.rows[1:]):
            m_out = a.get("plane_mdot_out")
            m_in = b.get("plane_mdot_in")
            if m_out is None or m_in is None:
                continue
            scale = max(abs(m_out), abs(m_in), 1e-300)
            worst = max(worst, abs(m_out - m_in) / scale)
        return worst

    def mid_cut(self) -> tuple[np.ndarray, list[int]]:
        """Mid-radius pressure field across the whole machine.

        Returns ``(field (nt, total_nx), interface column marks)`` —
        the paper's Fig. 10 cylindrical cut, ready for
        :func:`repro.util.ascii_plot.render_field`.
        """
        pieces = [np.asarray(row["midcut_p"]) for row in self.rows]
        nts = {p.shape[0] for p in pieces}
        if len(nts) != 1:
            raise ValueError(
                "mid_cut needs equal circumferential resolution per row"
            )
        marks = np.cumsum([p.shape[1] for p in pieces[:-1]]).tolist()
        return np.concatenate(pieces, axis=1), marks

    def _servers(self) -> list[dict]:
        """The transfer reports the accounting below reads — each with
        ``interface``, ``stats`` and ``flux_log``: here the CUs'."""
        return self.cus

    def total_search_stats(self) -> SearchStats:
        stats = SearchStats()
        for server in self._servers():
            stats.merge(server["stats"])
        return stats

    def interface_flux_error(self) -> float:
        """Worst per-round conservation error of any interface transfer.

        Each server (a CU, or a monolithic target-owning rank) logs,
        per serve and direction, the sum of its targets' axial mass flux
        (``rho*u_x``, frame-invariant) plus the donor grid's mean;
        summing the target sums across all servers of one (interface,
        direction) reconstructs the full target-side average, whose
        relative mismatch against the donor average is the transfer's
        conservation error for that round. Returns the max over rounds,
        directions and interfaces (0.0 when no flux logs were recorded).
        """
        worst = 0.0
        servers = self._servers()
        for k in {s["interface"] for s in servers}:
            members = [s for s in servers if s["interface"] == k]
            for direction in (0, 1):
                # one list per server of this direction, one entry a round
                per_server = [log for s in members
                              if (log := [e for e in s["flux_log"]
                                          if e[0] == direction])]
                for entries in zip(*per_server):
                    total = sum(e[1] for e in entries)
                    count = sum(e[2] for e in entries)
                    donor_mean = entries[0][3]
                    if count == 0:
                        continue
                    scale = max(abs(donor_mean), 1e-300)
                    worst = max(worst,
                                abs(total / count - donor_mean) / scale)
        return worst


class CoupledDriver:
    """Assembles and runs the coupled compressor simulation.

    Holds one :class:`~repro.coupler.setup.DriverSetup`: built here, or
    a prebuilt ``shared`` one (typically from the service's setup
    cache), which skips mesh/problem/interface construction and must
    carry ``cfg``'s :func:`~repro.coupler.setup.setup_fingerprint`.
    """

    def __init__(self, cfg: CoupledRunConfig,
                 shared: DriverSetup | None = None) -> None:
        self.cfg = cfg
        if shared is None:
            shared = build_driver_setup(cfg)
        else:
            expect = setup_fingerprint(cfg)
            if shared.fingerprint != expect:
                raise ValueError(
                    f"shared DriverSetup fingerprint {shared.fingerprint[:12]}"
                    f"… does not match this config ({expect[:12]}…); it was "
                    f"built for a different case")
        self.setup = shared

    # what outside readers use of the setup record
    n_world = property(lambda self: self.setup.n_world)
    interfaces = property(lambda self: self.setup.interfaces)
    directions = property(lambda self: self.setup.directions)

    def _resolve_resume(self, resume_from, nsteps: int
                        ) -> CheckpointManifest | None:
        """Validate a resume target against this driver's world."""
        if resume_from is None:
            return None
        if isinstance(resume_from, CheckpointManifest):
            manifest = resume_from
        else:
            manifest = load_manifest(resume_from)
        if manifest.world != self.n_world:
            raise CheckpointError(
                f"checkpoint {manifest.path} was written by a "
                f"{manifest.world}-rank world; this config builds "
                f"{self.n_world} ranks")
        if manifest.step > nsteps:
            raise CheckpointError(
                f"checkpoint {manifest.path} is at step {manifest.step}, "
                f"beyond the requested {nsteps} steps")
        return manifest

    def _launch(self, program, nsteps: int, resume_from=None
                ) -> tuple[list, dict]:
        """Run ``program(world, ctx)`` on every rank of this driver's
        world — the one launch path of every driver. Returns the
        per-rank reports and the merged :class:`CoupledResult` fields."""
        if nsteps < 0:
            raise ValueError("nsteps must be >= 0")
        cfg = self.cfg
        resume = self._resolve_resume(resume_from, nsteps)
        ckpt = None
        if cfg.checkpoint_every > 0:
            if cfg.checkpoint_dir is None:
                raise ValueError(
                    "checkpoint_every > 0 requires checkpoint_dir")
            ckpt = CheckpointManager(cfg.checkpoint_dir, self.n_world)
        ctx = RunContext(setup=self.setup, cfg=cfg, nsteps=nsteps,
                         resume=resume, ckpt=ckpt)
        traffic = Traffic()
        scheduler = (DeterministicScheduler(cfg.schedule_seed)
                     if cfg.schedule_seed is not None else None)
        results = run_ranks(self.n_world, program, args=(ctx,),
                            timeout=cfg.timeout, traffic=traffic,
                            scheduler=scheduler, fault_plan=cfg.fault_plan,
                            transport=cfg.transport)
        timeline = None
        if cfg.trace:
            # every rank returned its own recorder (rank_main)
            recorders = [r.pop("recorder") for r in results]
            for rec in recorders:
                rec.validate()
            timeline = merge_timelines(recorders)
        rows = [r for r in results if r["role"] == "hs" and r["reporter"]]
        rows.sort(key=lambda r: r["row"])
        cus = [r for r in results if r["role"] == "cu"]
        return results, dict(rows=rows, cus=cus, traffic=traffic,
                             nsteps=nsteps, dt=cfg.rig.dt_outer,
                             timeline=timeline,
                             resumed_from=resume.step if resume else 0)

    def run(self, nsteps: int, resume_from=None) -> CoupledResult:
        """Run ``nsteps`` outer time steps of the coupled machine.

        ``resume_from`` restarts from a committed checkpoint set: a
        :class:`~repro.resilience.checkpoint.CheckpointManifest` or a
        path to a ``step-NNNNNN`` directory. The restarted run replays
        steps ``manifest.step+1 .. nsteps`` and is bitwise-identical
        to an uninterrupted run of the same config.
        """
        _reports, merged = self._launch(rank_main, nsteps, resume_from)
        return CoupledResult(**merged)

