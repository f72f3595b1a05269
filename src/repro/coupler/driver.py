"""The coupled Rig250 driver: Hydra Sessions + Coupler Units over
simulated MPI.

Reproduces the paper's Fig. 5 architecture: each blade row runs as a
Hydra Session on its own sub-communicator; one or more Coupler Units
sit between adjacent sessions on dedicated ranks and carry out the
sliding-plane transfer each physical time step. The driver builds all
static routing (who owns which interface node, which CU serves which
target segment) centrally, then launches the world and collects
monitors, timings, traffic and search statistics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro import op2
from repro.coupler.interface import SideGeometry, SlidingInterface
from repro.coupler.partitioning import segment_of
from repro.coupler.search import SearchStats
from repro.coupler.unit import CUAccounting, CUTransferEngine
from repro.hydra.gas import FlowState, primitives
from repro.hydra.problem import row_owners, row_problem
from repro.hydra.session import HydraSession
from repro.hydra.solver import HydraSolver, Numerics
from repro.mesh.annulus import make_row_mesh
from repro.mesh.rig250 import Rig250Config
from repro.op2.distribute import build_local_problem, build_serial_problem, plan_distribution
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointManifest,
    load_manifest,
)
from repro.smpi import FaultPlan, Traffic, run_ranks
from repro.telemetry.recorder import active_recorder, span as _tspan, use_recorder
from repro.telemetry.timeline import Timeline, TraceSession
from repro.util.atomicio import load_npz
from repro.util.timing import Timer

_TAG_DONOR = 9000
_TAG_RESULT = 9400


def _tag(base: int, k: int, direction: int) -> int:
    return base + 10 * k + direction


@dataclass
class CoupledRunConfig:
    """Everything needed to assemble and run a coupled compressor."""

    rig: Rig250Config
    #: MPI ranks per Hydra Session (int = same for every row)
    ranks_per_row: list[int] | int = 1
    cus_per_interface: int = 1
    search: str = "adt"
    #: cache donors across coupling rounds and re-validate instead of
    #: re-searching
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
    #: lazy loop-chain execution inside each Hydra Session (the solver's
    #: inner iteration chains; results stay bitwise-equal to eager)
    lazy: bool = False
    #: serialize ranks under a seeded deterministic schedule (None = off)
    schedule_seed: int | None = None
    #: record telemetry spans on every rank; the merged
    #: :class:`~repro.telemetry.timeline.Timeline` lands on the result
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
    #: ``REPRO_SMPI_TRANSPORT`` environment default. Tracing and
    #: deterministic schedules are thread-only; fault plans work on
    #: both transports (``crash_hard`` faults are process-only).
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
class _Direction:
    """Static routing of one transfer direction of one interface."""

    k: int
    direction: int          #: 0 = up->down, 1 = down->up
    src_row: int
    dst_row: int
    src_side: str           #: session side name on the src row
    dst_side: str
    cu_targets: list[np.ndarray]          #: per CU: flat target positions
    cu_send: list[dict[int, np.ndarray]]  #: per CU: dst world rank -> positions
    expected_cus: dict[int, list[int]]    #: dst world rank -> CU indices


@dataclass
class _Setup:
    """All static data shared read-only by the rank threads."""

    cfg: CoupledRunConfig
    meshes: list
    problems: list
    layouts: list            #: per row: list[RankLayout] or None (serial)
    row_ranks: list[list[int]]
    cu_ranks: list[list[int]]            #: per interface
    interfaces: list[SlidingInterface]
    directions: list[_Direction]
    nsteps: int
    n_world: int
    tracer: TraceSession | None = None
    #: committed checkpoint set to restart from (None = cold start)
    resume: CheckpointManifest | None = None
    #: checkpoint writer (None = checkpointing off)
    ckpt: CheckpointManager | None = None


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

    def coupler_wait_fraction(self) -> float:
        """max over rows of coupler-wait / total step time."""
        fractions = []
        for row in self.rows:
            total = row["timers"].get("physical_step", 0.0) \
                + row["timers"].get("coupler_wait", 0.0)
            if total > 0:
                fractions.append(row["timers"].get("coupler_wait", 0.0) / total)
        return max(fractions) if fractions else 0.0

    def checkpoint_overhead(self) -> float:
        """Worst-rank fraction of wall time spent writing checkpoints.

        max over rows of checkpoint_write / (physical_step +
        coupler_wait + checkpoint_write); 0.0 when checkpointing was
        off. The acceptance bar for ``checkpoint_every=5`` on the
        bench config is < 10%.
        """
        fractions = []
        for row in self.rows:
            ck = row["timers"].get("checkpoint_write", 0.0)
            total = (row["timers"].get("physical_step", 0.0)
                     + row["timers"].get("coupler_wait", 0.0) + ck)
            if total > 0:
                fractions.append(ck / total)
        return max(fractions) if fractions else 0.0

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
        marks: list[int] = []
        acc = 0
        for piece in pieces[:-1]:
            acc += piece.shape[1]
            marks.append(acc)
        return np.concatenate(pieces, axis=1), marks

    def total_search_stats(self) -> SearchStats:
        stats = SearchStats()
        for cu in self.cus:
            stats.merge(cu["stats"])
        return stats

    def interface_flux_error(self) -> float:
        """Worst per-round conservation error of any interface transfer.

        Each CU logs, per serve and direction, the sum of its targets'
        axial mass flux (``rho*u_x``, frame-invariant) plus the donor
        grid's mean; summing the target sums across all CUs of one
        (interface, direction) reconstructs the full target-side
        average, whose relative mismatch against the donor average is
        the transfer's conservation error for that round. Returns the
        max over rounds, directions and interfaces (0.0 when no flux
        logs were recorded).
        """
        worst = 0.0
        for k in {cu["interface"] for cu in self.cus}:
            members = [cu for cu in self.cus if cu["interface"] == k]
            for direction in (0, 1):
                per_cu = [[e for e in cu.get("flux_log", [])
                           if e[0] == direction] for cu in members]
                if not per_cu or not per_cu[0]:
                    continue
                for entries in zip(*per_cu):
                    total = sum(e[1] for e in entries)
                    count = sum(e[2] for e in entries)
                    donor_mean = entries[0][3]
                    if count == 0:
                        continue
                    scale = max(abs(donor_mean), 1e-300)
                    worst = max(worst,
                                abs(total / count - donor_mean) / scale)
        return worst


def balanced_ranks(rig: Rig250Config, total_ranks: int) -> list[int]:
    """Allocate HS ranks to rows proportional to their node counts.

    Load imbalance between Hydra Sessions "manifests as waiting times
    in the coupler due to the implicit synchronization" (paper §IV-B1);
    sizing each session's rank count by its mesh share is the first
    lever against it. Largest-remainder apportionment with a floor of
    one rank per row.
    """
    n_rows = rig.n_rows
    if total_ranks < n_rows:
        raise ValueError(
            f"need at least one rank per row: {total_ranks} < {n_rows}"
        )
    weights = np.array([
        row.n_nodes + (int(row.halo_in) + int(row.halo_out)) * row.nr * row.nt
        for row in rig.rows
    ], dtype=float)
    shares = weights / weights.sum() * total_ranks
    ranks = np.maximum(1, np.floor(shares).astype(int))
    # distribute the remainder to the largest fractional parts
    while ranks.sum() < total_ranks:
        frac = shares - ranks
        ranks[int(np.argmax(frac))] += 1
    while ranks.sum() > total_ranks:
        over = np.where(ranks > 1)[0]
        frac = shares[over] - ranks[over]
        ranks[over[int(np.argmin(frac))]] -= 1
    return ranks.tolist()


@dataclass(frozen=True)
class DriverSetup:
    """The shareable, read-only products of one case's problem setup.

    Everything :class:`CoupledDriver` builds before a run starts —
    meshes, initial problems, partition layouts, interface routing —
    packaged so identical cases (same :func:`setup_fingerprint`) can
    share one build instead of paying the setup cost per run. All
    members are treated as immutable: per-run state is copied out of
    ``problems`` by ``build_serial_problem``/``build_local_problem``,
    so concurrent runs over one setup are safe (the same contract the
    rank threads of a single run already rely on).
    """

    fingerprint: str
    meshes: list
    problems: list
    layouts: list
    node_owner_world: list
    row_ranks: list
    cu_ranks: list
    n_world: int
    interfaces: list
    directions: list


def _fingerprint_default(obj):
    """JSON fallback for config dataclass leaves (enums, odd types)."""
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        return name
    return repr(obj)


def setup_fingerprint(cfg: CoupledRunConfig) -> str:
    """Stable digest of every config field the problem setup depends on.

    Two configs with equal fingerprints build identical meshes,
    initial problems, partition layouts and interface routing, so a
    :class:`DriverSetup` built for one can drive the other. Numerics,
    outlet pressure, checkpointing, tracing and transport are run-time
    concerns and deliberately excluded — a service layer can therefore
    share one setup across tenants that vary those knobs.
    """
    payload = {
        "rig": dataclasses.asdict(cfg.rig),
        "ranks_per_row": cfg.ranks_of(),
        "cus_per_interface": cfg.cus_per_interface,
        "partition_scheme": cfg.partition_scheme,
        "inlet": dataclasses.asdict(cfg.inlet),
    }
    blob = json.dumps(payload, sort_keys=True, default=_fingerprint_default)
    return hashlib.sha256(blob.encode()).hexdigest()


def build_driver_setup(cfg: CoupledRunConfig) -> DriverSetup:
    """Build (only) the shareable setup products for ``cfg``."""
    return CoupledDriver(cfg).setup


class CoupledDriver:
    """Assembles and runs the coupled compressor simulation.

    Passing a prebuilt ``shared`` :class:`DriverSetup` (from
    :func:`build_driver_setup`, typically via the service layer's
    setup cache) skips mesh/problem/interface construction; the setup
    must carry the same :func:`setup_fingerprint` as ``cfg``.
    """

    def __init__(self, cfg: CoupledRunConfig,
                 shared: DriverSetup | None = None) -> None:
        self.cfg = cfg
        rig = cfg.rig
        if rig.n_rows < 2:
            raise ValueError("a coupled run needs at least 2 rows")
        for a, b in zip(rig.rows, rig.rows[1:]):
            if a.sector != b.sector:
                raise ValueError(
                    f"adjacent rows {a.name!r}/{b.name!r} have different "
                    f"sector angles (1/{a.sector} vs 1/{b.sector}); sliding "
                    f"planes require matching sectors (paper §I)"
                )
        if shared is not None:
            expect = setup_fingerprint(cfg)
            if shared.fingerprint != expect:
                raise ValueError(
                    f"shared DriverSetup fingerprint {shared.fingerprint[:12]}"
                    f"… does not match this config ({expect[:12]}…); it was "
                    f"built for a different case")
            self._adopt(shared)
            return
        self.meshes = [make_row_mesh(r) for r in rig.rows]
        # initial state per row, in the row's frame
        self.problems = []
        for row, mesh in zip(rig.rows, self.meshes):
            init = cfg.inlet.shifted_frame(row.wheel_speed)
            self.problems.append(row_problem(mesh, init))

        ranks = cfg.ranks_of()
        offset = 0
        self.row_ranks: list[list[int]] = []
        for n in ranks:
            if n < 1:
                raise ValueError("every row needs at least one rank")
            self.row_ranks.append(list(range(offset, offset + n)))
            offset += n
        self.cu_ranks: list[list[int]] = []
        for _k in range(rig.n_interfaces):
            self.cu_ranks.append(
                list(range(offset, offset + cfg.cus_per_interface)))
            offset += cfg.cus_per_interface
        self.n_world = offset

        # distribution layouts + node owners (world ranks) per row
        self.layouts: list = []
        self._node_owner_world: list[np.ndarray] = []
        for i, (gp, mesh, n) in enumerate(
                zip(self.problems, self.meshes, ranks)):
            if n == 1:
                self.layouts.append(None)
                self._node_owner_world.append(
                    np.full(mesh.n_nodes, self.row_ranks[i][0]))
            else:
                owners = row_owners(mesh, gp, n, cfg.partition_scheme)
                self.layouts.append(plan_distribution(gp, n, owners))
                self._node_owner_world.append(
                    np.asarray(owners["nodes"]) + self.row_ranks[i][0])

        self.interfaces, self.directions = self._build_interfaces()
        self.setup = DriverSetup(
            fingerprint=setup_fingerprint(cfg),
            meshes=self.meshes, problems=self.problems,
            layouts=self.layouts,
            node_owner_world=self._node_owner_world,
            row_ranks=self.row_ranks, cu_ranks=self.cu_ranks,
            n_world=self.n_world, interfaces=self.interfaces,
            directions=self.directions)

    def _adopt(self, shared: DriverSetup) -> None:
        """Drive this config off a prebuilt (cached) setup."""
        self.setup = shared
        self.meshes = shared.meshes
        self.problems = shared.problems
        self.layouts = shared.layouts
        self._node_owner_world = shared.node_owner_world
        self.row_ranks = shared.row_ranks
        self.cu_ranks = shared.cu_ranks
        self.n_world = shared.n_world
        self.interfaces = shared.interfaces
        self.directions = shared.directions

    # -- static interface routing -----------------------------------------
    def _side_geometry(self, row_idx: int, side: str) -> SideGeometry:
        mesh = self.meshes[row_idx]
        cfgrow = self.cfg.rig.rows[row_idx]
        grid = (mesh.iface_out_donor if side == "out" else mesh.iface_in_donor)
        flat = grid.ravel()
        return SideGeometry(
            grid_shape=grid.shape,
            y=mesh.coords[flat, 1].copy(),
            z=mesh.coords[flat, 2].copy(),
            circumference=cfgrow.circumference,
            frame_velocity=cfgrow.wheel_speed,
        )

    def _build_interfaces(self) -> tuple[list[SlidingInterface], list[_Direction]]:
        interfaces = []
        directions = []
        n_cu = self.cfg.cus_per_interface
        for k in range(self.cfg.rig.n_interfaces):
            up, down = k, k + 1
            iface = SlidingInterface(
                name=f"{self.cfg.rig.rows[up].name}/"
                     f"{self.cfg.rig.rows[down].name}",
                up=self._side_geometry(up, "out"),
                down=self._side_geometry(down, "in"),
            )
            interfaces.append(iface)
            for direction in (0, 1):
                if direction == 0:
                    src_row, dst_row = up, down
                    src_side, dst_side = "out", "in"
                    halo_grid = self.meshes[down].iface_in_halo
                    geo = iface.down
                else:
                    src_row, dst_row = down, up
                    src_side, dst_side = "in", "out"
                    halo_grid = self.meshes[up].iface_out_halo
                    geo = iface.up
                owner = self._node_owner_world[dst_row][halo_grid.ravel()]
                seg = segment_of(geo.y, geo.circumference, n_cu)
                cu_targets = [np.nonzero(seg == c)[0] for c in range(n_cu)]
                cu_send: list[dict[int, np.ndarray]] = []
                expected: dict[int, list[int]] = {}
                for c in range(n_cu):
                    routing: dict[int, np.ndarray] = {}
                    pos = cu_targets[c]
                    for r in np.unique(owner[pos]):
                        routing[int(r)] = pos[owner[pos] == r]
                        expected.setdefault(int(r), []).append(c)
                    cu_send.append(routing)
                directions.append(_Direction(
                    k=k, direction=direction, src_row=src_row,
                    dst_row=dst_row, src_side=src_side, dst_side=dst_side,
                    cu_targets=cu_targets, cu_send=cu_send,
                    expected_cus=expected,
                ))
        return interfaces, directions

    # -- execution ---------------------------------------------------------
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

    @staticmethod
    def _validate_transport(cfg: CoupledRunConfig) -> str:
        """Resolve the transport; reject thread-only feature requests.

        Tracing binds shared recorder objects across rank threads and
        deterministic schedules hook the threaded communicator —
        neither can cross a fork. Fault plans *do* cross the fork
        (``run_ranks`` ships them to each child and merges fire-once
        state back), so they pass through here and are validated by
        :meth:`~repro.smpi.faults.FaultPlan.validate_for_transport`
        against the resolved transport's rules (``crash_hard`` is
        process-only, process message faults must pin ``src``).
        Failing here, before any rank starts, beats a confusing
        mid-run error.
        """
        from repro.smpi.errors import TransportError
        from repro.smpi.transport import resolve_transport

        resolved = resolve_transport(cfg.transport)
        if resolved == "process":
            unsupported = [
                name for name, on in (
                    ("trace", cfg.trace),
                    ("schedule_seed", cfg.schedule_seed is not None))
                if on
            ]
            if unsupported:
                raise TransportError(
                    f"process transport does not support "
                    f"{', '.join(unsupported)}; these are threaded-"
                    f"transport features — drop them or set "
                    f"transport='thread'")
        if cfg.fault_plan is not None:
            cfg.fault_plan.validate_for_transport(resolved)
        return resolved

    def run(self, nsteps: int, resume_from=None) -> CoupledResult:
        """Run ``nsteps`` outer time steps of the coupled machine.

        ``resume_from`` restarts from a committed checkpoint set: a
        :class:`~repro.resilience.checkpoint.CheckpointManifest` or a
        path to a ``step-NNNNNN`` directory. The restarted run replays
        steps ``manifest.step+1 .. nsteps`` and is bitwise-identical
        to an uninterrupted run of the same config.
        """
        if nsteps < 0:
            raise ValueError("nsteps must be >= 0")
        cfg = self.cfg
        self._validate_transport(cfg)
        resume = self._resolve_resume(resume_from, nsteps)
        ckpt = None
        if cfg.checkpoint_every > 0:
            if cfg.checkpoint_dir is None:
                raise ValueError(
                    "checkpoint_every > 0 requires checkpoint_dir")
            ckpt = CheckpointManager(cfg.checkpoint_dir, self.n_world)
        setup = _Setup(
            cfg=cfg, meshes=self.meshes, problems=self.problems,
            layouts=self.layouts, row_ranks=self.row_ranks,
            cu_ranks=self.cu_ranks, interfaces=self.interfaces,
            directions=self.directions, nsteps=nsteps,
            n_world=self.n_world,
            tracer=TraceSession() if cfg.trace else None,
            resume=resume, ckpt=ckpt,
        )
        traffic = Traffic()
        scheduler = None
        if cfg.schedule_seed is not None:
            from repro.smpi import DeterministicScheduler

            scheduler = DeterministicScheduler(cfg.schedule_seed)
        results = run_ranks(self.n_world, _rank_main, args=(setup,),
                            timeout=cfg.timeout, traffic=traffic,
                            scheduler=scheduler, fault_plan=cfg.fault_plan,
                            transport=cfg.transport)
        rows = [r for r in results if r["role"] == "hs" and r["reporter"]]
        cus = [r for r in results if r["role"] == "cu"]
        rows.sort(key=lambda r: r["row"])
        timeline = None
        if setup.tracer is not None:
            for rec in setup.tracer.recorders():
                rec.validate()
            timeline = setup.tracer.timeline()
        return CoupledResult(rows=rows, cus=cus, traffic=traffic,
                             nsteps=nsteps, dt=cfg.rig.dt_outer,
                             timeline=timeline,
                             resumed_from=resume.step if resume else 0)


# --------------------------------------------------------------------------
# rank-side execution
# --------------------------------------------------------------------------

def _role_of(rank: int, setup: _Setup) -> tuple[str, int, int]:
    for i, ranks in enumerate(setup.row_ranks):
        if rank in ranks:
            return ("hs", i, ranks.index(rank))
    for k, ranks in enumerate(setup.cu_ranks):
        if rank in ranks:
            return ("cu", k, ranks.index(rank))
    raise RuntimeError(f"rank {rank} has no role")  # pragma: no cover


def _rank_main(world, setup: _Setup):
    role, idx, sub_idx = _role_of(world.rank, setup)
    if setup.tracer is not None:
        # bind this rank thread's recorder before any instrumented call
        use_recorder(setup.tracer.recorder_for(world.rank))
    color = idx if role == "hs" else len(setup.row_ranks) + 100 + world.rank
    sub = world.split(color)
    op2.set_config(partial_halos=setup.cfg.partial_halos,
                   grouped_halos=setup.cfg.grouped_halos,
                   backend=op2.current_config().backend,
                   sanitize=setup.cfg.sanitize,
                   lazy=setup.cfg.lazy,
                   trace=setup.tracer is not None)
    if role == "hs":
        return _hs_main(world, sub, idx, setup)
    return _cu_main(world, idx, sub_idx, setup)


def _open_session(sub, row_idx: int, setup: _Setup) -> HydraSession:
    """This rank's piece of row ``row_idx`` as a ready Hydra Session:
    local problem -> :class:`HydraSolver` -> :class:`HydraSession`."""
    cfg = setup.cfg
    rowcfg = cfg.rig.rows[row_idx]
    gp = setup.problems[row_idx]
    layouts = setup.layouts[row_idx]
    if layouts is None:
        local = build_serial_problem(gp)
        layout = None
    else:
        layout = layouts[sub.rank]
        local = build_local_problem(gp, layout, sub)

    inlet = (cfg.inlet.shifted_frame(rowcfg.wheel_speed)
             if not rowcfg.halo_in else None)
    p_out = cfg.p_out if not rowcfg.halo_out else None
    solver = HydraSolver(local, rowcfg, cfg.numerics,
                         dt_outer=cfg.rig.dt_outer, inlet=inlet, p_out=p_out)
    return HydraSession(solver, setup.meshes[row_idx], layout)


def _hs_main(world, sub, row_idx: int, setup: _Setup):
    cfg = setup.cfg
    rig = cfg.rig
    session = _open_session(sub, row_idx, setup)
    solver = session.solver

    every = max(1, cfg.couple_every)
    probe = _ProbeRecorder(solver, session)
    start_step = 0
    if setup.resume is not None:
        _hs_restore(world, solver, probe, setup.resume)
        start_step = setup.resume.step
    else:
        _hs_couple(world, session, row_idx, setup, t=0.0)
    for step in range(start_step + 1, setup.nsteps + 1):
        world.notify_step(step)
        solver.advance_physical()
        if step % every == 0:
            _hs_couple(world, session, row_idx, setup,
                       t=step * rig.dt_outer)
            if solver.num.guard:
                # corrupted sliding-plane traffic must trip here, at
                # the step it arrives — never inside a checkpoint set
                solver.check_health()
        probe.record()
        if setup.ckpt is not None and step % cfg.checkpoint_every == 0:
            with solver.timers["checkpoint_write"]:
                _coordinated_checkpoint(
                    world, setup, step, _hs_member_payload(solver, probe))

    return _hs_report(world, sub, solver, session, row_idx, setup,
                      probe)


def _hs_member_payload(solver: HydraSolver,
                       probe: "_ProbeRecorder") -> dict:
    """This HS rank's checkpoint member: full BDF state + probes.

    ``data_with_halos`` round-trips the float64 payload exactly;
    restore marks halos stale so the re-exchange reproduces them
    bitwise anyway.
    """
    if probe.history:
        hist = np.stack(probe.history)
    else:
        hist = np.zeros((0, probe._local.size))
    return {
        "q": solver.q.data_with_halos,
        "qn": solver.qn.data_with_halos,
        "qnm1": solver.qnm1.data_with_halos,
        "clock": np.array([solver.time, float(solver.step)]),
        "probe": hist,
    }


def _hs_restore(world, solver: HydraSolver, probe: "_ProbeRecorder",
                manifest: CheckpointManifest) -> None:
    """Load this HS rank's member of a committed checkpoint set."""
    with load_npz(manifest.member(world.rank)) as archive:
        for name, dat in (("q", solver.q), ("qn", solver.qn),
                          ("qnm1", solver.qnm1)):
            data = archive[name]
            if data.shape != dat.data_with_halos.shape:
                raise CheckpointError(
                    f"member field {name!r} has shape {data.shape}, "
                    f"solver expects {dat.data_with_halos.shape}")
            dat.data_with_halos[:] = data
            dat.mark_halo_stale()
        solver.time = float(archive["clock"][0])
        solver.step = int(archive["clock"][1])
        solver._pseudo_dt = None
        probe.history = [row.copy() for row in archive["probe"]]


def _coordinated_checkpoint(world, setup: _Setup, step: int,
                            payload: dict) -> None:
    """Write one consistent checkpoint set across the whole world.

    Stage members -> barrier -> rank 0 hashes + commits -> barrier.
    The barriers make the set *coordinated*: no rank proceeds into
    step N+1 physics until the step-N set is either fully committed
    or (on a crash) left as an ignorable ``.tmp`` staging dir.
    """
    ckpt = setup.ckpt
    with _tspan("checkpoint", "resilience.checkpoint_write", step=step):
        if world.rank == 0:
            ckpt.prepare(step)
        world.barrier()
        ckpt.write_member(step, world.rank, **payload)
        world.barrier()
        if world.rank == 0:
            ckpt.commit(step, meta={
                "nsteps": setup.nsteps,
                "couple_every": setup.cfg.couple_every,
            })
        world.barrier()
    rec = active_recorder()
    if rec is not None:
        rec.counter("resilience.checkpoint_write")


def _hs_couple(world, session: HydraSession, row_idx: int, setup: _Setup,
               t: float) -> None:
    """One coupling round: send donors, receive and apply halo values."""
    cfg = setup.cfg
    solver = session.solver
    # 1. ship donor data to every CU of each interface we feed
    for d in setup.directions:
        if d.src_row != row_idx:
            continue
        with _tspan("gather", "coupler.gather", interface=d.k,
                    direction=d.direction):
            positions, values = session.donor_values(d.src_side)
            if cfg.hs_device == "gpu":
                # PCIe accounting: without GPU-side gather the full state
                # array crosses the bus; with GG only the gathered values do
                nbytes = (values.nbytes if cfg.gpu_gather
                          else solver.q.data_with_halos.nbytes)
                world.set_phase("pcie")
                world.traffic.record(world.rank, world.rank, nbytes)
            world.set_phase(f"coupler.gather:{d.k}:{d.direction}")
            for cu_rank in setup.cu_ranks[d.k]:
                world.send((positions, values), dest=cu_rank,
                           tag=_tag(_TAG_DONOR, d.k, d.direction))
    # 2. collect interpolated halo values
    wait = solver.timers["coupler_wait"]
    for d in setup.directions:
        if d.dst_row != row_idx:
            continue
        for c in d.expected_cus.get(world.rank, []):
            wait.start()
            positions, values = world.recv(
                source=setup.cu_ranks[d.k][c],
                tag=_tag(_TAG_RESULT, d.k, d.direction))
            wait.stop()
            if positions.size:
                with _tspan("apply", "coupler.apply", interface=d.k,
                            direction=d.direction):
                    session.apply_halo_values(d.dst_side, positions, values)
    if session.sides:
        session.finish_coupling()
    world.set_phase("compute")


def _hs_report(world, sub, solver: HydraSolver, session: HydraSession,
               row_idx: int, setup: _Setup,
               probe: "_ProbeRecorder | None" = None) -> dict:
    xs, ps = solver.station_pressure()
    wiggle = _interface_wiggle(sub, solver, session)
    report = {
        "role": "hs",
        "row": row_idx,
        "name": setup.cfg.rig.rows[row_idx].name,
        "reporter": sub.rank == 0,
        "stations_x": xs.tolist(),
        "stations_p": ps.tolist(),
        "timers": solver.timers.as_dict(),
        "wiggle": wiggle,
        "steps": solver.step,
        "midcut_p": _mid_cut(sub, solver, session),
        "plane_mdot_in": _plane_mass_flow(sub, solver, session, "in"),
        "plane_mdot_out": _plane_mass_flow(sub, solver, session, "out"),
        "unsteadiness": probe.unsteadiness(sub) if probe is not None
        else float("nan"),
    }
    return report


class _ProbeRecorder:
    """Temporal pressure probes at a row's exit station (mid radius).

    The paper's Fig. 10 notes "strong unsteadiness in the large axial
    gaps downstream" — this recorder captures the per-step pressure at
    the row's last core station so the run can report a temporal-
    standard-deviation unsteadiness measure per row.
    """

    def __init__(self, solver: HydraSolver, session: HydraSession) -> None:
        self.solver = solver
        mesh = session.mesh
        cfg = mesh.config
        iz = cfg.nr // 2
        ix = mesh.ix0_core + cfg.nx - 1
        ids = np.array([mesh.node_id(iz, it, ix) for it in range(cfg.nt)],
                       dtype=np.int64)
        _pos, self._local = session._global_to_local(ids)
        self.history: list[np.ndarray] = []

    def record(self) -> None:
        q = self.solver.q.data_with_halos[self._local]
        self.history.append(primitives(q)["p"].copy())

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
        if sub.size > 1:
            pieces = sub.allgather(local)
            total = sum(p[0] for p in pieces)
            count = sum(p[1] for p in pieces)
        else:
            total, count = local
        return total / count if count else 0.0


def _plane_mass_flow(sub, solver: HydraSolver, session: HydraSession,
                     side: str) -> float | None:
    """Axial mass flow through a sliding-interface plane (collective).

    Integrates rho*u_x over the plane station's dual faces; None when
    the row has no sliding plane on that side (a true BC instead).
    """
    mesh = session.mesh
    cfg = mesh.config
    if side == "in":
        if not cfg.halo_in:
            return None
        grid = mesh.iface_in_plane
    else:
        if not cfg.halo_out:
            return None
        grid = mesh.iface_out_plane
    dy = cfg.circumference / cfg.nt
    dz = (cfg.r_outer - cfg.r_inner) / (cfg.nr - 1)
    dz_eff = np.full(cfg.nr, dz)
    dz_eff[0] *= 0.5
    dz_eff[-1] *= 0.5
    area = np.broadcast_to((dz_eff * dy)[:, None],
                           (cfg.nr, cfg.nt)).ravel()
    pos, local = session._global_to_local(grid.ravel())
    mdot = float(np.sum(solver.q.data_with_halos[local, 1] * area[pos]))
    if sub.size > 1:
        mdot = sub.allreduce(mdot, "sum")
    return mdot


def _mid_cut(sub, solver: HydraSolver, session: HydraSession) -> np.ndarray:
    """Static pressure on the mid-radius cylindrical cut, (nt, nx core).

    Collective over the session: each rank contributes the cut nodes it
    owns; the assembled field is Fig. 10's surface for this row.
    """
    mesh = session.mesh
    cfg = mesh.config
    iz = cfg.nr // 2
    ids = np.array(
        [[mesh.node_id(iz, it, mesh.ix0_core + ix) for ix in range(cfg.nx)]
         for it in range(cfg.nt)], dtype=np.int64)
    pos, local = session._global_to_local(ids.ravel())
    p_local = primitives(solver.q.data_with_halos[local])["p"]
    if sub.size > 1:
        pieces = sub.allgather((pos, p_local))
    else:
        pieces = [(pos, p_local)]
    out = np.full(ids.size, np.nan)
    for ppos, values in pieces:
        out[ppos] = values
    return out.reshape(cfg.nt, cfg.nx)


def _interface_wiggle(sub, solver: HydraSolver, session: HydraSession) -> float:
    """Relative jump between halo-layer and plane values.

    The halo layer is interpolated from the neighbour's interior at the
    same axial station as the donor layer; a healthy sliding-plane
    treatment keeps the solution continuous (paper Fig. 10's "absence
    of wiggles"), so the halo-to-plane difference should be of the
    order of the flow's own axial variation, not larger.
    """
    worst = 0.0
    mesh = session.mesh
    q = solver.q.data_with_halos
    for side_name, info in session.sides.items():
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


def _cu_main(world, k: int, cu_index: int, setup: _Setup):
    cfg = setup.cfg
    iface = setup.interfaces[k]
    acct = CUAccounting()
    my_dirs = [d for d in setup.directions if d.k == k]
    rig = setup.cfg.rig
    every = max(1, cfg.couple_every)
    serve = Timer(name="serve", cat="coupler.serve")
    serve_compute = Timer(name="serve_compute", cat="coupler.serve_compute")
    ck_timer = Timer(name="checkpoint_write",
                     cat="resilience.checkpoint_write")

    engines: dict[int, CUTransferEngine] = {}
    for d in my_dirs:
        src = "up" if d.direction == 0 else "down"
        dst = "down" if d.direction == 0 else "up"
        engines[d.direction] = CUTransferEngine(
            iface, src, dst, subset=d.cu_targets[cu_index],
            search_kind=cfg.search, incremental=cfg.incremental,
            interp=cfg.interp, native=cfg.interp_native)

    def serve_round(t: float) -> None:
        serve.start()
        for d in my_dirs:
            # assemble donor grid from every src-row rank's piece
            geo = iface.side("up" if d.direction == 0 else "down")
            n_grid = geo.grid_shape[0] * geo.grid_shape[1]
            donors = np.zeros((n_grid, 5))
            for src_rank in setup.row_ranks[d.src_row]:
                positions, values = world.recv(
                    source=src_rank, tag=_tag(_TAG_DONOR, d.k, d.direction),
                    timeout=cfg.cu_request_timeout)
                if positions.size:
                    donors[positions] = values
            serve_compute.start()
            result = engines[d.direction].serve(donors, t)
            acct.stats.merge(result.stats)
            acct.flux_log.append((d.direction, result.flux_sum,
                                  int(result.positions.size),
                                  result.donor_flux_mean))
            world.set_phase(f"coupler.scatter:{d.k}:{d.direction}")
            # result.positions is ascending (np.nonzero order), so the
            # per-target row lookup is one vectorized binary search
            for dst_rank, positions in d.cu_send[cu_index].items():
                rows = np.searchsorted(result.positions, positions)
                world.send((positions, result.values[rows]), dest=dst_rank,
                           tag=_tag(_TAG_RESULT, d.k, d.direction))
            serve_compute.stop()
        serve.stop()
        acct.rounds += 1

    # the CU walks the same per-step schedule as the sessions so both
    # sides hit fault-injection step marks and checkpoint barriers in
    # the same order
    start_step = 0
    if setup.resume is not None:
        _cu_restore(world, acct, setup.resume, engines)
        start_step = setup.resume.step
    else:
        for engine in engines.values():
            # search-structure construction cost, reported once per run
            acct.stats.build_ops += engine.stats.build_ops
        serve_round(t=0.0)
    for step in range(start_step + 1, setup.nsteps + 1):
        world.notify_step(step)
        if step % every == 0:
            serve_round(t=step * rig.dt_outer)
        if setup.ckpt is not None and step % cfg.checkpoint_every == 0:
            with ck_timer:
                _coordinated_checkpoint(world, setup, step,
                                        _cu_member_payload(acct, engines))
    acct.serve_seconds = serve.elapsed
    acct.serve_compute_seconds = serve_compute.elapsed
    return {
        "role": "cu",
        "interface": k,
        "cu_index": cu_index,
        "rounds": acct.rounds,
        "stats": acct.stats,
        "serve_seconds": acct.serve_seconds,
        "serve_compute_seconds": acct.serve_compute_seconds,
        "checkpoint_seconds": ck_timer.elapsed,
        "interp": cfg.interp,
        "flux_log": list(acct.flux_log),
    }


def _cu_member_payload(acct: CUAccounting,
                       engines: dict[int, CUTransferEngine]) -> dict:
    """A CU rank's checkpoint member: counters + donor caches.

    Restoring them makes a resumed run's merged CU report (rounds,
    search statistics, flux log) identical to an uninterrupted run's;
    the per-direction incremental donor caches are included so the
    resumed run's re-validation trajectory — and therefore every
    comparison counter — replays bitwise.
    """
    s = acct.stats
    payload = {
        "rounds": np.array([acct.rounds], dtype=np.int64),
        "stats": np.array([s.queries, s.comparisons, s.build_ops, s.misses,
                           s.cache_hits, s.revalidated, s.researched,
                           s.comparisons_saved], dtype=np.int64),
        "flux_log": np.array(acct.flux_log,
                             dtype=np.float64).reshape(-1, 4),
    }
    for direction, engine in engines.items():
        cached, baseline = engine.cache_state()
        payload[f"cache_d{direction}"] = cached
        payload[f"baseline_d{direction}"] = np.array([baseline])
    return payload


def _cu_restore(world, acct: CUAccounting,
                manifest: CheckpointManifest,
                engines: dict[int, CUTransferEngine]) -> None:
    with load_npz(manifest.member(world.rank)) as archive:
        acct.rounds = int(archive["rounds"][0])
        acct.stats.merge(SearchStats(*(int(v) for v in archive["stats"])))
        acct.flux_log = [
            (int(d), float(fs), int(n), float(dm))
            for d, fs, n, dm in archive["flux_log"]]
        for direction, engine in engines.items():
            engine.restore_cache_state(
                archive[f"cache_d{direction}"].astype(np.int64),
                float(archive[f"baseline_d{direction}"][0]))
