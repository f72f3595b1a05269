"""The mini-Hydra solver: residual assembly and dual time stepping.

One :class:`HydraSolver` advances one blade row (one Hydra Session's
flow domain). All computation goes through OP2 par_loops, so the same
solver runs serially or distributed, under any compute backend, purely
by how its :class:`~repro.op2.distribute.LocalProblem` was built and
what the OP2 config says.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import op2
from repro.hydra.gas import GAMMA, FlowState, primitives
from repro.hydra.kernels import KERNELS
from repro.mesh.config import RowConfig
from repro.op2.distribute import LocalProblem
from repro.telemetry.recorder import active_recorder, span as _tspan, timed
from repro.util.atomicio import atomic_savez, load_npz


class SolverDivergence(RuntimeError):
    """The solution state went unphysical (NaN/Inf or runaway growth).

    Raised by the in-run health guard (``Numerics.guard=True``) at a
    physical-step boundary *before* garbage can propagate across
    sliding planes into neighbouring rows. Carries the ``step`` the
    check fired at and a ``reason`` string; the resilience supervisor
    treats it as a recoverable fault (rollback to checkpoint with CFL
    reduction).
    """

    def __init__(self, message: str, step: int | None = None,
                 reason: str = "") -> None:
        super().__init__(message)
        self.step = step
        self.reason = reason


@dataclass
class Numerics:
    """Numerical parameters of the dual time-stepping scheme."""

    gamma: float = GAMMA
    cfl: float = 0.7
    #: inner (pseudo-time) iterations per physical step
    inner_iters: int = 8
    #: low-storage Runge-Kutta stage coefficients
    rk_coeffs: tuple[float, ...] = (0.25, 1.0 / 3.0, 0.5, 1.0)
    #: implicit residual smoothing: eps > 0 enables it (Hydra's classic
    #: convergence accelerator — raises the stable CFL roughly by
    #: sqrt(1 + 4*eps)); Jacobi iterations per application
    smooth_eps: float = 0.0
    smooth_iters: int = 2
    #: compute backend override (None = thread config default)
    backend: str | None = None
    #: in-run health guard: check the state for NaN/Inf and runaway
    #: magnitude after every physical step, raising
    #: :class:`SolverDivergence` instead of propagating garbage
    guard: bool = False
    #: |q| beyond this is declared divergent (guard only)
    divergence_limit: float = 1e6

    def __post_init__(self) -> None:
        if self.cfl <= 0:
            raise ValueError(f"cfl must be > 0, got {self.cfl}")
        if self.inner_iters < 1:
            raise ValueError(f"inner_iters must be >= 1, got {self.inner_iters}")
        if self.divergence_limit <= 0:
            raise ValueError(
                f"divergence_limit must be > 0, got {self.divergence_limit}")


class HydraSolver:
    """Dual time-stepping URANS-style solver for one blade row."""

    def __init__(self, local: LocalProblem, config: RowConfig,
                 numerics: Numerics | None = None,
                 dt_outer: float = 1e-3,
                 inlet: FlowState | None = None,
                 p_out: float | None = None) -> None:
        self.local = local
        self.config = config
        self.num = numerics or Numerics()
        self.dt_outer = float(dt_outer)
        self.time = 0.0
        self.step = 0
        #: phase totals in seconds (``physical_step``, and what the
        #: coupled run's rank programs add), fed by ``telemetry.timed``
        self.timers: dict[str, float] = {}

        s = local.sets
        d = local.dats
        self.nodes = s["nodes"]
        self.edges = s["edges"]
        self.q = d["q"]
        self.qk = d["qk"]
        self.qn = d["qn"]
        self.qnm1 = d["qnm1"]
        self.res = d["res"]
        self.has_inlet = "inlet" in s
        self.has_outlet = "outlet" in s
        if self.has_inlet and inlet is None:
            raise ValueError(
                f"row {config.name!r} has an inlet boundary; supply `inlet`"
            )
        if self.has_outlet and p_out is None:
            raise ValueError(
                f"row {config.name!r} has an outlet boundary; supply `p_out`"
            )

        # runtime constants as Globals (OP2 READ args)
        self.g_gam = op2.Global(1, self.num.gamma, "gam")
        self.g_cfl = op2.Global(1, self.num.cfl, "cfl")
        self.g_coef = op2.Global(1, 0.0, "coef")
        self.g_wdual = op2.Global(3, [0.0, 0.0, 0.0], "wdual")
        if inlet is not None:
            self.g_qin = op2.Global(
                4, [inlet.rho, inlet.ux, inlet.uy, inlet.uz], "qin"
            )
        else:
            self.g_qin = None
        self.g_pout = op2.Global(1, p_out if p_out is not None else 1.0, "pout")
        self.g_hmin = op2.Global(1, config.min_spacing, "hmin")

        # blade-force parameters: [rate, v_target, wake_amp, k_wave, f_axial]
        k_wave = config.blade_count / config.r_mid
        f_axial = config.work_coeff * self.num.gamma / (config.x1 - config.x0)
        rate = config.force_rate if (config.turning_velocity != 0.0
                                     or f_axial != 0.0) else 0.0
        self.g_blade = op2.Global(
            5, [rate, config.turning_velocity, config.wake_amplitude,
                k_wave, f_axial], "bladeprm"
        )
        self.blades_active = rate != 0.0 or f_axial != 0.0
        self._pseudo_dt: float | None = None
        self._steady = False
        if self.num.smooth_eps > 0.0:
            self.g_smooth = op2.Global(1, self.num.smooth_eps, "smooth_eps")
            self._res_s = op2.Dat(self.nodes, 5, name="res_s")
            self._smooth_acc = op2.Dat(self.nodes, 5, name="smooth_acc")
        else:
            self.g_smooth = None

    # -- residual -------------------------------------------------------
    def spatial_residual(self) -> None:
        """Assemble the spatial residual: fluxes, walls, BCs, blade force."""
        b = self.num.backend
        lp = self.local
        op2.par_loop(KERNELS["zero_res"], self.nodes,
                     self.res.arg(op2.WRITE), backend=b)
        pedge = lp.maps["pedge"]
        op2.par_loop(KERNELS["flux_edge"], self.edges,
                     self.q.arg(op2.READ, pedge, 0),
                     self.q.arg(op2.READ, pedge, 1),
                     lp.dats["edgew"].arg(op2.READ),
                     self.res.arg(op2.INC, pedge, 0),
                     self.res.arg(op2.INC, pedge, 1),
                     self.g_gam.arg(op2.READ), backend=b)
        op2.par_loop(KERNELS["wall_flux"], lp.sets["wall"],
                     self.q.arg(op2.READ, lp.maps["pwall"], 0),
                     lp.dats["wall_nz"].arg(op2.READ),
                     self.res.arg(op2.INC, lp.maps["pwall"], 0),
                     self.g_gam.arg(op2.READ), backend=b)
        if self.has_inlet:
            op2.par_loop(KERNELS["inlet_flux"], lp.sets["inlet"],
                         self.q.arg(op2.READ, lp.maps["pinlet"], 0),
                         lp.dats["inlet_area"].arg(op2.READ),
                         self.res.arg(op2.INC, lp.maps["pinlet"], 0),
                         self.g_gam.arg(op2.READ), self.g_qin.arg(op2.READ),
                         backend=b)
        if self.has_outlet:
            op2.par_loop(KERNELS["outlet_flux"], lp.sets["outlet"],
                         self.q.arg(op2.READ, lp.maps["poutlet"], 0),
                         lp.dats["outlet_area"].arg(op2.READ),
                         self.res.arg(op2.INC, lp.maps["poutlet"], 0),
                         self.g_gam.arg(op2.READ), self.g_pout.arg(op2.READ),
                         backend=b)
        if self.blades_active:
            op2.par_loop(KERNELS["blade_force"], self.nodes,
                         self.q.arg(op2.READ),
                         lp.dats["xyz"].arg(op2.READ),
                         lp.dats["vol"].arg(op2.READ),
                         self.res.arg(op2.INC),
                         self.g_blade.arg(op2.READ), backend=b)

    # -- time stepping -----------------------------------------------------
    def pseudo_dt(self) -> float:
        """Global minimum stable pseudo-time step (collective).

        Capped at half the physical step (the BDF dual source adds a
        stiff ~1.5/dt term to the pseudo-time operator) and at the
        blade-force relaxation scale 1/rate — either cap, if violated,
        would push the explicit RK outside its stability region.
        """
        dtmin = op2.Global(1, np.inf, "dtmin")
        op2.par_loop(KERNELS["local_dt"], self.nodes,
                     self.q.arg(op2.READ),
                     self.g_hmin.arg(op2.READ),
                     self.g_gam.arg(op2.READ), self.g_cfl.arg(op2.READ),
                     dtmin.arg(op2.MIN), backend=self.num.backend)
        dtau = dtmin.value
        if not self._steady:
            dtau = min(dtau, 0.5 * self.dt_outer)
        rate = float(self.g_blade.data[0])
        if rate > 0.0:
            dtau = min(dtau, 1.0 / rate)
        return dtau

    def _dual_weights(self) -> None:
        """Set the BDF weights (BDF1 on the very first physical step)."""
        idt = 1.0 / self.dt_outer
        if self.step == 0:
            self.g_wdual.data[:] = np.array([1.0, -1.0, 0.0]) * idt
        else:
            self.g_wdual.data[:] = np.array([1.5, -2.0, 0.5]) * idt

    def inner_iteration(self) -> None:
        """One pseudo-time RK cycle towards the implicit physical step.

        The whole cycle is declared as one loop chain: under
        ``Config.lazy`` (``enabled=None`` keeps eager mode untouched
        otherwise) the chain analyzer elides the per-map re-exchanges
        of ``q`` across the residual loops and batches what remains;
        each loop still runs on its own, in program order —
        bitwise-identically to eager.
        """
        with _tspan("inner_iteration", "hydra.inner", step=self.step):
            with op2.loop_chain("hydra.inner", enabled=None):
                self._inner_iteration()

    def _inner_iteration(self) -> None:
        b = self.num.backend
        lp = self.local
        op2.par_loop(KERNELS["save_state"], self.nodes,
                     self.q.arg(op2.READ), self.qk.arg(op2.WRITE), backend=b)
        if self._pseudo_dt is None:
            self._pseudo_dt = self.pseudo_dt()
        for alpha in self.num.rk_coeffs:
            self.spatial_residual()
            op2.par_loop(KERNELS["dual_source"], self.nodes,
                         self.q.arg(op2.READ), self.qn.arg(op2.READ),
                         self.qnm1.arg(op2.READ), self.res.arg(op2.INC),
                         lp.dats["vol"].arg(op2.READ),
                         self.g_wdual.arg(op2.READ), backend=b)
            if self.g_smooth is not None:
                self._smooth_residual()
            self.g_coef.value = alpha * self._pseudo_dt
            op2.par_loop(KERNELS["rk_stage"], self.nodes,
                         self.qk.arg(op2.READ), self.res.arg(op2.READ),
                         lp.dats["vol"].arg(op2.READ),
                         lp.dats["mask"].arg(op2.READ),
                         self.q.arg(op2.WRITE), self.g_coef.arg(op2.READ),
                         backend=b)

    def _smooth_residual(self) -> None:
        """Implicit residual smoothing by Jacobi iteration (in place)."""
        b = self.num.backend
        lp = self.local
        pedge = lp.maps["pedge"]
        self._res_s.copy_from(self.res)
        self._smooth_acc.zero()
        for _ in range(self.num.smooth_iters):
            op2.par_loop(KERNELS["smooth_gather"], self.edges,
                         self._res_s.arg(op2.READ, pedge, 0),
                         self._res_s.arg(op2.READ, pedge, 1),
                         self._smooth_acc.arg(op2.INC, pedge, 0),
                         self._smooth_acc.arg(op2.INC, pedge, 1), backend=b)
            op2.par_loop(KERNELS["smooth_update"], self.nodes,
                         self.res.arg(op2.READ),
                         self._smooth_acc.arg(op2.RW),
                         lp.dats["deg"].arg(op2.READ),
                         self.g_smooth.arg(op2.READ),
                         self._res_s.arg(op2.WRITE), backend=b)
        self.res.copy_from(self._res_s)

    def advance_physical(self) -> None:
        """One outer (physical) time step: shift history, converge inner."""
        with timed(self.timers, "physical_step", "hydra.step"):
            op2.par_loop(KERNELS["shift_history"], self.nodes,
                         self.q.arg(op2.READ), self.qn.arg(op2.RW),
                         self.qnm1.arg(op2.WRITE), backend=self.num.backend)
            self._dual_weights()
            self._pseudo_dt = None
            for _ in range(self.num.inner_iters):
                self.inner_iteration()
            self.step += 1
            self.time += self.dt_outer
            # under Config.lazy the step's loops are still pending: run
            # them inside the timer, not in the coupler's first host read
            op2.flush_chain()
        if self.num.guard:
            self.check_health()

    def run(self, nsteps: int) -> None:
        for _ in range(nsteps):
            self.advance_physical()

    # -- health guard ---------------------------------------------------
    def check_health(self) -> None:
        """Raise :class:`SolverDivergence` if the state is unphysical.

        Two checks, both on this rank's owned values: any NaN/Inf
        (e.g. from a corrupted sliding-plane transfer), and any
        component magnitude beyond ``Numerics.divergence_limit``
        (runaway instability). Local by design — the raising rank
        aborts the world through the standard failure path, so no
        collective is needed on the healthy path beyond one scan.
        """
        q = self.q.data_ro
        finite = np.isfinite(q)
        if not finite.all():
            bad = int(q.size - np.count_nonzero(finite))
            rec = active_recorder()
            if rec is not None:
                rec.counter("resilience.health_trips")
            raise SolverDivergence(
                f"row {self.config.name!r}: {bad} non-finite state "
                f"entries after step {self.step}",
                step=self.step, reason="nan")
        peak = float(np.abs(q).max()) if q.size else 0.0
        if peak > self.num.divergence_limit:
            rec = active_recorder()
            if rec is not None:
                rec.counter("resilience.health_trips")
            raise SolverDivergence(
                f"row {self.config.name!r}: |q| reached {peak:.3e} "
                f"(limit {self.num.divergence_limit:.3e}) after step "
                f"{self.step}",
                step=self.step, reason="divergence")

    def run_guarded(self, nsteps: int, checkpoint_path,
                    checkpoint_every: int = 5, max_rollbacks: int = 3,
                    cfl_backoff: float = 0.5) -> int:
        """March ``nsteps`` with rollback-to-checkpoint on divergence.

        Standalone (single-solver) graceful degradation: checkpoints
        every ``checkpoint_every`` steps; when the health guard trips,
        restores the last checkpoint, multiplies CFL by ``cfl_backoff``
        and resumes, up to ``max_rollbacks`` times before re-raising.
        Returns the number of rollbacks performed. The coupled-run
        equivalent is the :mod:`repro.resilience` supervisor.
        """
        guard_prev = self.num.guard
        self.num.guard = True
        rollbacks = 0
        target = self.step + nsteps
        ckpt_file = self.checkpoint(checkpoint_path)
        try:
            while self.step < target:
                try:
                    self.advance_physical()
                except SolverDivergence:
                    if rollbacks >= max_rollbacks:
                        raise
                    rollbacks += 1
                    self.restore(ckpt_file)
                    self.num.cfl *= cfl_backoff
                    self.g_cfl.value = self.num.cfl
                    rec = active_recorder()
                    if rec is not None:
                        rec.counter("resilience.rollbacks")
                    continue
                if self.step % checkpoint_every == 0:
                    ckpt_file = self.checkpoint(checkpoint_path)
        finally:
            self.num.guard = guard_prev
        return rollbacks

    def solve_steady(self, iters: int = 100, tol: float = 1e-10,
                     check_every: int = 10) -> list[float]:
        """Steady RANS mode: pseudo-time march the flow to steady state.

        Hydra's other operating mode [paper §III]: the dual-source BDF
        weights are zeroed, so the inner RK iterations march the
        spatial residual itself towards zero. Returns the residual-norm
        history (one entry per ``check_every`` iterations); stops early
        when the norm drops below ``tol`` times its first sample.
        """
        self._steady = True
        self.g_wdual.data[:] = 0.0
        self._pseudo_dt = None
        history: list[float] = []
        try:
            for i in range(iters):
                self.inner_iteration()
                if (i + 1) % check_every == 0:
                    history.append(self.residual_norm())
                    self._pseudo_dt = None  # flow moved; re-evaluate CFL
                    if history[-1] <= tol * max(history[0], 1e-300):
                        break
        finally:
            self._steady = False
        return history

    # -- checkpointing ------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """What a restart needs, as named arrays in archive order:
        :meth:`checkpoint` writes exactly these and the coupled driver's
        checkpoint members start with them. ``data_with_halos``
        round-trips exactly; :meth:`load_state` marks halos stale, so
        the re-exchange reproduces them bitwise anyway."""
        return {
            "q": self.q.data_with_halos,
            "qn": self.qn.data_with_halos,
            "qnm1": self.qnm1.data_with_halos,
            "clock": np.array([self.time, float(self.step)]),
        }

    def load_state(self, archive) -> None:
        """Adopt the state :meth:`state_arrays` saved (any mapping)."""
        for name, dat in (("q", self.q), ("qn", self.qn),
                          ("qnm1", self.qnm1)):
            data = archive[name]
            if data.shape != dat.data_with_halos.shape:
                raise ValueError(
                    f"checkpoint field {name!r} has shape {data.shape}, "
                    f"solver expects {dat.data_with_halos.shape}"
                )
            dat.data_with_halos[:] = data
            dat.mark_halo_stale()
        self.time = float(archive["clock"][0])
        self.step = int(archive["clock"][1])
        self._pseudo_dt = None

    def checkpoint(self, path) -> str:
        """Save the full time-stepping state to a compressed npz.

        Committed atomically (tmp + ``os.replace``): a crash mid-write
        leaves the previous checkpoint intact, never a torn archive.
        Returns the written path (``.npz`` appended if missing) —
        pass that to :meth:`restore`.
        """
        with _tspan("checkpoint", "resilience.checkpoint_write",
                    step=self.step):
            return atomic_savez(path, compressed=True, **self.state_arrays())

    def restore(self, path) -> None:
        """Load a checkpoint written by :meth:`checkpoint`."""
        with load_npz(path) as archive:
            self.load_state(archive)

    # -- monitors -------------------------------------------------------
    def residual_norm(self) -> float:
        """Volume-weighted L2 norm of the current spatial residual."""
        self.spatial_residual()
        norm = op2.Global(1, 0.0, "resnorm")
        op2.par_loop(KERNELS["residual_norm"], self.nodes,
                     self.res.arg(op2.READ),
                     self.local.dats["mask"].arg(op2.READ),
                     self.local.dats["vol"].arg(op2.READ),
                     norm.arg(op2.INC), backend=self.num.backend)
        return float(np.sqrt(norm.value))

    def mass_flow(self, side: str) -> float:
        """Mass flow through the inlet/outlet BC faces (collective)."""
        if side == "inlet" and self.has_inlet:
            faces, mapname, area = "inlet", "pinlet", "inlet_area"
        elif side == "outlet" and self.has_outlet:
            faces, mapname, area = "outlet", "poutlet", "outlet_area"
        else:
            raise ValueError(
                f"row {self.config.name!r} has no {side} boundary faces"
            )
        lp = self.local
        mdot = op2.Global(1, 0.0, "mdot")
        op2.par_loop(KERNELS["face_mass_flow"], lp.sets[faces],
                     self.q.arg(op2.READ, lp.maps[mapname], 0),
                     lp.dats[area].arg(op2.READ),
                     mdot.arg(op2.INC), backend=self.num.backend)
        return mdot.value

    def mean_total_pressure(self) -> float:
        """Mean isentropic stagnation pressure of core nodes (collective)."""
        acc = op2.Global(2, [0.0, 0.0], "p0acc")
        op2.par_loop(KERNELS["total_pressure_sum"], self.nodes,
                     self.q.arg(op2.READ),
                     self.local.dats["mask"].arg(op2.READ),
                     self.g_gam.arg(op2.READ), acc.arg(op2.INC),
                     backend=self.num.backend)
        return float(acc.data[0] / max(acc.data[1], 1.0))

    def primitives(self) -> dict[str, np.ndarray]:
        """Primitive fields on this rank's owned nodes."""
        return primitives(self.q.data_ro)

    def station_pressure(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean static pressure per axial station of owned core nodes.

        Collective in distributed runs (allreduces the per-station
        sums); returns (x_stations, mean_p).
        """
        xs = self.local.dats["xyz"].data_ro[:, 0]
        mask = self.local.dats["mask"].data_ro[:, 0] > 0
        p = self.primitives()["p"]
        stations = np.round(xs[mask], 9)
        uniq, inv = np.unique(stations, return_inverse=True)
        sums = np.zeros(len(uniq))
        counts = np.zeros(len(uniq))
        np.add.at(sums, inv, p[mask])
        np.add.at(counts, inv, 1.0)
        comm = self.local.comm
        if comm is not None and comm.size > 1:
            pieces = comm.allgather((uniq, sums, counts))
            merged: dict[float, list[float]] = {}
            for u, s_, c_ in pieces:
                for x, sv, cv in zip(u, s_, c_):
                    slot = merged.setdefault(float(x), [0.0, 0.0])
                    slot[0] += sv
                    slot[1] += cv
            xs_out = np.array(sorted(merged))
            means = np.array([merged[float(x)][0] / merged[float(x)][1]
                              for x in xs_out])
            return xs_out, means
        return uniq, sums / np.maximum(counts, 1.0)
