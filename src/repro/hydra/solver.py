"""The mini-Hydra solver: residual assembly and dual time stepping.

One :class:`HydraSolver` advances one blade row (one Hydra Session's
flow domain). All computation goes through OP2 par_loops, so the same
solver runs serially or distributed, under any compute backend, purely
by how its :class:`~repro.op2.distribute.LocalProblem` was built and
what the OP2 config says. The solver binds each of its loops once, on
its first run (:func:`repro.op2.bind`), and runs it many times.
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
    """Dual time-stepping URANS-style solver for one blade row.

    The constructor freezes the mesh dats (:meth:`repro.op2.Dat.freeze`)
    and builds the ``Arg`` objects of every loop the solver runs
    (:meth:`_loop_sites`: one per call site, the mass-flow site once
    per boundary) into an :class:`repro.op2.LoopSites`, which binds
    each site on its first run, with ``Numerics.backend`` as the
    backend override (read then only), and keeps it. The reduction
    targets (``dtmin`` and the monitor sums) are solver-owned Globals
    reset before each loop.
    A loop runs through ``op2.par_loop`` with its bound ``Arg``
    objects, which finds the binding (:func:`repro.op2.par_loop`): a
    run validates nothing and builds nothing, and code that interposes
    on ``op2.par_loop`` still sees every loop.
    """

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

        # runtime constants as Globals (OP2 READ args); const ones are
        # fixed for the solver's life, so compiled loops compute what
        # follows from them (and from the frozen mesh dats) once
        self.g_gam = op2.Global(1, self.num.gamma, "gam", const=True)
        self.g_cfl = op2.Global(1, self.num.cfl, "cfl")
        self.g_coef = op2.Global(1, 0.0, "coef")
        self.g_wdual = op2.Global(3, [0.0, 0.0, 0.0], "wdual")
        if inlet is not None:
            self.g_qin = op2.Global(
                4, [inlet.rho, inlet.ux, inlet.uy, inlet.uz], "qin",
                const=True)
        else:
            self.g_qin = None
        self.g_pout = op2.Global(1, p_out if p_out is not None else 1.0,
                                 "pout", const=True)
        self.g_hmin = op2.Global(1, config.min_spacing, "hmin", const=True)

        # blade-force parameters: [rate, v_target, wake_amp, k_wave, f_axial]
        k_wave = config.blade_count / config.r_mid
        f_axial = config.work_coeff * self.num.gamma / (config.x1 - config.x0)
        rate = config.force_rate if (config.turning_velocity != 0.0
                                     or f_axial != 0.0) else 0.0
        self.g_blade = op2.Global(
            5, [rate, config.turning_velocity, config.wake_amplitude,
                k_wave, f_axial], "bladeprm", const=True)
        self.blades_active = rate != 0.0 or f_axial != 0.0
        self._pseudo_dt: float | None = None
        self._steady = False
        if self.num.smooth_eps > 0.0:
            self.g_smooth = op2.Global(1, self.num.smooth_eps, "smooth_eps",
                                       const=True)
            self._res_s = op2.Dat(self.nodes, 5, name="res_s")
            self._smooth_acc = op2.Dat(self.nodes, 5, name="smooth_acc")
        else:
            self.g_smooth = None
        # reduction targets, reset before each loop that reduces into them
        self.g_dtmin = op2.Global(1, np.inf, "dtmin")
        self.g_resnorm = op2.Global(1, 0.0, "resnorm")
        self.g_mdot = op2.Global(1, 0.0, "mdot")
        self.g_p0acc = op2.Global(2, [0.0, 0.0], "p0acc")
        for name in ("xyz", "edgew", "vol", "mask", "wall_nz", "inlet_area",
                     "outlet_area", "deg"):
            if name in d:
                d[name].freeze()
        self._sites = op2.LoopSites(self._loop_sites(), self.num.backend)

    def _loop_sites(self) -> dict[str, tuple]:
        """``(kernel, set, *args)`` of every loop the solver runs, by
        call-site name."""
        lp = self.local
        q, res = self.q, self.res
        vol, mask = lp.dats["vol"], lp.dats["mask"]
        pedge = lp.maps["pedge"]
        R, W, RW, INC = op2.READ, op2.WRITE, op2.RW, op2.INC
        gam = self.g_gam.arg(R)
        sites: dict[str, tuple] = {
            "zero_res": (self.nodes, res.arg(W)),
            "flux_edge": (self.edges, q.arg(R, pedge, 0), q.arg(R, pedge, 1),
                          lp.dats["edgew"].arg(R), res.arg(INC, pedge, 0),
                          res.arg(INC, pedge, 1), gam),
            "wall_flux": (lp.sets["wall"], q.arg(R, lp.maps["pwall"], 0),
                          lp.dats["wall_nz"].arg(R),
                          res.arg(INC, lp.maps["pwall"], 0), gam),
            "local_dt": (self.nodes, q.arg(R), self.g_hmin.arg(R), gam,
                         self.g_cfl.arg(R), self.g_dtmin.arg(op2.MIN)),
            "save_state": (self.nodes, q.arg(R), self.qk.arg(W)),
            "dual_source": (self.nodes, q.arg(R), self.qn.arg(R),
                            self.qnm1.arg(R), res.arg(INC), vol.arg(R),
                            self.g_wdual.arg(R)),
            "rk_stage": (self.nodes, self.qk.arg(R), res.arg(R), vol.arg(R),
                         mask.arg(R), q.arg(W), self.g_coef.arg(R)),
            "shift_history": (self.nodes, q.arg(R), self.qn.arg(RW),
                              self.qnm1.arg(W)),
            "residual_norm": (self.nodes, res.arg(R), mask.arg(R),
                              vol.arg(R), self.g_resnorm.arg(INC)),
            "total_pressure_sum": (self.nodes, q.arg(R), mask.arg(R), gam,
                                   self.g_p0acc.arg(INC)),
        }
        for side in ("inlet", "outlet"):
            if side in lp.sets:
                sites[f"{side}_mass_flow"] = (
                    lp.sets[side], q.arg(R, lp.maps[f"p{side}"], 0),
                    lp.dats[f"{side}_area"].arg(R), self.g_mdot.arg(INC))
        if self.has_inlet:
            sites["inlet_flux"] = (
                lp.sets["inlet"], q.arg(R, lp.maps["pinlet"], 0),
                lp.dats["inlet_area"].arg(R),
                res.arg(INC, lp.maps["pinlet"], 0), gam, self.g_qin.arg(R))
        if self.has_outlet:
            sites["outlet_flux"] = (
                lp.sets["outlet"], q.arg(R, lp.maps["poutlet"], 0),
                lp.dats["outlet_area"].arg(R),
                res.arg(INC, lp.maps["poutlet"], 0), gam,
                self.g_pout.arg(R))
        if self.blades_active:
            sites["blade_force"] = (
                self.nodes, q.arg(R), lp.dats["xyz"].arg(R), vol.arg(R),
                res.arg(INC), self.g_blade.arg(R))
        if self.g_smooth is not None:
            sites["smooth_gather"] = (
                self.edges, self._res_s.arg(R, pedge, 0),
                self._res_s.arg(R, pedge, 1),
                self._smooth_acc.arg(INC, pedge, 0),
                self._smooth_acc.arg(INC, pedge, 1))
            sites["smooth_update"] = (
                self.nodes, res.arg(R), self._smooth_acc.arg(RW),
                lp.dats["deg"].arg(R), self.g_smooth.arg(R),
                self._res_s.arg(W))
        # both mass-flow sites run face_mass_flow
        return {name: (KERNELS.get(name, KERNELS["face_mass_flow"]), *site)
                for name, site in sites.items()}

    # -- residual -------------------------------------------------------
    def spatial_residual(self) -> None:
        """Assemble the spatial residual: fluxes, walls, BCs, blade force."""
        self._sites.run("zero_res")
        self._sites.run("flux_edge")
        self._sites.run("wall_flux")
        if self.has_inlet:
            self._sites.run("inlet_flux")
        if self.has_outlet:
            self._sites.run("outlet_flux")
        if self.blades_active:
            self._sites.run("blade_force")

    # -- time stepping -----------------------------------------------------
    def pseudo_dt(self) -> float:
        """Global minimum stable pseudo-time step (collective).

        Capped at half the physical step (the BDF dual source adds a
        stiff ~1.5/dt term to the pseudo-time operator) and at the
        blade-force relaxation scale 1/rate — either cap, if violated,
        would push the explicit RK outside its stability region.
        """
        self.g_dtmin.value = np.inf
        self._sites.run("local_dt")
        dtau = self.g_dtmin.value
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
        self._sites.run("save_state")
        if self._pseudo_dt is None:
            self._pseudo_dt = self.pseudo_dt()
        for alpha in self.num.rk_coeffs:
            self.spatial_residual()
            self._sites.run("dual_source")
            if self.g_smooth is not None:
                self._smooth_residual()
            self.g_coef.value = alpha * self._pseudo_dt
            self._sites.run("rk_stage")

    def _smooth_residual(self) -> None:
        """Implicit residual smoothing by Jacobi iteration (in place)."""
        self._res_s.copy_from(self.res)
        self._smooth_acc.zero()
        for _ in range(self.num.smooth_iters):
            self._sites.run("smooth_gather")
            self._sites.run("smooth_update")
        self.res.copy_from(self._res_s)

    def advance_physical(self) -> None:
        """One outer (physical) time step: shift history, converge inner."""
        with timed(self.timers, "physical_step", "hydra.step"):
            self._sites.run("shift_history")
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
        self.g_resnorm.value = 0.0
        self._sites.run("residual_norm")
        return float(np.sqrt(self.g_resnorm.value))

    def mass_flow(self, side: str) -> float:
        """Mass flow through the inlet/outlet BC faces (collective)."""
        name = f"{side}_mass_flow"
        if name not in self._sites.sites:
            raise ValueError(
                f"row {self.config.name!r} has no {side} boundary faces"
            )
        self.g_mdot.value = 0.0
        self._sites.run(name)
        return self.g_mdot.value

    def mean_total_pressure(self) -> float:
        """Mean isentropic stagnation pressure of core nodes (collective)."""
        self.g_p0acc.data = np.zeros(2)
        self._sites.run("total_pressure_sum")
        acc = self.g_p0acc.data
        return float(acc[0] / max(acc[1], 1.0))

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
