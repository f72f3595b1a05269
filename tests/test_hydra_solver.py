"""Mini-Hydra solver physics: freestream preservation, conservation,
boundary behaviour, blade-force response."""

import numpy as np
import pytest

from repro import op2
from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.hydra.gas import GAMMA, conserved, primitives, shift_frame, total_pressure
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2.distribute import build_serial_problem


def make_solver(row_kw=None, num_kw=None, inlet=None, dt=0.05):
    base = dict(name="duct", kind=RowKind.STATOR, nr=3, nt=12, nx=5,
                turning_velocity=0.0, work_coeff=0.0)
    base.update(row_kw or {})
    cfg = RowConfig(**base)
    mesh = make_row_mesh(cfg)
    inflow = inlet or FlowState(rho=1.0, ux=0.5, p=1.0)
    gp = row_problem(mesh, inflow)
    local = build_serial_problem(gp)
    solver = HydraSolver(local, cfg, Numerics(**(num_kw or {})),
                         dt_outer=dt, inlet=inflow, p_out=1.0)
    return solver, mesh, inflow


class TestGas:
    def test_conserved_primitive_roundtrip(self):
        q = conserved(1.2, 0.3, -0.1, 0.05, 0.9)
        prim = primitives(q)
        assert prim["rho"] == pytest.approx(1.2)
        assert prim["ux"] == pytest.approx(0.3)
        assert prim["p"] == pytest.approx(0.9)

    def test_frame_shift_preserves_thermodynamics(self):
        q = conserved(1.1, 0.4, 0.2, 0.0, 1.3)
        q2 = shift_frame(q, 0.5)
        p1 = primitives(q)
        p2 = primitives(q2)
        assert p2["p"] == pytest.approx(p1["p"])
        assert p2["rho"] == pytest.approx(p1["rho"])
        assert p2["uy"] == pytest.approx(p1["uy"] - 0.5)

    def test_frame_shift_roundtrip(self):
        q = conserved(1.0, 0.5, 0.1, 0.0, 1.0)
        np.testing.assert_allclose(shift_frame(shift_frame(q, 0.3), -0.3), q,
                                   rtol=1e-14)

    def test_flowstate_mach(self):
        s = FlowState(rho=1.0, ux=np.sqrt(GAMMA), p=1.0)
        assert s.mach == pytest.approx(1.0)

    def test_total_pressure_exceeds_static(self):
        q = conserved(1.0, 0.5, 0.0, 0.0, 1.0)
        assert total_pressure(q) > 1.0


class TestFreestream:
    def test_uniform_flow_is_steady(self):
        """A duct with matched inlet/outlet must preserve uniform flow
        (discrete conservation + consistent BCs)."""
        solver, _, inflow = make_solver()
        q0 = solver.q.data_ro.copy()
        solver.run(3)
        np.testing.assert_allclose(solver.q.data_ro, q0, rtol=1e-6, atol=1e-8)

    def test_residual_of_uniform_flow_is_zero(self):
        solver, _, _ = make_solver()
        assert solver.residual_norm() < 1e-10

    def test_mass_flow_matches_analytic(self):
        solver, mesh, inflow = make_solver()
        area = mesh.inlet_area.sum()
        want = inflow.rho * inflow.ux * area
        assert solver.mass_flow("inlet") == pytest.approx(want, rel=1e-12)
        assert solver.mass_flow("outlet") == pytest.approx(want, rel=1e-12)


class TestTransients:
    def test_perturbation_decays_towards_freestream(self):
        """A local density bump must be swept out / damped, not grow."""
        solver, _, _ = make_solver(num_kw={"inner_iters": 6})
        mid = solver.q.data.shape[0] // 2
        solver.q.data[mid, 0] *= 1.05
        solver.q.data[mid, 4] *= 1.05
        before = np.abs(solver.q.data_ro[:, 0] - 1.0).max()
        solver.run(8)
        after = np.abs(solver.q.data_ro[:, 0] - 1.0).max()
        assert after < before

    def test_solution_stays_physical(self):
        solver, _, _ = make_solver()
        rng = np.random.default_rng(0)
        solver.q.data[:, 0] *= 1.0 + 0.02 * rng.standard_normal(
            solver.q.data.shape[0])
        solver.run(5)
        prim = solver.primitives()
        assert (prim["rho"] > 0).all()
        assert (prim["p"] > 0).all()

    def test_time_and_step_advance(self):
        solver, _, _ = make_solver(dt=0.01)
        solver.run(4)
        assert solver.step == 4
        assert solver.time == pytest.approx(0.04)


class TestBladeForce:
    def test_axial_body_force_raises_downstream_pressure(self):
        solver, _, _ = make_solver(
            row_kw={"work_coeff": 0.05, "wake_amplitude": 0.0},
            num_kw={"inner_iters": 6})
        solver.run(30)
        xs, p = solver.station_pressure()
        assert p[-1] > p[0] + 0.005, f"no compression: {p}"

    def test_turning_force_adds_swirl(self):
        target = 0.2
        solver, _, _ = make_solver(
            row_kw={"turning_velocity": target, "wake_amplitude": 0.0},
            num_kw={"inner_iters": 6})
        solver.run(30)
        prim = solver.primitives()
        mask = solver.local.dats["mask"].data_ro[:, 0] > 0
        xs = solver.local.dats["xyz"].data_ro[:, 0]
        outlet_swirl = prim["uy"][mask & (xs == xs.max())].mean()
        assert outlet_swirl > 0.5 * target

    def test_wake_modulation_imprints_blade_count(self):
        """The wake pattern behind a bladed row must show the blade count."""
        solver, mesh, _ = make_solver(
            row_kw={"turning_velocity": 0.15, "wake_amplitude": 0.5,
                    "blade_count": 4, "nt": 24},
            num_kw={"inner_iters": 6})
        solver.run(25)
        prim = solver.primitives()
        cfg = mesh.config
        # sample swirl around the annulus at the outlet, mid radius
        ids = [mesh.node_id(1, it, cfg.nx - 1) for it in range(cfg.nt)]
        swirl = prim["uy"][ids]
        spectrum = np.abs(np.fft.rfft(swirl - swirl.mean()))
        peak = int(np.argmax(spectrum[1:])) + 1
        assert peak == 4, f"wake harmonic {peak}, spectrum {spectrum}"


class TestValidation:
    def test_inlet_required_when_boundary_exists(self):
        cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=8, nx=4)
        mesh = make_row_mesh(cfg)
        gp = row_problem(mesh, FlowState(ux=0.5))
        local = build_serial_problem(gp)
        with pytest.raises(ValueError, match="inlet"):
            HydraSolver(local, cfg, dt_outer=1e-3, inlet=None, p_out=1.0)

    def test_numerics_validation(self):
        with pytest.raises(ValueError):
            Numerics(cfl=-1.0)
        with pytest.raises(ValueError):
            Numerics(inner_iters=0)

    def test_mass_flow_requires_boundary(self):
        solver, _, _ = make_solver()
        with pytest.raises(ValueError, match="no .* boundary"):
            solver.mass_flow("top")


@pytest.mark.parametrize("backend", ["vectorized", "coloring", "atomics"])
def test_solver_backend_equivalence(backend):
    """The whole solver must produce identical trajectories per backend."""
    ref, _, _ = make_solver(num_kw={"inner_iters": 3, "backend": "vectorized"},
                            row_kw={"work_coeff": 0.03})
    ref.run(3)
    other, _, _ = make_solver(num_kw={"inner_iters": 3, "backend": backend},
                              row_kw={"work_coeff": 0.03})
    other.run(3)
    np.testing.assert_allclose(other.q.data_ro, ref.q.data_ro,
                               rtol=1e-12, atol=1e-13)


class TestWavePhysics:
    def test_acoustic_pulse_travels_at_sound_speed(self):
        """Quantitative validation: a small pressure pulse must move
        downstream at u + c within ~15% (first-order scheme on a
        coarse grid smears it, but the front speed is robust)."""
        solver, mesh, inflow = make_solver(
            row_kw={"nx": 33, "nt": 3, "nr": 2, "x1": 4.0},
            num_kw={"inner_iters": 8, "cfl": 0.5},
            dt=0.02)
        xs = solver.local.dats["xyz"].data_ro[:, 0]
        # a *right-running simple wave*: dp, drho = dp/c^2, du = dp/(rho c)
        # — only the u+c characteristic carries it
        c = np.sqrt(GAMMA)
        dp = 0.03 * np.exp(-((xs - 0.8) / 0.2) ** 2)
        rho = 1.0 + dp / c**2
        ux = inflow.ux + dp / (1.0 * c)
        p = 1.0 + dp
        solver.q.data[:] = conserved(rho, ux, np.zeros_like(dp),
                                     np.zeros_like(dp), p)

        def peak_x():
            p = solver.primitives()["p"]
            return float(xs[np.argmax(p)])

        x0 = peak_x()
        nsteps = 40
        solver.run(nsteps)
        x1 = peak_x()
        measured_speed = (x1 - x0) / (nsteps * solver.dt_outer)
        c = np.sqrt(1.4)  # p=rho=1
        expected = inflow.ux + c
        assert measured_speed == pytest.approx(expected, rel=0.15)


class TestTotalPressure:
    def test_matches_numpy_reference(self):
        solver, _, _ = make_solver()
        rng = np.random.default_rng(2)
        solver.q.data[:, 0] *= 1.0 + 0.02 * rng.standard_normal(
            solver.q.data.shape[0])
        got = solver.mean_total_pressure()
        want = float(total_pressure(solver.q.data_ro).mean())
        assert got == pytest.approx(want, rel=1e-12)

    def test_rotor_work_raises_stagnation_pressure_along_passage(self):
        """The compressor metric: with work input, stagnation pressure
        must rise monotonically from inlet to outlet station."""
        solver, _, _ = make_solver(
            row_kw={"work_coeff": 0.05, "wake_amplitude": 0.0},
            num_kw={"inner_iters": 6})
        solver.run(30)
        xs = solver.local.dats["xyz"].data_ro[:, 0]
        p0 = total_pressure(solver.q.data_ro)
        stations = np.unique(xs)
        means = np.array([p0[xs == x].mean() for x in stations])
        assert (np.diff(means) > 0).all(), means
        assert means[-1] > means[0] + 0.02


def test_lazy_step_drains_its_chain_inside_the_timer():
    """Under ``Config.lazy`` (a field without effect) every loop of a
    physical step runs inside the step's ``hydra.step`` span, and the
    step's state is bitwise the eager one, on two ranks with partial
    and grouped halos."""
    from repro import telemetry
    from repro.hydra.problem import row_owners
    from repro.op2.distribute import (build_local_problem, gather_dat,
                                      plan_distribution)
    from repro.smpi import run_ranks

    cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=12, nx=6,
                    turning_velocity=0.0, work_coeff=0.0)
    mesh = make_row_mesh(cfg)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    gp = row_problem(mesh, inflow)
    layouts = plan_distribution(
        gp, 2, row_owners(mesh, gp, 2, scheme="strips"))

    def run(lazy):
        def rank_fn(comm):
            op2.set_config(partial_halos=True, grouped_halos=True, lazy=lazy)
            local = build_local_problem(gp, layouts[comm.rank], comm)
            s = HydraSolver(local, cfg, Numerics(), dt_outer=0.05,
                            inlet=inflow, p_out=1.0)
            with telemetry.tracing() as rec:
                s.advance_physical()
            q = gather_dat(comm, s.q, layouts[comm.rank], mesh.n_nodes)
            return q, list(rec.spans)

        return run_ranks(2, rank_fn)

    eager, lazy = run(False), run(True)
    assert np.array_equal(eager[0][0], lazy[0][0])
    for _q, spans in lazy:
        (step,) = [sp for sp in spans if sp.cat == "hydra.step"]
        loops = [sp for sp in spans if sp.cat == "op2.compute"]
        assert loops
        assert all(step.t0 <= sp.t0 and sp.t1 <= step.t1 for sp in loops)


@pytest.mark.parametrize("backend", ["vectorized", "native"])
def test_lazy_loop_stats_name_every_kernel(backend):
    """An inner iteration under ``Config.lazy`` (no effect) records one
    ``op2.compute`` span per kernel call, as eager does: same kernel
    names, same call counts."""
    from repro import telemetry

    solver, _mesh, _inflow = make_solver(
        row_kw=dict(kind=RowKind.ROTOR, work_coeff=0.2),
        num_kw=dict(backend=backend))

    def calls(lazy):
        with op2.configure(lazy=lazy, native_threads=1):
            solver.advance_physical()
            with telemetry.tracing() as rec:
                solver.inner_iteration()
        return {name: st.calls for name, st in rec.loop_stats.items()}

    eager = calls(False)
    assert len(eager) > 1
    assert calls(True) == eager
