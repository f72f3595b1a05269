"""Extension features: per-kernel timing, block-color backend, steady
mode, ASCII rendering, mid-radius cuts."""

import numpy as np
import pytest

from repro import op2, telemetry
from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.mesh import RowConfig, RowKind, make_row_mesh, rig250_config
from repro.op2 import plan as plan_mod
from repro.op2.distribute import build_serial_problem
from repro.util.ascii_plot import render_field, render_series


class TestProfiling:
    """Per-kernel time is the traced par_loop spans' ``loop_stats`` view."""

    def test_loops_recorded_when_enabled(self):
        nodes = op2.Set(10, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(10.0))
        y = op2.Dat(nodes, 1)

        def copy(xv, yv):
            yv[0] = xv[0]

        kern = op2.Kernel(copy, name="copy_k")
        with telemetry.tracing() as rec:
            for _ in range(3):
                op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE))
        st = rec.loop_stats["copy_k"]
        assert st.calls == 3
        assert st.elements == 30
        assert st.total_seconds > 0

    def test_disabled_by_default(self):
        nodes = op2.Set(5, "nodes")
        x = op2.Dat(nodes, 1)

        def z(xv):
            xv[0] = 0.0

        assert telemetry.active_recorder() is None  # untraced by default
        with telemetry.tracing() as rec:
            prev = telemetry.use_recorder(None)
            op2.par_loop(op2.Kernel(z, name="zed"), nodes, x.arg(op2.WRITE))
            telemetry.use_recorder(prev)
            op2.par_loop(op2.Kernel(z, name="one"), nodes, x.arg(op2.WRITE))
        assert list(rec.loop_stats) == ["one"]

    def test_solver_profile_includes_flux(self):
        cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=8, nx=4,
                        turning_velocity=0.0, work_coeff=0.0)
        mesh = make_row_mesh(cfg)
        inflow = FlowState(ux=0.5)
        local = build_serial_problem(row_problem(mesh, inflow))
        solver = HydraSolver(local, cfg, Numerics(inner_iters=2),
                             dt_outer=0.05, inlet=inflow, p_out=1.0)
        with telemetry.tracing() as rec:
            solver.advance_physical()
        stats = rec.loop_stats
        assert "flux_edge" in stats
        top_names = sorted(stats, key=lambda n: stats[n].total_seconds,
                           reverse=True)[:3]
        assert "flux_edge" in top_names  # the hot loop


class TestBlockColorBackend:
    def test_respects_block_size_config(self, monkeypatch):
        n = 100
        nodes = op2.Set(n, "nodes")
        edges = op2.Set(n, "edges")
        table = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        pedge = op2.Map(edges, nodes, 2, table, "pedge")
        acc = op2.Dat(nodes, 1)

        def bump(a1, a2):
            a1[0] += 1.0
            a2[0] += 2.0

        for bs in (8, 32, 1000):
            acc.data[:] = 0.0
            monkeypatch.setattr(plan_mod, "BLOCK_SIZE", bs)
            args = [acc.arg(op2.INC, pedge, 0), acc.arg(op2.INC, pedge, 1)]
            op2.par_loop(op2.Kernel(bump), edges, *args,
                         backend="blockcolor")
            np.testing.assert_allclose(acc.data_ro[:, 0], 3.0)
            assert op2.build_block_plan(args, n).block_size == bs

    def test_direct_loop_without_plan(self):
        nodes = op2.Set(7, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(7.0))
        y = op2.Dat(nodes, 1)

        def dbl(xv, yv):
            yv[0] = 2.0 * xv[0]

        op2.par_loop(op2.Kernel(dbl), nodes, x.arg(op2.READ),
                     y.arg(op2.WRITE), backend="blockcolor")
        np.testing.assert_allclose(y.data_ro[:, 0], 2.0 * np.arange(7.0))


class TestSteadySolve:
    def make(self, **row_kw):
        base = dict(name="duct", kind=RowKind.STATOR, nr=3, nt=10, nx=5,
                    turning_velocity=0.0, work_coeff=0.0)
        base.update(row_kw)
        cfg = RowConfig(**base)
        mesh = make_row_mesh(cfg)
        inflow = FlowState(ux=0.5)
        local = build_serial_problem(row_problem(mesh, inflow))
        return HydraSolver(local, cfg, Numerics(inner_iters=1),
                           dt_outer=0.05, inlet=inflow, p_out=1.0)

    def test_converges_perturbation(self):
        solver = self.make()
        rng = np.random.default_rng(1)
        solver.q.data[:, 0] *= 1.0 + 0.01 * rng.standard_normal(
            solver.q.data.shape[0])
        history = solver.solve_steady(iters=120, check_every=20)
        assert history[-1] < history[0]

    def test_reaches_bladed_steady_state(self):
        """Steady RANS mode on a bladed row: residual must fall and the
        converged field must carry the blade turning."""
        solver = self.make(turning_velocity=0.15, wake_amplitude=0.0)
        history = solver.solve_steady(iters=200, check_every=25)
        assert history[-1] < 0.5 * history[0]
        prim = solver.primitives()
        assert prim["uy"].max() > 0.05

    def test_unsteady_mode_restored_after(self):
        solver = self.make()
        solver.solve_steady(iters=10, check_every=5)
        assert solver._steady is False
        solver.advance_physical()  # must still work


class TestAsciiPlot:
    def test_render_field_shape_and_legend(self):
        field = np.outer(np.linspace(0, 1, 8), np.ones(16))
        text = render_field(field, width=32, height=8, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 8 + 1
        assert "legend" in lines[-1]
        assert len(lines[1]) == 32

    def test_render_field_gradient_direction(self):
        field = np.outer(np.ones(4), np.linspace(0, 1, 50))
        text = render_field(field, width=50, height=4)
        row = text.splitlines()[0]
        assert row[0] == " " and row[-1] == "@"

    def test_column_marks(self):
        field = np.zeros((4, 20))
        text = render_field(field, width=20, height=4, column_marks=[10])
        assert "|" in text.splitlines()[0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            render_field(np.zeros(5))
        with pytest.raises(ValueError):
            render_series(np.zeros(3), np.zeros(4))

    def test_render_series(self):
        text = render_series(np.arange(10.0), np.arange(10.0) ** 2,
                             width=20, height=6, title="sq")
        assert "o" in text
        assert "sq" in text


class TestMidCut:
    def test_mid_cut_assembles_across_rows(self):
        rig = rig250_config(nr=3, nt=10, nx=4, rows=3,
                            steps_per_revolution=64)
        cfg = CoupledRunConfig(rig=rig, numerics=Numerics(inner_iters=2),
                               inlet=FlowState(ux=0.5), p_out=1.0)
        result = CoupledDriver(cfg).run(2)
        field, marks = result.mid_cut()
        assert field.shape == (10, 12)    # nt x (3 rows * nx)
        assert marks == [4, 8]
        assert not np.isnan(field).any()
        assert (field > 0).all()

    def test_mid_cut_distributed_rows(self):
        rig = rig250_config(nr=3, nt=10, nx=4, rows=2,
                            steps_per_revolution=64)
        cfg = CoupledRunConfig(rig=rig, ranks_per_row=2,
                               numerics=Numerics(inner_iters=2),
                               inlet=FlowState(ux=0.5), p_out=1.0)
        result = CoupledDriver(cfg).run(2)
        field, marks = result.mid_cut()
        assert field.shape == (10, 8)
        assert not np.isnan(field).any()


class TestAccessChecking:
    def test_cheating_kernel_caught(self):
        """A kernel writing through a READ arg must fail in debug mode."""
        nodes = op2.Set(4, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(4.0))
        y = op2.Dat(nodes, 1)

        def cheat(xv, yv):
            xv[0] = 0.0  # violates the READ declaration
            yv[0] = 1.0

        with op2.configure(check_access=True):
            with pytest.raises(ValueError, match="read-only"):
                op2.par_loop(op2.Kernel(cheat), nodes,
                             x.arg(op2.READ), y.arg(op2.WRITE),
                             backend="sequential")

    def test_honest_kernel_passes(self):
        nodes = op2.Set(4, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(4.0))
        y = op2.Dat(nodes, 1)

        def honest(xv, yv):
            yv[0] = 2.0 * xv[0]

        with op2.configure(check_access=True):
            op2.par_loop(op2.Kernel(honest), nodes,
                         x.arg(op2.READ), y.arg(op2.WRITE),
                         backend="sequential")
        np.testing.assert_allclose(y.data_ro[:, 0], 2.0 * np.arange(4.0))

    def test_off_by_default(self):
        assert op2.current_config().check_access is False

    @staticmethod
    def _chained_pair(second, lazy):
        """Two adjacent loops over one set; ``second`` is the last kernel.
        ``lazy`` sets ``Config.lazy``, which has no effect."""
        nodes = op2.Set(4, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(4.0))
        y = op2.Dat(nodes, 1)
        z = op2.Dat(nodes, 1)

        def double(xv, yv):
            yv[0] = 2.0 * xv[0]

        with op2.configure(check_access=True, lazy=lazy,
                           backend="sequential"):
            op2.par_loop(op2.Kernel(double), nodes,
                         x.arg(op2.READ), y.arg(op2.WRITE))
            op2.par_loop(op2.Kernel(second), nodes,
                         x.arg(op2.READ), z.arg(op2.WRITE))
        return x.data_ro.copy(), y.data_ro.copy(), z.data_ro.copy()

    def test_cheating_kernel_caught_inside_a_chain_group(self):
        """The second of two adjacent loops goes through the same
        read-only views, with ``Config.lazy`` set."""
        def cheat(xv, zv):
            xv[0] = 0.0  # violates the READ declaration
            zv[0] = 1.0

        with pytest.raises(ValueError, match="read-only"):
            self._chained_pair(cheat, lazy=True)

    def test_honest_pair_groups_and_matches_eager(self):
        def triple(xv, zv):
            zv[0] = 3.0 * xv[0]

        eager = self._chained_pair(triple, lazy=False)
        lazy = self._chained_pair(triple, lazy=True)
        assert np.array_equal(eager[2], 3.0 * np.arange(4.0).reshape(4, 1))
        for e, l in zip(eager, lazy):
            assert np.array_equal(e, l)


class TestResidualSmoothing:
    def run(self, cfl, eps, iters=4):
        import warnings

        cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=10, nx=6,
                        turning_velocity=0.0, work_coeff=0.0)
        mesh = make_row_mesh(cfg)
        inflow = FlowState(ux=0.5)
        local = build_serial_problem(row_problem(mesh, inflow))
        solver = HydraSolver(local, cfg,
                             Numerics(inner_iters=1, cfl=cfl,
                                      smooth_eps=eps, smooth_iters=iters),
                             dt_outer=0.05, inlet=inflow, p_out=1.0)
        rng = np.random.default_rng(0)
        solver.q.data[:, 0] *= 1.0 + 0.02 * rng.standard_normal(
            solver.q.data.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            history = solver.solve_steady(iters=80, check_every=20)
        return history, bool(np.isfinite(solver.q.data_ro).all())

    def test_raises_stable_cfl(self):
        """Hydra's classic accelerator: implicit residual smoothing lets
        the explicit RK run beyond its plain CFL limit."""
        _h, plain_ok = self.run(cfl=1.2, eps=0.0)
        history, smooth_ok = self.run(cfl=1.2, eps=1.2)
        assert not plain_ok, "plain RK should diverge at CFL 1.2"
        assert smooth_ok
        assert history[-1] < history[0]

    def test_smoothing_preserves_steady_state(self):
        """Smoothing a zero residual must keep it zero: uniform flow
        stays an exact steady state with smoothing active."""
        cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=8, nx=4,
                        turning_velocity=0.0, work_coeff=0.0)
        mesh = make_row_mesh(cfg)
        inflow = FlowState(ux=0.5)
        local = build_serial_problem(row_problem(mesh, inflow))
        solver = HydraSolver(local, cfg,
                             Numerics(inner_iters=3, smooth_eps=0.8),
                             dt_outer=0.05, inlet=inflow, p_out=1.0)
        q0 = solver.q.data_ro.copy()
        solver.run(3)
        np.testing.assert_allclose(solver.q.data_ro, q0, rtol=1e-8,
                                   atol=1e-10)

    def test_disabled_by_default(self):
        solver = TestSteadySolve().make()
        assert solver.g_smooth is None


class TestDistributedProfiling:
    def test_halo_time_attributed(self):
        """In distributed runs the per-kernel view splits halo vs compute
        time."""
        from repro.op2.distribute import GlobalProblem, plan_distribution
        from repro.smpi import run_ranks

        n = 24
        gp = GlobalProblem()
        gp.add_set("nodes", n)
        gp.add_set("edges", n)
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        gp.add_map("pedge", "edges", "nodes", ring)
        gp.add_dat("q", "nodes", np.arange(float(n)))
        gp.add_dat("acc", "nodes", np.zeros(n))
        owner = np.minimum(np.arange(n) * 2 // n, 1)
        layouts = plan_distribution(
            gp, 2, {"nodes": owner, "edges": owner[ring[:, 0]]})

        def bump(qv):
            qv[0] = qv[0] + 1.0

        def gather(q1, q2, a1, a2):
            a1[0] += q2[0]
            a2[0] += q1[0]

        kb = op2.Kernel(bump, name="bump_prof")
        kg = op2.Kernel(gather, name="gather_prof")

        def rank_fn(comm):
            rec = telemetry.RankRecorder(rank=comm.rank)
            telemetry.use_recorder(rec)
            local = op2.build_local_problem(gp, layouts[comm.rank], comm)
            for _ in range(4):
                op2.par_loop(kb, local.sets["nodes"],
                             local.dats["q"].arg(op2.RW))
                op2.par_loop(kg, local.sets["edges"],
                             local.dats["q"].arg(op2.READ, local.maps["pedge"], 0),
                             local.dats["q"].arg(op2.READ, local.maps["pedge"], 1),
                             local.dats["acc"].arg(op2.INC, local.maps["pedge"], 0),
                             local.dats["acc"].arg(op2.INC, local.maps["pedge"], 1))
            telemetry.use_recorder(None)
            stats = rec.loop_stats
            return (stats["gather_prof"].halo_seconds,
                    stats["bump_prof"].halo_seconds)

        for gather_halo, bump_halo in run_ranks(2, rank_fn):
            assert gather_halo > 0.0   # the reading loop pays for exchanges
            # the direct writer only pays the (near-zero) staleness scan
            assert bump_halo < gather_halo
