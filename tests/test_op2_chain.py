"""Lazy loop chains: bitwise equivalence and halo elision.

The chain runtime's contract is *bitwise equivalence* with eager
execution, so every test here compares full eager and lazy runs bit
for bit — serially across the numpy backends, distributed across
rank counts and halo-optimization configs, on the Hydra solver's
chained inner iteration, and under hypothesis-generated random loop
programs that stress the staleness analysis (an elision that drops a
required exchange leaves stale halo values and breaks the comparison).
"""

import numpy as np
import pytest

from repro import op2
from repro.op2.chain import current_chain
from repro.op2.distribute import GlobalProblem, plan_distribution
from repro.smpi import Traffic, run_ranks


@pytest.fixture(autouse=True)
def _clean_chain_state():
    """Leave the main thread's config and chain exactly as found."""
    yield
    op2.set_config(lazy=False, chain_verify=False, partial_halos=False, grouped_halos=False,
                   backend="vectorized", check_access=False)
    op2.flush_chain()  # lazy is off: this also retires an implicit chain
    op2.reset_chain_stats()


# --------------------------------------------------------------------------
# a small ring problem with two maps (union-scope coverage)
# --------------------------------------------------------------------------

def k_gather(e, x0, x1):
    e[0] = 0.3 * x0[0] + 0.7 * x1[0]


def k_gather_skip(e, x0, x1):
    e[0] += 0.1 * (x0[0] - x1[0])


def k_update(x):
    x[0] = 1.01 * x[0] + 0.1


def k_scatter(e, y0, y1):
    y0[0] += 0.5 * e[0]
    y1[0] -= 0.25 * e[0]


def k_relax(y, x):
    x[0] = 0.9 * y[0] + 0.05 * x[0]


def make_ring(n=16, seed=0):
    rng = np.random.default_rng(seed)
    gp = GlobalProblem()
    gp.add_set("nodes", n)
    gp.add_set("edges", n)
    t1 = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    t2 = np.stack([np.arange(n), (np.arange(n) + 2) % n], axis=1)
    gp.add_map("pedge", "edges", "nodes", t1)
    gp.add_map("pskip", "edges", "nodes", t2)
    gp.add_dat("x", "nodes", rng.normal(size=(n, 1)))
    gp.add_dat("y", "nodes", rng.normal(size=(n, 1)))
    gp.add_dat("e", "edges", np.zeros((n, 1)))
    return gp, t1


#: opcode -> one par_loop of the random program
def _issue(op, sets, maps, dats):
    nodes, edges = sets
    pedge, pskip = maps
    x, y, e = dats
    if op == "G":
        op2.par_loop(op2.Kernel(k_gather), edges, e.arg(op2.WRITE),
                     x.arg(op2.READ, pedge, 0), x.arg(op2.READ, pedge, 1))
    elif op == "S":
        op2.par_loop(op2.Kernel(k_gather_skip), edges, e.arg(op2.INC),
                     x.arg(op2.READ, pskip, 0), x.arg(op2.READ, pskip, 1))
    elif op == "U":
        op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
    elif op == "C":
        op2.par_loop(op2.Kernel(k_scatter), edges, e.arg(op2.READ),
                     y.arg(op2.INC, pedge, 0), y.arg(op2.INC, pedge, 1))
    elif op == "Y":
        op2.par_loop(op2.Kernel(k_relax), nodes, y.arg(op2.READ),
                     x.arg(op2.RW))
    else:  # pragma: no cover
        raise ValueError(op)


def run_ring(program, nranks, *, lazy, partial=True, grouped=True,
             verify=False, n=16):
    gp, table = make_ring(n)
    node_owner = np.minimum(np.arange(n) * nranks // n, nranks - 1)
    owners = {"nodes": node_owner, "edges": node_owner[table[:, 0]]}
    layouts = plan_distribution(gp, nranks, owners)
    traffic = Traffic()

    def rank_fn(comm):
        op2.set_config(lazy=lazy, partial_halos=partial,
                       grouped_halos=grouped, chain_verify=verify)
        op2.reset_chain_stats()
        local = op2.build_local_problem(gp, layouts[comm.rank], comm)
        sets = (local.sets["nodes"], local.sets["edges"])
        maps = (local.maps["pedge"], local.maps["pskip"])
        dats = (local.dats["x"], local.dats["y"], local.dats["e"])
        with op2.loop_chain("ring", enabled=lazy):
            for step in program:
                _issue(step, sets, maps, dats)
        st = op2.chain_stats().as_dict()
        out = [op2.gather_dat(comm, d, layouts[comm.rank], n) for d in dats]
        return out, st

    results = run_ranks(nranks, rank_fn, traffic=traffic)
    msgs = sum(v["messages"] for k, v in traffic.by_phase().items()
               if k.startswith("halo"))
    return results[0][0], [r[1] for r in results], msgs


# --------------------------------------------------------------------------
# serial equivalence across backends
# --------------------------------------------------------------------------

class TestSerialEquivalence:
    @pytest.mark.parametrize("backend", ["sequential", "vectorized",
                                         "atomics", "coloring"])
    def test_airfoil_bitwise(self, backend):
        from repro.apps import AirfoilApp, make_airfoil_mesh

        mesh = make_airfoil_mesh(ni=12, nj=4)

        def run(lazy):
            op2.set_config(backend=backend, lazy=lazy)
            app = AirfoilApp(mesh, mach=0.35)
            history = app.iterate(2)
            op2.flush_chain()
            return app.q.data_ro.copy(), np.asarray(history)

        q_e, h_e = run(lazy=False)
        op2.set_config(lazy=False)
        q_l, h_l = run(lazy=True)
        assert np.array_equal(q_e, q_l)
        assert np.array_equal(h_e, h_l)

    def test_chain_verify_mode_passes(self):
        from repro.apps import AirfoilApp, make_airfoil_mesh

        mesh = make_airfoil_mesh(ni=12, nj=4)
        op2.set_config(backend="vectorized", lazy=True, chain_verify=True)
        app = AirfoilApp(mesh, mach=0.35)
        app.iterate(2)  # every flush replays eagerly and compares bitwise
        op2.flush_chain()


# --------------------------------------------------------------------------
# distributed equivalence + elision accounting
# --------------------------------------------------------------------------

PROGRAM = list("GSCYGUGSCY")  # two maps, writes, redundant-exec scatter


class TestDistributed:
    @pytest.mark.parametrize("nranks", [2, 3])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_ring_bitwise(self, nranks, partial, grouped):
        ref, _, m_e = run_ring(PROGRAM, nranks, lazy=False,
                               partial=partial, grouped=grouped)
        out, stats, m_l = run_ring(PROGRAM, nranks, lazy=True,
                                   partial=partial, grouped=grouped)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        assert m_l <= m_e  # lazy never sends more messages than eager
        st = stats[0]
        assert st["exchanges"] <= st["eager_exchanges"]
        assert st["messages"] == m_l // nranks or st["messages"] <= m_l

    def test_elision_saves_messages(self):
        # after U stales x, it is read through pedge AND pskip: eager
        # re-exchanges per map under partial halos, the chain does one
        # union-scope exchange
        _, stats, m_e = run_ring(list("UGS"), 2, lazy=False)
        _, stats, m_l = run_ring(list("UGS"), 2, lazy=True)
        st = stats[0]
        assert st["halo_elided"] > 0
        assert st["messages_saved"] > 0
        assert m_l < m_e

    def test_ring_chain_verify(self):
        ref, _, _ = run_ring(PROGRAM, 2, lazy=False)
        out, _, _ = run_ring(PROGRAM, 2, lazy=True, verify=True)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)


class TestAirfoilDistributed:
    def run(self, nranks, lazy, verify=False):
        from repro.apps import (AirfoilApp, airfoil_owners, airfoil_problem,
                                make_airfoil_mesh)
        from repro.op2.distribute import build_local_problem, gather_dat

        mesh = make_airfoil_mesh(ni=24, nj=6)
        gp = airfoil_problem(mesh, mach=0.35)
        layouts = plan_distribution(gp, nranks,
                                    airfoil_owners(mesh, nranks))

        def rank_fn(comm):
            op2.set_config(partial_halos=True, grouped_halos=True,
                           lazy=lazy, chain_verify=verify)
            op2.reset_chain_stats()
            local = build_local_problem(gp, layouts[comm.rank], comm)
            app = AirfoilApp.from_local(mesh, local, mach=0.35)
            history = app.iterate(3)
            op2.flush_chain()
            st = op2.chain_stats().as_dict()
            q = gather_dat(comm, app.q, layouts[comm.rank], mesh.ncell)
            return q, np.asarray(history), st

        results = run_ranks(nranks, rank_fn)
        return results[0][0], [r[1] for r in results], [r[2] for r in results]

    @pytest.mark.parametrize("nranks", [2, 3])
    def test_bitwise_and_fewer_messages(self, nranks):
        q_e, h_e, _ = self.run(nranks, lazy=False)
        q_l, h_l, stats = self.run(nranks, lazy=True)
        assert np.array_equal(q_e, q_l)
        for he, hl in zip(h_e, h_l):
            assert np.array_equal(he, hl)
        st = stats[0]
        assert st["halo_elided"] > 0
        # the acceptance bar: >= 25% fewer halo messages than eager
        assert st["messages"] <= 0.75 * st["eager_messages"]

    def test_chain_verify_distributed(self):
        q_e, _, _ = self.run(2, lazy=False)
        q_v, _, _ = self.run(2, lazy=True, verify=True)
        assert np.array_equal(q_e, q_v)


class TestHydraDistributed:
    def run(self, nranks, lazy):
        from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
        from repro.hydra.problem import row_owners
        from repro.mesh import RowConfig, RowKind, make_row_mesh
        from repro.op2.distribute import build_local_problem, gather_dat

        cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=12, nx=6,
                        turning_velocity=0.0, work_coeff=0.0)
        mesh = make_row_mesh(cfg)
        inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
        gp = row_problem(mesh, inflow)
        owners = row_owners(mesh, gp, nranks, scheme="strips")
        layouts = plan_distribution(gp, nranks, owners)

        def rank_fn(comm):
            op2.set_config(partial_halos=True, grouped_halos=True, lazy=lazy)
            op2.reset_chain_stats()
            local = build_local_problem(gp, layouts[comm.rank], comm)
            s = HydraSolver(local, cfg, Numerics(), dt_outer=0.05,
                            inlet=inflow, p_out=1.0)
            s.run(2)
            op2.flush_chain()
            st = op2.chain_stats().as_dict()
            q = gather_dat(comm, s.q, layouts[comm.rank], mesh.n_nodes)
            return q, st

        results = run_ranks(nranks, rank_fn)
        return results[0][0], [r[1] for r in results]

    def test_inner_iteration_chain_bitwise(self):
        q_e, _ = self.run(2, lazy=False)
        q_l, stats = self.run(2, lazy=True)
        assert np.array_equal(q_e, q_l)
        st = stats[0]
        # the solver's boundary maps are ownership-aligned (empty
        # plans), so eager's per-boundary-loop exchange calls all elide
        assert st["halo_elided"] > 0
        assert st["messages"] <= st["eager_messages"]


class TestCoupledLazy:
    def run(self, lazy):
        from repro.coupler import CoupledDriver, CoupledRunConfig
        from repro.hydra import FlowState, Numerics
        from repro.mesh import rig250_config

        rig = rig250_config(nr=3, nt=12, nx=4, rows=2,
                            steps_per_revolution=64)
        cfg = CoupledRunConfig(rig=rig, ranks_per_row=2,
                               cus_per_interface=1,
                               numerics=Numerics(inner_iters=2),
                               inlet=FlowState(ux=0.5), p_out=1.02,
                               partial_halos=True, grouped_halos=True,
                               lazy=lazy, schedule_seed=0)
        return CoupledDriver(cfg).run(1)

    def test_coupled_run_bitwise(self):
        """CoupledRunConfig.lazy chains every HS solver; the coupler's
        host reads at interface exchanges flush transparently, so the
        coupled physics must stay bitwise-equal to the eager run."""
        eager, lazy = self.run(False), self.run(True)
        compared = 0
        for re_, rl in zip(eager.rows, lazy.rows):
            for key, a in re_.items():
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, rl[key]), key
                    compared += 1
        assert compared > 0


# --------------------------------------------------------------------------
# chain semantics: snapshots, flush triggers, retirement
# --------------------------------------------------------------------------

def k_scale(x, g):
    x[0] = g[0] * x[0]


def k_sum(x, g):
    g[0] += x[0]


class TestChainSemantics:
    def _nodes_x(self, n=8):
        nodes = op2.Set(n, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(1.0, n + 1.0).reshape(n, 1),
                    name="x")
        return nodes, x

    def test_read_global_snapshot_at_enqueue(self):
        nodes, x = self._nodes_x()
        g = op2.Global(1, 2.0, "g")
        with op2.loop_chain("snap"):
            op2.par_loop(op2.Kernel(k_scale), nodes,
                         x.arg(op2.RW), g.arg(op2.READ))
            assert current_chain().pending  # still deferred
            g.value = 5.0  # host write; READ snapshot keeps old value
            assert current_chain().pending  # no flush was forced
        assert np.array_equal(x.data_ro[:, 0],
                              2.0 * np.arange(1.0, 9.0))

    def test_host_read_of_reduction_flushes(self):
        nodes, x = self._nodes_x()
        g = op2.Global(1, 0.0, "acc")
        with op2.loop_chain("red"):
            op2.par_loop(op2.Kernel(k_sum), nodes,
                         x.arg(op2.READ), g.arg(op2.INC))
            assert current_chain().pending
            assert g.value == pytest.approx(36.0)  # read forced the flush
            assert not current_chain().pending

    def test_host_write_to_reduction_target_flushes(self):
        nodes, x = self._nodes_x()
        g = op2.Global(1, 0.0, "acc")
        with op2.loop_chain("redw"):
            op2.par_loop(op2.Kernel(k_sum), nodes,
                         x.arg(op2.READ), g.arg(op2.INC))
            g.value = 0.0  # must land *after* the pending reduction
            assert not current_chain().pending
        assert g.value == 0.0

    def test_read_after_reduction_enqueue_flushes_first(self):
        # a loop READing a Global a pending loop reduces into cannot
        # snapshot the pre-reduction value: enqueue flushes first
        nodes, x = self._nodes_x()
        g = op2.Global(1, 0.0, "acc")
        with op2.loop_chain("rw"):
            op2.par_loop(op2.Kernel(k_sum), nodes,
                         x.arg(op2.READ), g.arg(op2.INC))
            op2.par_loop(op2.Kernel(k_scale), nodes,
                         x.arg(op2.RW), g.arg(op2.READ))
        assert np.array_equal(x.data_ro[:, 0],
                              36.0 * np.arange(1.0, 9.0))

    def test_dat_host_access_flushes(self):
        nodes, x = self._nodes_x()
        op2.set_config(lazy=True)
        op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
        assert current_chain() is not None and current_chain().pending
        # data_ro is a host observation: it must see the updated values
        assert x.data_ro[0, 0] == pytest.approx(1.01 * 1.0 + 0.1)
        assert not current_chain().pending

    def test_implicit_chain_retires_when_lazy_cleared(self):
        nodes, x = self._nodes_x()
        op2.set_config(lazy=True)
        op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
        assert current_chain() is not None
        op2.set_config(lazy=False)
        op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))  # eager
        assert current_chain() is None  # implicit chain was retired
        expect = 1.01 * (1.01 * np.arange(1.0, 9.0) + 0.1) + 0.1
        assert np.allclose(x.data_ro[:, 0], expect)

    def test_loop_chain_disabled_is_eager(self):
        nodes, x = self._nodes_x()
        with op2.loop_chain("off", enabled=False):
            op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
            assert current_chain() is None

    def test_nested_chain_joins_outer(self):
        nodes, x = self._nodes_x()
        with op2.loop_chain("outer") as outer:
            op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
            with op2.loop_chain("inner") as inner:
                assert inner is outer
                op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
            assert len(outer.pending) == 2  # inner exit did not flush


# --------------------------------------------------------------------------
# satellites: breakdown columns
# --------------------------------------------------------------------------

class TestBreakdownColumns:
    def test_chain_columns_present_when_chained(self):
        from repro.telemetry.timeline import Timeline

        tl = Timeline(counters={"chain.flushes": 2.0,
                                "chain.halo_elided": 5.0,
                                "chain.messages_saved": 7.0})
        bd = tl.breakdown()
        assert bd["halo_elided"] == 5.0
        assert bd["messages_saved"] == 7.0

    def test_chain_columns_absent_otherwise(self):
        from repro.telemetry.timeline import Timeline

        bd = Timeline().breakdown()
        assert "halo_elided" not in bd
        assert "messages_saved" not in bd

    def test_counters_flow_from_flush_to_timeline(self):
        from repro.telemetry.recorder import RankRecorder, use_recorder
        from repro.telemetry.timeline import merge_timelines

        rec = RankRecorder(rank=0)
        prev = use_recorder(rec)
        try:
            run_ring(list("GS"), 1, lazy=True)  # serial: counters only
            nodes = op2.Set(8, "nodes")
            x = op2.Dat(nodes, 1, data=np.ones((8, 1)), name="x")
            with op2.loop_chain("counted"):
                op2.par_loop(op2.Kernel(k_update), nodes, x.arg(op2.RW))
        finally:
            use_recorder(prev)
        tl = merge_timelines([rec])
        assert tl.counters.get("chain.flushes", 0) >= 1
        bd = tl.breakdown()
        assert "halo_elided" in bd and "messages_saved" in bd


# --------------------------------------------------------------------------
# property-based: random programs never diverge from eager
# --------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

_programs = hst.lists(hst.sampled_from("GSUCY"), min_size=1, max_size=10)


class TestAnalyzerProperties:
    # derandomized: threaded-rank runs are slow enough that a fresh
    # random draw per CI run buys little over the fixed corpus + the
    # pinned @example regressions, and determinism keeps CI stable
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=_programs, partial=hst.booleans(),
           grouped=hst.booleans())
    @example(program=list("GSGSGS"), partial=True, grouped=True)
    @example(program=list("GUGUGU"), partial=True, grouped=False)
    @example(program=list("CCCC"), partial=True, grouped=True)
    def test_lazy_bitwise_equals_eager(self, program, partial, grouped):
        """Elision never drops a required exchange: any dropped or
        mis-scoped exchange leaves stale halo entries, and the bitwise
        comparison against the eager run catches it."""
        ref, _, m_e = run_ring(program, 2, lazy=False, partial=partial,
                               grouped=grouped)
        out, stats, m_l = run_ring(program, 2, lazy=True, partial=partial,
                                   grouped=grouped)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        # ...and batching never *increases* traffic or exchange rounds
        assert m_l <= m_e
        st = stats[0]
        assert st["exchanges"] <= st["eager_exchanges"]

    @settings(max_examples=8, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=_programs)
    def test_stats_are_consistent(self, program):
        _, stats, m_l = run_ring(program, 2, lazy=True)
        st = stats[0]
        assert st["loops"] == len(program)
        assert st["halo_elided"] == st["eager_exchanges"] - st["exchanges"]
        assert st["messages_saved"] == st["eager_messages"] - st["messages"]
        assert st["messages"] >= 0 and st["messages_saved"] >= 0
