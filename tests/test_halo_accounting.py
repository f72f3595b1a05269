"""Halo byte accounting: one helper, three agreeing ledgers.

Every halo payload size in the repo flows through
:func:`repro.op2.halo.exchange_nbytes` — the op2 telemetry counters
(``op2.halo.nbytes``), the smpi traffic ledger's halo phases and the
plan-level prediction must all report the *same* bytes. These tests
pin that three-way agreement, including an exact-byte regression for
a known 2-rank airfoil step, and counter-verify that depth-aware
partial exchanges move fewer bytes than full ones while staying
bitwise-equal.
"""

import numpy as np
import pytest

from repro import op2
from repro.apps import AirfoilApp, airfoil_owners, airfoil_problem, make_airfoil_mesh
from repro.op2.distribute import (
    GlobalProblem,
    build_local_problem,
    gather_dat,
    plan_distribution,
)
from repro.op2.halo import exchange_halos, exchange_messages, exchange_nbytes
from repro.smpi import Traffic, run_ranks
from repro.telemetry.recorder import RankRecorder, use_recorder


def _with_counters(rank_fn):
    """Wrap a rank fn: bind a tracing recorder, return its counters too."""

    def wrapped(comm, *args):
        rec = RankRecorder(rank=comm.rank)
        prev = use_recorder(rec)
        try:
            out = rank_fn(comm, *args)
        finally:
            use_recorder(prev)
        return out, dict(rec.counters)

    return wrapped


def _halo_ledger(traffic):
    """(bytes, messages) the smpi ledger attributes to halo phases."""
    phases = traffic.by_phase()
    return (sum(v["nbytes"] for k, v in phases.items() if k.startswith("halo")),
            sum(v["messages"] for k, v in phases.items() if k.startswith("halo")))


class TestSingleExchangeAgreement:
    """One explicit exchange: counter == ledger == plan prediction."""

    @pytest.mark.parametrize("scope,grouped", [
        ("full", False), ("full", True),
        ("pedge", False), ("pedge@own", False), ("pedge", True),
    ])
    def test_three_way_byte_agreement(self, scope, grouped):
        n, nranks = 24, 3
        table = np.array([(i, (i + 1) % n) for i in range(n)]
                         + [(i, (i + 5) % n) for i in range(0, n, 3)],
                         dtype=np.int64)
        gp = GlobalProblem()
        gp.add_set("nodes", n)
        gp.add_set("edges", len(table))
        gp.add_map("pedge", "edges", "nodes", table)
        rng = np.random.default_rng(7)
        gp.add_dat("q", "nodes", rng.normal(size=(n, 2)))
        owners = np.arange(n) * nranks // n
        layouts = plan_distribution(
            gp, nranks, {"nodes": owners, "edges": owners[table[:, 0]]})

        @_with_counters
        def rank_fn(comm):
            local = build_local_problem(gp, layouts[comm.rank], comm)
            nodes = local.sets["nodes"]
            q = local.dats["q"]
            q.mark_halo_stale()
            exchange_halos(nodes, [q], scope=scope, grouped=grouped)
            plan = nodes.halo.plan_for(scope)
            return (exchange_nbytes(plan, [q]),
                    exchange_messages(plan, 1, grouped))

        traffic = Traffic()
        results = run_ranks(nranks, rank_fn, traffic=traffic,
                            transport="thread")
        predicted_bytes = sum(r[0][0] for r in results)
        predicted_msgs = sum(r[0][1] for r in results)
        counter_bytes = sum(r[1]["op2.halo.nbytes"] for r in results)
        counter_msgs = sum(r[1]["op2.halo.messages"] for r in results)
        ledger_bytes, ledger_msgs = _halo_ledger(traffic)
        assert predicted_bytes > 0
        assert counter_bytes == predicted_bytes == ledger_bytes
        assert counter_msgs == predicted_msgs == ledger_msgs


class TestAirfoilTwoRankRegression:
    """Exact bytes of a known configuration, pinned numerically."""

    # One outer iteration of the 24x6 airfoil on 2 ranks moves exactly
    # this much halo payload (eager full exchanges, ungrouped): the
    # rank-0/rank-1 boundary of the row-partitioned 24x6 C-mesh.
    # A change means the exchange protocol or the partitioning moved —
    # bump deliberately, never to silence the test.
    EXPECTED_NBYTES = 960
    EXPECTED_MESSAGES = 6

    def _run(self, partial=False, lazy=False, grouped=False):
        mesh = make_airfoil_mesh(ni=24, nj=6)
        gp = airfoil_problem(mesh, mach=0.35)
        owners = airfoil_owners(mesh, 2)
        layouts = plan_distribution(gp, 2, owners)

        @_with_counters
        def rank_fn(comm):
            op2.set_config(partial_halos=partial, grouped_halos=grouped,
                           lazy=lazy)
            local = build_local_problem(gp, layouts[comm.rank], comm)
            app = AirfoilApp.from_local(mesh, local, mach=0.35)
            history = app.iterate(1)
            gathered = gather_dat(comm, app.q, layouts[comm.rank],
                                  mesh.ncell)
            return gathered, history

        traffic = Traffic()
        results = run_ranks(2, rank_fn, traffic=traffic, transport="thread")
        q = results[0][0][0]
        counters = [r[1] for r in results]
        return q, counters, traffic

    def test_pinned_bytes_full_exchange(self):
        _q, counters, traffic = self._run()
        counter_bytes = sum(c["op2.halo.nbytes"] for c in counters)
        counter_msgs = sum(c["op2.halo.messages"] for c in counters)
        ledger_bytes, ledger_msgs = _halo_ledger(traffic)
        assert counter_bytes == ledger_bytes == self.EXPECTED_NBYTES
        assert counter_msgs == ledger_msgs == self.EXPECTED_MESSAGES
        # full exchanges save nothing relative to themselves
        assert sum(c["op2.halo.nbytes_saved"] for c in counters) == 0

    def test_counters_track_ledger_in_every_mode(self):
        q_ref, _, _ = self._run()
        for partial, lazy, grouped in ((True, False, False),
                                       (False, False, True),
                                       (True, True, True)):
            q, counters, traffic = self._run(partial=partial, lazy=lazy,
                                             grouped=grouped)
            counter_bytes = sum(c["op2.halo.nbytes"] for c in counters)
            ledger_bytes, _msgs = _halo_ledger(traffic)
            assert counter_bytes == ledger_bytes, (partial, lazy, grouped)
            np.testing.assert_array_equal(q, q_ref)


class TestDepthAwareSavings:
    """An interpolation-style loop (indirect read, direct write) is the
    depth-1 showcase: only owned rows run it, so only the halo entries
    owned rows reference need refreshing — fewer bytes, same answer."""

    @staticmethod
    def _problem(n=40, nranks=4):
        table = np.array([(i, (i + 1) % n) for i in range(n)],
                         dtype=np.int64)
        gp = GlobalProblem()
        gp.add_set("nodes", n)
        gp.add_set("edges", len(table))
        gp.add_map("pedge", "edges", "nodes", table)
        rng = np.random.default_rng(11)
        gp.add_dat("qn", "nodes", rng.normal(size=(n, 1)))
        gp.add_dat("qe", "edges", np.zeros((len(table), 1)))
        owners = np.arange(n) * nranks // n
        layouts = plan_distribution(
            gp, nranks, {"nodes": owners, "edges": owners[table[:, 0]]})
        return gp, layouts

    @classmethod
    def _run(cls, partial, nranks=4, steps=3):
        gp, layouts = cls._problem(nranks=nranks)

        def interp(a, b, e):
            e[0] = 0.5 * (a[0] + b[0])

        kern = op2.Kernel(interp)

        @_with_counters
        def rank_fn(comm):
            op2.set_config(partial_halos=partial, grouped_halos=False)
            local = build_local_problem(gp, layouts[comm.rank], comm)
            nodes, edges = local.sets["nodes"], local.sets["edges"]
            pedge = local.maps["pedge"]
            qn, qe = local.dats["qn"], local.dats["qe"]
            for _ in range(steps):
                op2.par_loop(kern, edges,
                             qn.arg(op2.READ, pedge, 0),
                             qn.arg(op2.READ, pedge, 1),
                             qe.arg(op2.WRITE))
                qn.data[:] += 0.25  # stale the halo: next step re-exchanges
            return gather_dat(comm, qe, layouts[comm.rank],
                              gp.sets["edges"])

        traffic = Traffic()
        results = run_ranks(nranks, rank_fn, traffic=traffic,
                            transport="thread")
        qe = results[0][0]
        counters = [r[1] for r in results]
        return qe, counters, _halo_ledger(traffic)

    def test_partial_moves_fewer_bytes_bitwise_equal(self):
        qe_full, full_counters, (full_bytes, _) = self._run(partial=False)
        qe_part, part_counters, (part_bytes, _) = self._run(partial=True)
        np.testing.assert_array_equal(qe_part, qe_full)
        assert part_bytes < full_bytes
        # the telemetry counters agree with the wire ledger on both runs
        assert sum(c["op2.halo.nbytes"] for c in full_counters) == full_bytes
        assert sum(c["op2.halo.nbytes"] for c in part_counters) == part_bytes
        # and the savings counter explains exactly the difference
        saved = sum(c["op2.halo.nbytes_saved"] for c in part_counters)
        assert saved == full_bytes - part_bytes > 0

    def test_savings_survive_process_transport(self):
        qe_t, _, (bytes_thread, _) = self._run(partial=True)
        gp, layouts = self._problem()
        # identical run, process transport: same wire bytes, same answer
        def interp(a, b, e):
            e[0] = 0.5 * (a[0] + b[0])

        kern = op2.Kernel(interp)

        def rank_fn(comm):
            op2.set_config(partial_halos=True, grouped_halos=False)
            local = build_local_problem(gp, layouts[comm.rank], comm)
            pedge = local.maps["pedge"]
            qn, qe = local.dats["qn"], local.dats["qe"]
            for _ in range(3):
                op2.par_loop(kern, local.sets["edges"],
                             qn.arg(op2.READ, pedge, 0),
                             qn.arg(op2.READ, pedge, 1),
                             qe.arg(op2.WRITE))
                qn.data[:] += 0.25
            return gather_dat(comm, qe, layouts[comm.rank],
                              gp.sets["edges"])

        traffic = Traffic()
        results = run_ranks(4, rank_fn, traffic=traffic,
                            transport="process", timeout=60.0)
        np.testing.assert_array_equal(results[0], qe_t)
        assert _halo_ledger(traffic)[0] == bytes_thread
