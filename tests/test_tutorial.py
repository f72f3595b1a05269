"""Executable version of docs/TUTORIAL.md — the tutorial must stay true."""

import numpy as np
import pytest

from repro import op2
from repro.smpi import run_ranks

N = 50


def flux(x1, x2, u1, u2, d1, d2):
    w = 1.0 / fabs(x2[0] - x1[0])  # noqa: F821 - kernel language
    f = w * (u2[0] - u1[0])
    d1[0] += f
    d2[0] -= f


def apply_update(du_v, u_v, alpha):
    u_v[0] = u_v[0] + alpha[0] * du_v[0]
    du_v[0] = 0.0


def energy(u_v, e):
    e[0] += u_v[0] * u_v[0]


def build_serial():
    nodes = op2.Set(N, "nodes")
    edges = op2.Set(N - 1, "edges")
    table = np.stack([np.arange(N - 1), np.arange(1, N)], axis=1)
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    x = op2.Dat(nodes, 1, data=np.linspace(0.0, 1.0, N), name="x")
    u = op2.Dat(nodes, 1, name="u")
    du = op2.Dat(nodes, 1, name="du")
    return nodes, edges, pedge, x, u, du, table


def diffuse(nodes, edges, pedge, x, u, du, steps=100, backend=None):
    alpha = op2.Global(1, 1e-4, "alpha")
    k_flux = op2.Kernel(flux)
    k_update = op2.Kernel(apply_update)
    for _ in range(steps):
        op2.par_loop(k_flux, edges,
                     x.arg(op2.READ, pedge, 0), x.arg(op2.READ, pedge, 1),
                     u.arg(op2.READ, pedge, 0), u.arg(op2.READ, pedge, 1),
                     du.arg(op2.INC, pedge, 0), du.arg(op2.INC, pedge, 1),
                     backend=backend)
        op2.par_loop(k_update, nodes,
                     du.arg(op2.RW), u.arg(op2.RW), alpha.arg(op2.READ),
                     backend=backend)


class TestTutorial:
    def test_heat_spreads_and_total_is_conserved(self):
        nodes, edges, pedge, x, u, du, _ = build_serial()
        u.data[N // 2] = 1.0
        total_before = float(u.data_ro.sum())
        diffuse(nodes, edges, pedge, x, u, du)
        total_after = float(u.data_ro.sum())
        assert total_after == pytest.approx(total_before, rel=1e-12)
        # the spike spread: peak lower, neighbours warmer
        assert u.data_ro[N // 2, 0] < 1.0
        assert u.data_ro[N // 2 - 3, 0] > 0.0

    @pytest.mark.parametrize("backend", ["sequential", "coloring",
                                         "atomics", "blockcolor"])
    def test_backend_free_choice(self, backend):
        nodes, edges, pedge, x, u, du, _ = build_serial()
        u.data[N // 2] = 1.0
        diffuse(nodes, edges, pedge, x, u, du, steps=20, backend=backend)
        ref_nodes, ref_edges, ref_pedge, rx, ru, rdu, _ = build_serial()
        ru.data[N // 2] = 1.0
        diffuse(ref_nodes, ref_edges, ref_pedge, rx, ru, rdu, steps=20,
                backend="vectorized")
        np.testing.assert_allclose(u.data_ro, ru.data_ro, rtol=1e-12,
                                   atol=1e-14)

    def test_reduction_step(self):
        nodes, edges, pedge, x, u, du, _ = build_serial()
        u.data[N // 2] = 1.0
        e = op2.Global(1, 0.0, "e")
        op2.par_loop(op2.Kernel(energy), nodes, u.arg(op2.READ),
                     e.arg(op2.INC))
        assert e.value == pytest.approx(1.0)

    def test_generated_sources_inspectable(self):
        nodes, edges, pedge, x, u, du, _ = build_serial()
        diffuse(nodes, edges, pedge, x, u, du, steps=1)
        k = op2.Kernel(flux)
        from repro.op2.codegen import generate_native

        sig = (("dat", op2.READ, "idx", 1, 2, 0),
               ("dat", op2.READ, "idx", 1, 2, 1),
               ("dat", op2.READ, "idx", 1, 2, 0),
               ("dat", op2.READ, "idx", 1, 2, 1),
               ("dat", op2.INC, "idx", 1, 2, 0),
               ("dat", op2.INC, "idx", 1, 2, 1))
        src = generate_native(k, sig)
        assert "_ncolors_f0" in src  # indirect INCs run the block plan

    def test_distributed_matches_serial(self):
        nodes, edges, pedge, x, u, du, table = build_serial()
        u.data[N // 2] = 1.0
        diffuse(nodes, edges, pedge, x, u, du, steps=30)
        u_ref = u.data_ro.copy()

        u0 = np.zeros(N)
        u0[N // 2] = 1.0
        gp = op2.GlobalProblem()
        gp.add_set("nodes", N)
        gp.add_set("edges", N - 1)
        gp.add_map("pedge", "edges", "nodes", table)
        gp.add_dat("x", "nodes", np.linspace(0, 1, N))
        gp.add_dat("u", "nodes", u0)
        gp.add_dat("du", "nodes", np.zeros(N))
        node_owner = np.minimum(np.arange(N) * 3 // N, 2)
        owners = {"nodes": node_owner, "edges": node_owner[table[:, 0]]}
        layouts = op2.plan_distribution(gp, 3, owners)

        def rank_fn(comm):
            local = op2.build_local_problem(gp, layouts[comm.rank], comm)
            diffuse(local.sets["nodes"], local.sets["edges"],
                    local.maps["pedge"], local.dats["x"], local.dats["u"],
                    local.dats["du"], steps=30)
            return op2.gather_dat(comm, local.dats["u"],
                                  layouts[comm.rank], N)

        results = run_ranks(3, rank_fn)
        np.testing.assert_allclose(results[0], u_ref, rtol=1e-12, atol=1e-14)
