"""Property suite: halo-exchange scope never changes loop results.

The paper's partial-halo optimization (PH, Table III) exchanges only
the halo entries a loop references through its map — or only the exec
region for direct reads — instead of the full halo. Its correctness
claim, made executable here with Hypothesis over *random
connectivity*: whatever scope refreshes the halos (``"full"``,
``"exec"``, or per-map partial), and however messages are packed
(grouped or not), a distributed loop sequence must produce results
identical to the serial run.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import op2
from repro.op2.distribute import GlobalProblem, plan_distribution
from repro.op2.halo import exchange_halos
from repro.smpi import run_ranks

HALO_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_meshes(draw):
    """Random connectivity: a ring (so every rank has neighbours) plus
    arbitrary chord edges, with arbitrary node ownership."""
    n = draw(st.integers(min_value=8, max_value=18))
    nranks = draw(st.integers(min_value=2, max_value=4))
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n))
    ring = [(i, (i + 1) % n) for i in range(n)]
    table = np.array(ring + chords, dtype=np.int64)
    owners = np.array(
        draw(st.lists(st.integers(0, nranks - 1), min_size=n, max_size=n)),
        dtype=np.int64)
    owners[:nranks] = np.arange(nranks)  # every rank owns something
    data_seed = draw(st.integers(0, 2**16))
    return n, table, nranks, owners, data_seed


def build_problem(n, table, data_seed):
    rng = np.random.default_rng(data_seed)
    gp = GlobalProblem()
    gp.add_set("nodes", n)
    gp.add_set("edges", len(table))
    gp.add_map("pedge", "edges", "nodes", table)
    gp.add_dat("q", "nodes", rng.normal(size=(n, 1)))
    gp.add_dat("res", "nodes", np.zeros((n, 1)))
    return gp


def flux(q1, q2, r1, r2, total, magnitude):
    f = 0.5 * (q1[0] + q2[0])
    r1[0] += f
    r2[0] -= 0.5 * f
    total[0] += f
    magnitude[0] += fabs(f)  # noqa: F821


def relax(r, q):
    q[0] = q[0] + 0.1 * r[0]
    r[0] = 0.0


def loop_sequence(nodes, edges, pedge, q, res, steps=2):
    totals = []
    kflux = op2.Kernel(flux)
    krelax = op2.Kernel(relax)
    for _ in range(steps):
        total = op2.Global(1, 0.0, "total")
        magnitude = op2.Global(1, 0.0, "magnitude")
        op2.par_loop(kflux, edges,
                     q.arg(op2.READ, pedge, 0), q.arg(op2.READ, pedge, 1),
                     res.arg(op2.INC, pedge, 0), res.arg(op2.INC, pedge, 1),
                     total.arg(op2.INC), magnitude.arg(op2.INC))
        op2.par_loop(krelax, nodes, res.arg(op2.RW), q.arg(op2.RW))
        totals.append((total.value, magnitude.value))
    return totals


def run_serial(gp, table):
    n = gp.sets["nodes"]
    nodes = op2.Set(n, "nodes")
    edges = op2.Set(gp.sets["edges"], "edges")
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    q = op2.Dat(nodes, 1, data=gp.dats["q"][1].copy(), name="q")
    res = op2.Dat(nodes, 1, data=gp.dats["res"][1].copy(), name="res")
    totals = loop_sequence(nodes, edges, pedge, q, res)
    return q.data_ro.copy(), totals


def layouts_for(gp, table, nranks, owners):
    edge_owner = owners[table[:, 0]]
    return plan_distribution(
        gp, nranks, {"nodes": owners, "edges": edge_owner})


def run_distributed(gp, table, nranks, owners, partial, grouped,
                    lazy=False):
    n = gp.sets["nodes"]
    layouts = layouts_for(gp, table, nranks, owners)

    def rank_fn(comm):
        op2.set_config(backend="vectorized", partial_halos=partial,
                       grouped_halos=grouped, lazy=lazy)
        local = op2.build_local_problem(gp, layouts[comm.rank], comm)
        totals = loop_sequence(local.sets["nodes"], local.sets["edges"],
                               local.maps["pedge"], local.dats["q"],
                               local.dats["res"])
        gathered = op2.gather_dat(comm, local.dats["q"],
                                  layouts[comm.rank], n)
        return gathered, totals

    results = run_ranks(nranks, rank_fn, timeout=60.0)
    return results[0][0], [r[1] for r in results]


#: an 8-node ring + chord whose first flux total cancels to -1.9e-4: the
#: distributed sum misses the serial one by 6.1e-16, i.e. rtol 3.2e-12
CANCELLING_TOTAL = (8, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5],
                                 [5, 6], [6, 7], [7, 0], [4, 6]]),
                    2, np.array([0, 1, 0, 0, 0, 0, 0, 0]), 3206)


@given(random_meshes())
@example(CANCELLING_TOTAL)
@HALO_SETTINGS
def test_halo_scope_equivalence(case):
    """full / partial(per-map + exec) / grouped / both — identical
    results to serial on random connectivity."""
    n, table, nranks, owners, data_seed = case
    gp = build_problem(n, table, data_seed)
    q_ref, totals_ref = run_serial(gp, table)
    for partial, grouped in ((False, False), (True, False),
                             (False, True), (True, True)):
        q_dist, totals_all = run_distributed(
            gp, table, nranks, owners, partial, grouped)
        np.testing.assert_allclose(q_dist, q_ref, rtol=1e-12, atol=1e-14,
                                   err_msg=f"partial={partial} grouped={grouped}")
        # a reduction's rounding scales with its summands, not with a
        # total that may cancel to near zero
        for totals in totals_all:
            for (total, _), (ref, magnitude) in zip(totals, totals_ref):
                np.testing.assert_allclose(total, ref, rtol=0.0,
                                           atol=1e-12 * magnitude)


@given(random_meshes(), st.sampled_from(["full", "exec", "pedge"]))
@HALO_SETTINGS
def test_exchange_scope_fills_its_entries_with_owner_values(case, scope):
    """Direct exchange-level property: whatever the scope, every halo
    entry its plan covers must afterwards hold the owner's value (here
    the node's global id, so the expectation needs no reference run)."""
    n, table, nranks, owners, data_seed = case
    gp = build_problem(n, table, data_seed)
    layouts = layouts_for(gp, table, nranks, owners)

    def rank_fn(comm):
        local = op2.build_local_problem(gp, layouts[comm.rank], comm)
        nodes = local.sets["nodes"]
        q = local.dats["q"]
        halo = nodes.halo
        q.data[:, 0] = halo.global_ids[:nodes.size]
        q.mark_halo_stale()
        exchange_halos(nodes, [q], scope=scope)
        plan = halo.plan_for(scope)
        covered = (np.concatenate([v for v in plan.recv.values()])
                   if plan.recv else np.empty(0, dtype=np.int64))
        return (q.data_with_halos[covered, 0].copy(),
                halo.global_ids[covered].astype(float))

    for got, want in run_ranks(nranks, rank_fn, timeout=60.0):
        np.testing.assert_array_equal(got, want)


@given(random_meshes())
@HALO_SETTINGS
def test_own_scope_minimal_yet_sufficient(case):
    """The depth-1 ``pedge@own`` exchange set is exactly the halo nodes
    the *owned* map rows reference — no fewer (an owner-compute sweep
    over owned edges reads every one of them) and no more (anything
    else is depth-2 territory) — and the scope ladder nests:
    ``@own ⊆ map ⊆ full``."""
    n, table, nranks, owners, data_seed = case
    gp = build_problem(n, table, data_seed)
    layouts = layouts_for(gp, table, nranks, owners)

    def rank_fn(comm):
        local = op2.build_local_problem(gp, layouts[comm.rank], comm)
        nodes = local.sets["nodes"]
        edges = local.sets["edges"]
        pedge = local.maps["pedge"]
        halo = nodes.halo

        def recv_set(scope):
            plan = halo.plans[scope]
            return {int(i) for v in plan.recv.values() for i in v}

        own, per_map, full = (recv_set("pedge@own"), recv_set("pedge"),
                              recv_set("full"))
        refs_own = np.unique(pedge.values[: edges.size])
        refs_exec = np.unique(pedge.values[: edges.exec_size])
        expect_own = {int(i) for i in refs_own[refs_own >= nodes.size]}
        expect_map = {int(i) for i in refs_exec[refs_exec >= nodes.size]}
        assert own == expect_own          # minimal AND sufficient
        assert per_map == expect_map
        assert own <= per_map <= full     # subsumption ladder
        assert full == set(range(nodes.size, nodes.total_size))
        # matched pairwise plans: my sends to q mirror q's recvs from me
        counts = {}
        for scope in ("pedge@own", "pedge", "full"):
            plan = halo.plans[scope]
            counts[scope] = (
                {q: len(v) for q, v in plan.send.items() if len(v)},
                {q: len(v) for q, v in plan.recv.items() if len(v)})
        return counts

    results = run_ranks(nranks, rank_fn, timeout=60.0)
    for scope in ("pedge@own", "pedge", "full"):
        for r, counts in enumerate(results):
            send, _recv = counts[scope]
            for q, count in send.items():
                peer_recv = results[q][scope][1]
                assert peer_recv.get(r) == count, (
                    f"{scope}: rank {r} sends {count} entries to {q} but "
                    f"{q} expects {peer_recv.get(r)}")


@given(random_meshes())
@HALO_SETTINGS
def test_lazy_partial_halos_bitwise_equal_eager_full(case):
    """The aggressive end of the optimization space (lazy chains +
    depth-aware partial halos + grouped messages) must be *bitwise*
    equal to the conservative eager full exchange — not merely close:
    both paths fold the same owner values in the same order."""
    n, table, nranks, owners, data_seed = case
    gp = build_problem(n, table, data_seed)
    q_ref, totals_ref = run_distributed(gp, table, nranks, owners,
                                        partial=False, grouped=False)
    q_opt, totals_opt = run_distributed(gp, table, nranks, owners,
                                        partial=True, grouped=True,
                                        lazy=True)
    np.testing.assert_array_equal(q_opt, q_ref)
    assert totals_opt == totals_ref
