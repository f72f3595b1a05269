"""One halo exchange protocol, pinned from the wire up.

Eager ``par_loop`` refreshes and chain flushes share one split-phase
primitive (:func:`repro.op2.halo.exchange_begin` /
:func:`~repro.op2.halo.exchange_end`). These tests pin

* the wire: sender-ordered message structure and per-phase totals of
  the 2-rank airfoil and the two-map ring, eager and lazy, under every
  (partial_halos, grouped_halos), on both transports;
* dtype-exact grouped packing: a group mixing an int64 and a float64
  dat delivers the owners' values bit for bit, and the op2 halo
  counters of an int32 + float64 group equal the smpi ledger;
* that disabled telemetry computes no halo byte/message accounting;
* that the chain's eager baseline (``ChainStats.eager_exchanges`` /
  ``eager_messages``) is exactly what eager execution does.
"""

import numpy as np
import pytest

from repro import op2
from repro.apps import AirfoilApp, airfoil_owners, airfoil_problem, make_airfoil_mesh
from repro.hydra import FlowState, HydraSolver, Numerics, row_problem
from repro.hydra.problem import row_owners
from repro.mesh import RowConfig, RowKind, make_row_mesh
from repro.op2 import halo as halo_mod
from repro.op2.distribute import plan_distribution
from repro.smpi import Traffic, run_ranks
from repro.telemetry.recorder import RankRecorder, use_recorder

from .test_op2_chain import PROGRAM, _issue, make_ring

#: (partial_halos, grouped_halos)
CONFIGS = [(False, False), (False, True), (True, False), (True, True)]


# --------------------------------------------------------------------------
# rank programs: test_op2_chain's two-map ring, the airfoil, one Hydra row
# --------------------------------------------------------------------------

RING_PROGRAM = "".join(PROGRAM)


def k_mixed(e, k0, k1, x0, x1):
    e[0] = x0[0] + x1[0] + 0.5 * (k0[0] - k1[0])


def ring_problem(nranks=2, n=16):
    gp, table = make_ring(n)
    node_owner = np.minimum(np.arange(n) * nranks // n, nranks - 1)
    owners = {"nodes": node_owner, "edges": node_owner[table[:, 0]]}
    return gp, plan_distribution(gp, nranks, owners), node_owner


def _hydra_row(nranks):
    cfg = RowConfig(name="duct", kind=RowKind.STATOR, nr=3, nt=12, nx=6,
                    turning_velocity=0.0, work_coeff=0.0)
    mesh = make_row_mesh(cfg)
    inflow = FlowState(rho=1.0, ux=0.5, p=1.0)
    gp = row_problem(mesh, inflow)
    owners = row_owners(mesh, gp, nranks, scheme="strips")
    return cfg, inflow, gp, plan_distribution(gp, nranks, owners)


def run_case(case, nranks, *, lazy, partial, grouped, transport="thread"):
    """Run one rank program; returns (traffic ledger, per-rank ChainStats)."""
    if case == "airfoil":
        mesh = make_airfoil_mesh(ni=24, nj=6)
        gp = airfoil_problem(mesh, mach=0.35)
        layouts = plan_distribution(gp, nranks, airfoil_owners(mesh, nranks))
    elif case == "hydra":
        row_cfg, inflow, gp, layouts = _hydra_row(nranks)
    else:
        gp, layouts, _ = ring_problem(nranks=nranks)

    def rank_fn(comm):
        op2.set_config(backend="vectorized", lazy=lazy, partial_halos=partial,
                       grouped_halos=grouped, chain_verify=False)
        op2.reset_chain_stats()
        local = op2.build_local_problem(gp, layouts[comm.rank], comm)
        if case == "airfoil":
            AirfoilApp.from_local(mesh, local, mach=0.35).iterate(2)
        elif case == "hydra":
            HydraSolver(local, row_cfg, Numerics(), dt_outer=0.05,
                        inlet=inflow, p_out=1.0).run(2)
        else:
            sets = (local.sets["nodes"], local.sets["edges"])
            maps = (local.maps["pedge"], local.maps["pskip"])
            dats = (local.dats["x"], local.dats["y"], local.dats["e"])
            with op2.loop_chain("ring", enabled=lazy):
                for op in case:
                    _issue(op, sets, maps, dats)
        op2.flush_chain()
        stats = op2.chain_stats().as_dict()
        op2.set_config(lazy=False)
        op2.flush_chain()
        return stats

    traffic = Traffic()
    stats = run_ranks(nranks, rank_fn, traffic=traffic, transport=transport,
                      timeout=120.0)
    return traffic, stats


def wire(traffic):
    """(structure fingerprint, {phase: (messages, nbytes)})."""
    return (traffic.structure_fingerprint(),
            {k: (v["messages"], v["nbytes"])
             for k, v in sorted(traffic.by_phase().items())})


# --------------------------------------------------------------------------
# wire pin
# --------------------------------------------------------------------------

#: recorded before eager refreshes and chain flushes shared one packer
#: (identical on both transports then):
#: (case, lazy, partial, grouped) -> wire(traffic) of the 2-rank run
WIRE_PINS = {
    (RING_PROGRAM, False, False, False): (
        "e0c9e1d1e83d777a8a2e772d3a9d6be311c9e9ea3da917a317fa735014109fc0",
        {"halo:full": (8, 192)}),
    (RING_PROGRAM, False, False, True): (
        "1ad8d713a3f323be733fb2a5e6c9cc33b53b2154745f6a7771191161c5504de2",
        {"halo:full:grouped": (8, 192)}),
    (RING_PROGRAM, False, True, False): (
        "4fa4ba1ba30807fe6ef34b68ae9b7dad72b4e00355cde014849a058f72374960",
        {"halo:exec": (4, 64), "halo:pedge@own": (4, 32),
         "halo:pskip@own": (2, 32)}),
    (RING_PROGRAM, False, True, True): (
        "d47638760e5a762550c6aaa5c766aac964ff4f999d978e5e99b0b4800dddb125",
        {"halo:exec:grouped": (4, 64), "halo:pedge@own:grouped": (4, 32),
         "halo:pskip@own:grouped": (2, 32)}),
    (RING_PROGRAM, True, False, False): (
        "e691c7b300a49d20a52466641cc69ea56e3b47d94a7e760fd31fc190c89eb105",
        {"halo:chain": (8, 192)}),
    (RING_PROGRAM, True, False, True): (
        "e691c7b300a49d20a52466641cc69ea56e3b47d94a7e760fd31fc190c89eb105",
        {"halo:chain": (8, 192)}),
    (RING_PROGRAM, True, True, False): (
        "8415391fa90c1fd93108adfb91814a8159b1e4eee5cb650a7bcca96ada01ca90",
        {"halo:chain": (8, 112)}),
    (RING_PROGRAM, True, True, True): (
        "8415391fa90c1fd93108adfb91814a8159b1e4eee5cb650a7bcca96ada01ca90",
        {"halo:chain": (8, 112)}),
    ("airfoil", False, False, False): (
        "df87f3ae45baf520543bd4fab861d50c3e4be36b203a8b1ff776993ecef941f9",
        {"halo:full": (14, 2560)}),
    ("airfoil", False, False, True): (
        "7da2e9b7dd4f523e0130a1c4d1d7dcf1dd93bc9e0030a99c1296576ac7e9da60",
        {"halo:full:grouped": (8, 2560)}),
    ("airfoil", False, True, False): (
        "ad4709300dea7fc487dafc5cab6c6366f30c6c8483d341bbbe230368b2450e99",
        {"halo:pbecell": (14, 512), "halo:pecell": (14, 2560)}),
    ("airfoil", False, True, True): (
        "660d4cc3a988b1a1e0cff7581ca4f5aefbd8787902fd873a44bd3ca1eccee4d1",
        {"halo:pbecell:grouped": (8, 512), "halo:pecell:grouped": (8, 2560)}),
    ("airfoil", True, False, False): (
        "b65d3be6330a4ec4b6f72e9b85969320264ac2e4c5814811450b71f708f0e8f1",
        {"halo:chain": (8, 2560)}),
    ("airfoil", True, False, True): (
        "b65d3be6330a4ec4b6f72e9b85969320264ac2e4c5814811450b71f708f0e8f1",
        {"halo:chain": (8, 2560)}),
    ("airfoil", True, True, False): (
        "b65d3be6330a4ec4b6f72e9b85969320264ac2e4c5814811450b71f708f0e8f1",
        {"halo:chain": (8, 2560)}),
    ("airfoil", True, True, True): (
        "b65d3be6330a4ec4b6f72e9b85969320264ac2e4c5814811450b71f708f0e8f1",
        {"halo:chain": (8, 2560)}),
}


@pytest.mark.parametrize("transport", ["thread", "process"])
@pytest.mark.parametrize("partial,grouped", CONFIGS)
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("case", ["airfoil", RING_PROGRAM])
def test_wire_unchanged(case, lazy, partial, grouped, transport):
    traffic, _ = run_case(case, 2, lazy=lazy, partial=partial,
                          grouped=grouped, transport=transport)
    assert wire(traffic) == WIRE_PINS[(case, lazy, partial, grouped)]


# --------------------------------------------------------------------------
# grouped packing keeps every dat's dtype
# --------------------------------------------------------------------------

BIG = 2**53 + 1  # the smallest int64 a float64 cannot hold


def _mixed_rank(comm, gp, layouts, node_owner, lazy, int_dtype):
    """Exchange an integer dat grouped with float64 ``x``; return the halo
    values received and the owners' values they must equal."""
    op2.set_config(backend="vectorized", lazy=lazy, partial_halos=False,
                   grouped_halos=True)
    local = op2.build_local_problem(gp, layouts[comm.rank], comm)
    nodes, edges = local.sets["nodes"], local.sets["edges"]
    pedge = local.maps["pedge"]
    x, e = local.dats["x"], local.dats["e"]
    k = op2.Dat(nodes, 1, dtype=int_dtype, name="k")
    base = BIG if int_dtype == np.int64 else 7
    k.data[:] = base + comm.rank
    x.data[:] = 0.1 + comm.rank
    if lazy:
        with op2.loop_chain("mixed"):
            op2.par_loop(op2.Kernel(k_mixed), edges, e.arg(op2.WRITE),
                         k.arg(op2.READ, pedge, 0), k.arg(op2.READ, pedge, 1),
                         x.arg(op2.READ, pedge, 0), x.arg(op2.READ, pedge, 1))
    else:
        op2.exchange_halos(nodes, [k, x], scope="full", grouped=True)
    op2.set_config(lazy=False)
    op2.flush_chain()
    owner = node_owner[nodes.halo.global_ids[nodes.size:]]
    return (k.data_with_halos[nodes.size:, 0].copy(), base + owner,
            x.data_with_halos[nodes.size:, 0].copy(), 0.1 + owner)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_grouped_int64_with_float64_is_exact(lazy, smpi_transport):
    gp, layouts, node_owner = ring_problem()
    results = run_ranks(2, _mixed_rank,
                        args=(gp, layouts, node_owner, lazy, np.int64))
    for k_got, k_want, x_got, x_want in results:
        assert k_got.dtype == np.int64
        assert len(k_got) > 0
        np.testing.assert_array_equal(k_got, k_want)
        assert np.array_equal(x_got.view(np.uint64), x_want.view(np.uint64))


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_mixed_dtype_counters_match_ledger(lazy):
    gp, layouts, node_owner = ring_problem()

    def rank_fn(comm):
        rec = RankRecorder(rank=comm.rank)
        prev = use_recorder(rec)
        try:
            _mixed_rank(comm, gp, layouts, node_owner, lazy, np.int32)
        finally:
            use_recorder(prev)
        return dict(rec.counters)

    traffic = Traffic()
    counters = run_ranks(2, rank_fn, traffic=traffic, transport="thread")
    halo = [v for k, v in traffic.by_phase().items() if k.startswith("halo")]
    ledger_bytes = sum(v["nbytes"] for v in halo)
    ledger_msgs = sum(v["messages"] for v in halo)
    assert ledger_bytes > 0
    assert sum(c["op2.halo.nbytes"] for c in counters) == ledger_bytes
    assert sum(c["op2.halo.messages"] for c in counters) == ledger_msgs


# --------------------------------------------------------------------------
# disabled telemetry pays nothing for halo accounting
# --------------------------------------------------------------------------

def test_untraced_exchange_computes_no_accounting(monkeypatch):
    def boom(*_args, **_kw):
        raise AssertionError("halo accounting computed with tracing off")

    monkeypatch.setattr(halo_mod, "exchange_nbytes", boom)
    gp, layouts, node_owner = ring_problem()
    for lazy in (False, True):
        results = run_ranks(2, _mixed_rank,
                            args=(gp, layouts, node_owner, lazy, np.int64),
                            transport="thread")
        for k_got, k_want, _x_got, _x_want in results:
            np.testing.assert_array_equal(k_got, k_want)


# --------------------------------------------------------------------------
# the chain's eager baseline is what eager execution does
# --------------------------------------------------------------------------

@pytest.mark.parametrize("nranks", [2, 3])
@pytest.mark.parametrize("case", [RING_PROGRAM, "UGS", "GUGUGU", "CCCC",
                                  "hydra"])
def test_eager_baseline_matches_eager_run(case, nranks, monkeypatch):
    for partial, grouped in CONFIGS:
        calls: list[int] = []
        real_begin = halo_mod.exchange_begin

        def spy(sset, *args, **kwargs):
            calls.append(sset.halo.comm.rank)
            return real_begin(sset, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(halo_mod, "exchange_begin", spy)
            traffic, _ = run_case(case, nranks, lazy=False, partial=partial,
                                  grouped=grouped)
        _, stats = run_case(case, nranks, lazy=True, partial=partial,
                            grouped=grouped)
        for rank, st in enumerate(stats):
            sent = sum(r.messages for r in traffic.records()
                       if r.phase.startswith("halo") and r.src == rank)
            label = (case, nranks, partial, grouped, rank)
            assert st["eager_exchanges"] == calls.count(rank), label
            assert st["eager_messages"] == sent, label
