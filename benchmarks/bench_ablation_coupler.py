"""Ablation — coupler design choices: ADT crossover, partitioner choice,
donor cache.

* ADT vs brute force as a function of interface size (where does the
  tree pay for its build cost?);
* partitioner quality (RCB vs greedy graph vs slabs) on a row mesh:
  edge-cut drives halo traffic, interface-node spread drives the
  monolithic trap;
* the transfer engine's donor cache on a full coupled run:
  ``incremental`` off vs on, serve-compute time and search effort.
"""

import dataclasses

import numpy as np
import pytest

from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.coupler.search import ADTSearch, BruteForceSearch
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.mesh import (
    RowConfig,
    RowKind,
    edge_cut,
    imbalance,
    make_row_mesh,
    partition_graph_greedy,
    partition_rcb,
    partition_slabs,
)
from repro.util.tables import format_table


def grid_boxes(n_side):
    boxes = []
    for iz in range(n_side):
        for iy in range(n_side):
            boxes.append([iy, iz, iy + 1, iz + 1])
    return np.array(boxes, dtype=float)


@pytest.mark.parametrize("kind", ["bruteforce", "adt"])
@pytest.mark.parametrize("n_side", [8, 32])
def test_search_scaling(benchmark, kind, n_side):
    boxes = grid_boxes(n_side)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.01, n_side - 0.01, size=(200, 2))
    cls = BruteForceSearch if kind == "bruteforce" else ADTSearch

    def run():
        s = cls(boxes)
        for y, z in pts:
            s.find(float(y), float(z))
        return s.stats.comparisons

    comparisons = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["comparisons"] = comparisons
    benchmark.extra_info["quads"] = boxes.shape[0]


def test_report_adt_crossover(report, benchmark):
    rows = []
    rng = np.random.default_rng(1)
    for n_side in (4, 8, 16, 32, 64):
        boxes = grid_boxes(n_side)
        pts = rng.uniform(0.01, n_side - 0.01, size=(100, 2))
        bf = BruteForceSearch(boxes)
        adt = ADTSearch(boxes)
        for y, z in pts:
            bf.find(float(y), float(z))
            adt.find(float(y), float(z))
        rows.append([boxes.shape[0], bf.stats.comparisons,
                     adt.stats.comparisons + adt.stats.build_ops,
                     bf.stats.comparisons
                     / (adt.stats.comparisons + adt.stats.build_ops)])
    report(format_table(
        ["donor quads", "BF comparisons", "ADT (incl. build)", "BF/ADT"],
        rows, title="ADT crossover vs interface size (100 queries)",
        floatfmt=".1f"))
    # the tree must win beyond small interfaces and the gap must widen
    assert rows[-1][3] > rows[1][3]
    assert rows[-1][3] > 5.0
    benchmark.pedantic(lambda: ADTSearch(grid_boxes(32)), rounds=3,
                       iterations=1)


def test_report_partitioner_choice(report, benchmark):
    cfg = RowConfig(name="bench", kind=RowKind.STATOR, nr=6, nt=48, nx=8,
                    halo_out=True)
    mesh = make_row_mesh(cfg)
    iface = set(mesh.iface_out_plane.ravel().tolist())
    rows = []
    for name, owner in [
        ("RCB", partition_rcb(mesh.coords, 8)),
        ("greedy graph", partition_graph_greedy(mesh.edges, mesh.n_nodes, 8)),
        ("axial slabs", partition_slabs(mesh.coords, 8)),
    ]:
        iface_ranks = len({int(owner[n]) for n in iface})
        rows.append([name, edge_cut(mesh.edges, owner),
                     imbalance(owner, 8), iface_ranks])
    report(format_table(
        ["partitioner", "edge cut", "imbalance", "ranks holding the "
         "sliding plane (of 8)"],
        rows, title="Partitioner choice on one blade row "
                    f"({mesh.n_nodes} nodes)", floatfmt=".3f"))
    # axial slabs trap the interface on few ranks — the monolithic issue
    slab_ranks = rows[2][3]
    assert slab_ranks <= 2
    benchmark.pedantic(partition_rcb, args=(mesh.coords, 8), rounds=3,
                       iterations=1)


def test_report_fastpath_stage_ablation(report, benchmark):
    """What the engine's cross-round donor cache buys."""
    cfg = CoupledRunConfig(
        rig=rig250_config(nr=3, nt=48, nx=4, rows=2,
                          steps_per_revolution=96),
        ranks_per_row=1, cus_per_interface=1,
        numerics=Numerics(inner_iters=2),
        inlet=FlowState(ux=0.5), p_out=1.0)
    stages = [
        ("batched interp", dict(incremental=False)),
        ("batched + incremental", dict()),
    ]
    rows = []
    base = None
    for name, overrides in stages:
        result = CoupledDriver(dataclasses.replace(cfg, **overrides)).run(5)
        t = sum(cu["serve_compute_seconds"] for cu in result.cus)
        stats = result.total_search_stats()
        if base is None:
            base = t
        rows.append([name, t, base / t, stats.comparisons,
                     stats.cache_hits])
    report(format_table(
        ["stage", "serve compute [s]", "speedup", "comparisons",
         "donor cache hits"],
        rows, title="coupler transfer-engine donor-cache ablation "
                    "(coupled run, 5 steps, nt=48)", floatfmt=".3g"))
    assert rows[1][3] < rows[0][3], "donor cache must cut comparisons"
    assert rows[1][4] > 0
    benchmark.pedantic(
        lambda: CoupledDriver(cfg).run(2), rounds=1, iterations=1)
