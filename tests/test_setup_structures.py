"""The one-time set-up structures equal their per-node references.

:class:`~repro.coupler.adt.ADTree` (level-built, batched descent),
:meth:`SideGeometry.donor_quads <repro.coupler.interface.SideGeometry.
donor_quads>` and the block colouring of
:func:`~repro.op2.plan.build_block_plan` are array code; the recursive
tree, the per-cell quad loop and the Python-int first-fit in
``tests/oracles/setup_structures.py`` are what they replaced. Every
output is held *identical* to the reference's, not equivalent: the tree
permutation, node ranges and boxes, ``build_ops`` and ``depth``; every
query's candidates and test count (so ``SearchStats`` comparisons
cannot move); the quad order with each seam duplicate after its
original; the block colours that keep ``native == blockcolor`` bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import op2
from repro.coupler.adt import ADTree
from repro.coupler.interface import SideGeometry
from repro.mesh import rig250_config
from repro.mesh.annulus import make_row_mesh
from repro.op2.plan import build_block_plan, clear_plan_cache
from tests.oracles.setup_structures import (
    RecursiveADTree,
    donor_quads_loop,
    first_fit_block_colors,
)

#: the rigs of the rig250_full and sliding_coupler benchmark workloads
RIGS = {
    "rig250": dict(nr=12, nt=96, nx=16, rows=10),
    "sliding": dict(nr=32, nt=384, nx=3, rows=3, steps_per_revolution=64),
}

EPS = (0.0, 1e-12, 1e-9)

#: offsets that put a point just inside, on, or just outside a box
#: edge at every tested ``eps``
NUDGE = (-2e-9, -5e-10, -5e-13, 0.0, 5e-13, 5e-10, 2e-9)


def rig_sides(name: str) -> list[SideGeometry]:
    """The donor sides of the rig's first interface (rows 0 and 1)."""
    rig = rig250_config(**RIGS[name])
    sides = []
    for row, which in ((0, "out"), (1, "in")):
        mesh = make_row_mesh(rig.rows[row])
        grid = mesh.iface_out_donor if which == "out" else mesh.iface_in_donor
        flat = grid.ravel()
        sides.append(SideGeometry(
            grid_shape=grid.shape, y=mesh.coords[flat, 1].copy(),
            z=mesh.coords[flat, 2].copy(),
            circumference=rig.rows[row].circumference,
            frame_velocity=rig.rows[row].wheel_speed))
    return sides


def assert_same_tree(tree: ADTree, ref: RecursiveADTree) -> None:
    assert tree.perm.tolist() == ref.perm.tolist()
    assert tree.build_ops == ref.build_ops
    assert tree.depth == ref.depth
    got = sorted(zip(tree.lo.tolist(), tree.hi.tolist(),
                     map(tuple, tree.bbox.tolist())))
    want = sorted((n.lo, n.hi, tuple(n.bbox.tolist())) for n in ref.nodes)
    assert got == want
    for i in np.flatnonzero(tree.left >= 0):
        children = (tree.lo[tree.left[i]], tree.hi[tree.right[i]])
        assert children == (tree.lo[i], tree.hi[i])


def assert_same_queries(tree: ADTree, ref: RecursiveADTree, y, z) -> None:
    for eps in EPS:
        best, tests = tree.candidates_batch(y, z, eps=eps)
        want_best, want_tests = ref.candidates_batch(y, z, eps=eps)
        assert best.tolist() == want_best.tolist()
        assert tests == want_tests
        for yi, zi in zip(y, z):
            assert tree.candidates(yi, zi, eps) == ref.candidates(yi, zi, eps)


@st.composite
def boxes_and_points(draw):
    """Boxes on a coarse lattice (shared edges, ties of centre and
    degenerate extents are common) and points on their corners and
    edges, nudged across them."""
    k = draw(st.integers(0, 60))
    coord = st.integers(0, 12).map(lambda v: 0.25 * v)
    ext = st.integers(0, 4).map(lambda v: 0.25 * v)
    rows = draw(st.lists(st.tuples(coord, coord, ext, ext),
                         min_size=k, max_size=k))
    boxes = np.array([[y, z, y + dy, z + dz] for y, z, dy, dz in rows]
                     ).reshape(-1, 4)
    n = draw(st.integers(1, 30))
    picks = st.tuples(st.integers(0, max(k - 1, 0)), st.integers(0, 3),
                      st.sampled_from(NUDGE), st.sampled_from(NUDGE),
                      coord, coord)
    y, z = [], []
    for b, corner, dy, dz, fy, fz in draw(
            st.lists(picks, min_size=n, max_size=n)):
        if k:
            y.append(boxes[b, 2 * (corner & 1)] + dy)
            z.append(boxes[b, 1 + 2 * (corner >> 1)] + dz)
        else:
            y.append(fy)
            z.append(fz)
    return boxes, np.array(y), np.array(z), draw(st.integers(1, 9))


class TestADTree:
    @given(boxes_and_points())
    @settings(max_examples=150, deadline=None)
    def test_tree_and_queries_match_the_recursive_reference(self, case):
        boxes, y, z, leaf_size = case
        tree = ADTree(boxes, leaf_size)
        ref = RecursiveADTree(boxes, leaf_size)
        assert_same_tree(tree, ref)
        assert_same_queries(tree, ref, y, z)

    @pytest.mark.parametrize("rig", sorted(RIGS))
    def test_rig_donor_trees_match_the_recursive_reference(self, rig):
        rng = np.random.default_rng(11)
        for side in rig_sides(rig):
            boxes, _ = side.donor_quads()
            tree, ref = ADTree(boxes), RecursiveADTree(boxes)
            assert_same_tree(tree, ref)
            # every target, shifted as a sliding round shifts it, and a
            # sample of the grid nodes themselves (edges and corners)
            y = np.mod(side.y + 0.37 * boxes[0, 2] - boxes[0, 0],
                       side.circumference)
            best, tests = tree.candidates_batch(y, side.z, eps=1e-9)
            want_best, want_tests = ref.candidates_batch(y, side.z, eps=1e-9)
            assert best.tolist() == want_best.tolist() and tests == want_tests
            pick = rng.choice(side.y.size, 40, replace=False)
            assert_same_queries(tree, ref, side.y[pick], side.z[pick])

    def test_empty_tree(self):
        tree = ADTree(np.empty((0, 4)))
        assert (tree.depth, tree.build_ops, tree.lo.size) == (0, 0, 0)
        best, tests = tree.candidates_batch(np.zeros(3), np.zeros(3))
        assert best.tolist() == [-1, -1, -1] and tests == 0


class TestDonorQuads:
    @pytest.mark.parametrize("rig", sorted(RIGS))
    def test_rig_sides_match_the_per_cell_loop(self, rig):
        for side in rig_sides(rig):
            boxes, corners = side.donor_quads()
            want_boxes, want_corners = donor_quads_loop(side)
            assert boxes.tobytes() == want_boxes.tobytes()
            assert corners.tolist() == want_corners.tolist()
            assert corners.dtype == np.int64

    @pytest.mark.parametrize("nt", [1, 2, 5, 16])
    def test_seam_duplicates_follow_their_originals(self, nt):
        """A grid whose first column sits at y > 0 makes the seam quads
        reach past L, so each is emitted twice, shifted by -L."""
        nr, L = 4, 3.0
        rng = np.random.default_rng(nt)
        y = np.sort(rng.uniform(0.1, L, (nr, nt)), axis=1)
        z = np.repeat(np.linspace(1.0, 2.0, nr)[:, None], nt, axis=1)
        side = SideGeometry((nr, nt), y.ravel(), z.ravel(), L, 0.0)
        boxes, corners = side.donor_quads()
        want_boxes, want_corners = donor_quads_loop(side)
        assert boxes.tobytes() == want_boxes.tobytes()
        assert corners.tolist() == want_corners.tolist()
        # one seam quad per row, each directly followed by its copy
        assert boxes.shape[0] == (nr - 1) * (nt + 1)
        seam = np.arange(nr - 1) * (nt + 1) + nt - 1
        assert (boxes[seam, 2] > L).all()
        assert corners[seam].tolist() == corners[seam + 1].tolist()
        assert (boxes[seam + 1] == boxes[seam] - [L, 0.0, L, 0.0]).all()


def flux_edge_args(edges_table: np.ndarray, n_nodes: int):
    """The indirect writes of the solver's ``flux_edge`` loop."""
    nodes = op2.Set(n_nodes, "nodes")
    edges = op2.Set(edges_table.shape[0], "edges")
    pedge = op2.Map(edges, nodes, 2, edges_table, "pedge")
    res = op2.Dat(nodes, 5, name="res")
    return edges.size, [res.arg(op2.INC, pedge, 0),
                        res.arg(op2.INC, pedge, 1)]


class TestBlockColors:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_plan_cache()
        yield
        clear_plan_cache()

    def assert_same_colors(self, args, extent, block_size):
        plan = build_block_plan(args, extent, block_size=block_size)
        colors, ncolors = first_fit_block_colors(args, extent, block_size)
        assert plan.block_colors.tolist() == colors.tolist()
        assert plan.block_colors.dtype == colors.dtype
        assert plan.ncolors == ncolors
        assert plan.nblocks == colors.size
        return plan

    @pytest.mark.parametrize("rig", sorted(RIGS))
    @pytest.mark.parametrize("block_size", [64, 256])
    def test_rig_rows_match_the_python_int_first_fit(self, rig, block_size):
        mesh = make_row_mesh(rig250_config(**RIGS[rig]).rows[0])
        extent, args = flux_edge_args(mesh.edges, mesh.n_nodes)
        self.assert_same_colors(args, extent, block_size)

    def test_star_mesh_past_the_int64_masks(self):
        """Every block touches the hub, so each needs its own colour:
        100 colours, past what an int64 mask holds."""
        table = np.stack([np.zeros(400, dtype=np.int64),
                          1 + np.arange(400) % 100], axis=1)
        nodes = op2.Set(101, "nodes")
        edges = op2.Set(400, "edges")
        pedge = op2.Map(edges, nodes, 2, table, "star")
        acc = op2.Dat(nodes, 1, name="acc")
        plan = self.assert_same_colors(
            [acc.arg(op2.INC, pedge, op2.ALL)], 400, 4)
        assert plan.ncolors == 100

    @given(st.integers(1, 40), st.integers(1, 150), st.integers(1, 3),
           st.integers(1, 16), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_meshes_match_the_python_int_first_fit(
            self, nnodes, nedges, arity, block_size, rnd):
        clear_plan_cache()
        table = np.array([[rnd.randrange(nnodes) for _ in range(arity)]
                          for _ in range(nedges)],
                         dtype=np.int64).reshape(nedges, arity)
        nodes = op2.Set(nnodes, "nodes")
        edges = op2.Set(nedges, "edges")
        pedge = op2.Map(edges, nodes, arity, table, "pedge")
        a = op2.Dat(nodes, 1, name="a")
        b = op2.Dat(nodes, 2, name="b")
        args = [a.arg(op2.INC, pedge, 0), b.arg(op2.INC, pedge, op2.ALL)]
        self.assert_same_colors(args, nedges, block_size)
