"""The block-coloring plan: validity properties on random connectivity
(hypothesis). Element coloring is the same plan at one element per
block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import op2
from repro.op2.plan import build_block_plan, clear_plan_cache, conflict_units
from repro.sanitize import check_block_plan


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def make_loop_args(nedges, nnodes, table):
    nodes = op2.Set(nnodes, "nodes")
    edges = op2.Set(nedges, "edges")
    pedge = op2.Map(edges, nodes, table.shape[1], table, "pedge")
    acc = op2.Dat(nodes, 1)
    args = [acc.arg(op2.INC, pedge, i) for i in range(table.shape[1])]
    return edges, args


@st.composite
def random_mesh(draw):
    nnodes = draw(st.integers(min_value=1, max_value=40))
    nedges = draw(st.integers(min_value=1, max_value=120))
    arity = draw(st.integers(min_value=1, max_value=4))
    table = draw(
        st.lists(
            st.lists(st.integers(0, nnodes - 1), min_size=arity, max_size=arity),
            min_size=nedges, max_size=nedges,
        )
    )
    return nnodes, np.array(table, dtype=np.int64)


@given(random_mesh())
@settings(max_examples=60, deadline=None)
def test_element_coloring_is_conflict_free(mesh):
    """At one element per block, no two same-colored elements share a
    target through any writing column."""
    nnodes, table = mesh
    edges, args = make_loop_args(table.shape[0], nnodes, table)
    plan = build_block_plan(args, edges.size, block_size=1)
    assert plan is not None
    # every element colored exactly once
    assert plan.nblocks == edges.size
    assert ((plan.block_colors >= 0) & (plan.block_colors < plan.ncolors)).all()
    for color in range(plan.ncolors):
        group = np.flatnonzero(plan.block_colors == color)
        targets = table[group].ravel()
        # an element may repeat its own target (a degenerate row)
        owners = np.repeat(group, table.shape[1])
        pairs = np.unique(np.stack([targets, owners]), axis=1)
        assert np.unique(pairs[0]).size == pairs.shape[1]
    assert check_block_plan(args, plan) == []


@given(random_mesh(), st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_block_coloring_is_conflict_free(mesh, block_size):
    nnodes, table = mesh
    edges, args = make_loop_args(table.shape[0], nnodes, table)
    plan = build_block_plan(args, edges.size, block_size=block_size)
    assert plan is not None
    assert (plan.block_colors >= 0).all()
    # blocks of one color must not share any target
    for color in range(plan.ncolors):
        seen: set[int] = set()
        for start, end in plan.blocks_of_color(color):
            targets = set(table[start:end].ravel().tolist())
            assert not (targets & seen)
            seen |= targets


def test_no_conflicts_no_plan():
    nodes = op2.Set(5, "nodes")
    x = op2.Dat(nodes, 1)
    args = [x.arg(op2.READ)]
    assert build_block_plan(args, 5) is None


def test_read_only_indirect_needs_no_plan():
    nodes = op2.Set(4, "nodes")
    edges = op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "pedge")
    x = op2.Dat(nodes, 1)
    args = [x.arg(op2.READ, pedge, 0)]
    assert build_block_plan(args, 3) is None


def test_plan_cache_reuse():
    nodes = op2.Set(4, "nodes")
    edges = op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "pedge")
    acc = op2.Dat(nodes, 1)
    args = [acc.arg(op2.INC, pedge, 0)]
    p1 = build_block_plan(args, 3)
    p2 = build_block_plan(args, 3)
    assert p1 is p2
    p3 = build_block_plan(args, 2)  # different extent → different plan
    assert p3 is not p1
    assert build_block_plan(args, 3, block_size=1) is not p1


def test_vector_arg_unit_groups_columns():
    """An ALL-idx arg contributes every map column to its conflict unit."""
    nodes = op2.Set(4, "nodes")
    edges = op2.Set(4, "edges")
    # edges 0 and 1 share node 1 but through *different* columns
    table = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    acc = op2.Dat(nodes, 1, name="acc")
    args = [acc.arg(op2.INC, pedge, op2.ALL)]
    (unit,) = conflict_units(args, 4)
    assert unit.label == "acc via pedge[*]"
    assert [c.tolist() for c in unit.columns] == table.T.tolist()
    plan = build_block_plan(args, 4, block_size=1)
    assert plan.ncolors == 2
    assert check_block_plan(args, plan) == []


def test_separate_scalar_args_may_share_across_columns():
    """Two scalar-idx args into one target set form one conflict unit:
    elements sharing a target across columns may share a block, but
    never a color across blocks."""
    nodes = op2.Set(3, "nodes")
    edges = op2.Set(2, "edges")
    # edge 0 col0 hits node 1; edge 1 col1 hits node 1
    table = np.array([[1, 0], [2, 1]])
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    acc = op2.Dat(nodes, 1, name="acc")
    args = [acc.arg(op2.INC, pedge, 0), acc.arg(op2.INC, pedge, 1)]
    (unit,) = conflict_units(args, 2)
    assert unit.label == "acc via pedge[0] + acc via pedge[1]"
    assert build_block_plan(args, 2, block_size=2).ncolors == 1
    plan = build_block_plan(args, 2, block_size=1)
    assert plan.ncolors == 2
    assert check_block_plan(args, plan) == []


def test_chain_mesh_color_counts():
    """Path graph: scalar and vector args alike couple the columns, so
    element coloring needs the classic 2 colors, and one block that
    holds the whole chain needs 1."""
    n = 50
    nodes = op2.Set(n + 1, "nodes")
    edges = op2.Set(n, "edges")
    table = np.stack([np.arange(n), np.arange(n) + 1], axis=1)
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    acc = op2.Dat(nodes, 1)

    scalar_args = [acc.arg(op2.INC, pedge, 0), acc.arg(op2.INC, pedge, 1)]
    assert build_block_plan(scalar_args, n, block_size=1).ncolors == 2
    assert build_block_plan(scalar_args, n).ncolors == 1

    vector_args = [acc.arg(op2.INC, pedge, op2.ALL)]
    assert build_block_plan(vector_args, n, block_size=1).ncolors == 2
    assert build_block_plan(vector_args, n, block_size=10).ncolors == 2
