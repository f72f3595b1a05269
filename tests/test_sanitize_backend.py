"""Race-sanitizer OP2 backend: write-set auditing of the block plan.

The sanitizer audits the very plan object the compiled ``native``
backend executes (same cache key), so a seeded mutation of that plan —
two target-sharing blocks forced into one color, or a block colored
outside ``[0, ncolors)`` — must be detected with a report naming the
color, the blocks and the shared dat entry. The clean paths must stay
numerically identical to ``sequential``.
"""

import numpy as np
import pytest

from repro import op2
from repro.op2 import plan as plan_mod
from repro.sanitize import RaceError, check_block_plan


@pytest.fixture(autouse=True)
def fresh_plans():
    op2.clear_plan_cache()
    yield
    op2.clear_plan_cache()


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 4 elements, so a 12-edge chain has 3 blocks."""
    monkeypatch.setattr(plan_mod, "BLOCK_SIZE", 4)


def make_chain(n=9):
    """Chain mesh: edge i connects nodes i and i+1 (adjacent edges
    conflict through the shared interior node)."""
    nodes = op2.Set(n + 1, "nodes")
    edges = op2.Set(n, "edges")
    table = np.stack([np.arange(n), np.arange(n) + 1], axis=1)
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    return nodes, edges, pedge


def scatter_kernel():
    def scatter(a):
        a[0, 0] += 1.0
        a[1, 0] += 2.0

    return op2.Kernel(scatter)


class TestCleanExecution:
    def test_sanitizer_matches_sequential(self):
        nodes, edges, pedge = make_chain()
        val = op2.Dat(nodes, 1, data=np.arange(10.0), name="val")
        out_seq = op2.Dat(nodes, 1, name="out_seq")
        out_san = op2.Dat(nodes, 1, name="out_san")

        def spread(v1, v2, a1, a2):
            a1[0] += v2[0]
            a2[0] += v1[0]

        for out, backend in ((out_seq, "sequential"), (out_san, "sanitizer")):
            op2.par_loop(op2.Kernel(spread), edges,
                         val.arg(op2.READ, pedge, 0),
                         val.arg(op2.READ, pedge, 1),
                         out.arg(op2.INC, pedge, 0),
                         out.arg(op2.INC, pedge, 1),
                         backend=backend)
        np.testing.assert_allclose(out_san.data, out_seq.data)

    def test_direct_loop_passes_untouched(self):
        nodes = op2.Set(6, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(6.0), name="x")

        def double(v):
            v[0] = 2.0 * v[0]

        op2.par_loop(op2.Kernel(double), nodes, x.arg(op2.RW),
                     backend="sanitizer")
        np.testing.assert_allclose(x.data[:, 0], 2.0 * np.arange(6.0))

    def test_valid_vector_plan_is_clean(self, small_blocks):
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        op2.par_loop(scatter_kernel(), edges, arg, backend="sanitizer")
        plan = op2.build_block_plan([arg], edges.size)
        assert plan.block_size == 4 and plan.ncolors >= 2
        assert check_block_plan([arg], plan) == []
        np.testing.assert_array_equal(
            acc.data_ro[:, 0], [1.0] + [3.0] * 11 + [2.0])


class TestMutationDetection:
    def test_seeded_plan_mutation_is_detected(self, small_blocks):
        """Two target-sharing blocks forced into one color -> RaceError
        naming the color, both blocks and the shared node."""
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        kernel = scatter_kernel()
        arg = acc.arg(op2.INC, pedge, op2.ALL)

        op2.par_loop(kernel, edges, arg, backend="sanitizer")  # clean
        plan = op2.build_block_plan([arg], edges.size)
        assert plan.block_colors.tolist() == [0, 1, 0]
        plan.block_colors[1] = 0

        with pytest.raises(RaceError) as excinfo:
            op2.par_loop(kernel, edges, arg, backend="sanitizer")
        err = excinfo.value
        assert {(f.blocks, f.target) for f in err.findings} == {
            ((0, 1), 4), ((1, 2), 8)}
        message = str(err)
        assert "color 0: blocks [0, 1] all scatter into acc via pedge[*] " \
               "row 4" in message

    def test_findings_name_the_shared_target(self, small_blocks):
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_block_plan([arg], edges.size)
        plan.block_colors[2] = 1  # block 2 shares node 8 with block 1
        findings = check_block_plan([arg], plan)
        assert [(f.color, f.target, f.blocks) for f in findings] == [
            (1, 8, (1, 2))]

    def test_partition_violation_is_detected(self, small_blocks):
        """A block colored outside [0, ncolors) never runs: flagged even
        though no two same-colored blocks share a target."""
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_block_plan([arg], edges.size)
        plan.block_colors[0] = plan.ncolors

        with pytest.raises(RaceError, match="does not cover"):
            op2.par_loop(scatter_kernel(), edges, arg, backend="sanitizer")
        np.testing.assert_array_equal(acc.data_ro, 0.0)  # nothing applied

    def test_sanitize_config_flag_overrides_backend(self, small_blocks):
        """cfg.sanitize routes every loop through the sanitizer, even
        with an explicit per-loop backend override."""
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_block_plan([arg], edges.size)
        plan.block_colors[:] = 0

        # the blockcolor oracle trusts the plan: blocks run serially in
        # its simulation, so the race goes unnoticed
        with op2.configure(sanitize=True):
            with pytest.raises(RaceError):
                op2.par_loop(scatter_kernel(), edges, arg,
                             backend="blockcolor")
        op2.par_loop(scatter_kernel(), edges, arg, backend="blockcolor")


class TestNativePlanAudit:
    """``sanitize=True`` audits the plan ``native`` executes: a corrupt
    cached block plan raises before ``native`` would run it."""

    def run_native(self, kernel, edges, arg):
        with op2.configure(sanitize=True):
            op2.par_loop(kernel, edges, arg, backend="native")

    def test_same_color_blocks_raise_naming_blocks_and_node(
            self, small_blocks):
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_block_plan([arg], edges.size)
        assert plan.ncolors == 2
        plan.block_colors[:] = 0

        with pytest.raises(RaceError) as excinfo:
            self.run_native(scatter_kernel(), edges, arg)
        message = str(excinfo.value)
        assert "color 0: blocks [0, 1] all scatter into acc via pedge[*] " \
               "row 4" in message
        assert "blocks [1, 2]" in message and "row 8" in message
        np.testing.assert_array_equal(acc.data_ro, 0.0)

    def test_block_colored_past_ncolors_does_not_cover(self, small_blocks):
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_block_plan([arg], edges.size)
        plan.block_colors[1] = plan.ncolors

        with pytest.raises(RaceError, match="does not cover") as excinfo:
            self.run_native(scatter_kernel(), edges, arg)
        assert "blocks [1]" in str(excinfo.value)

    def test_audited_plan_is_the_native_plan(self, small_blocks):
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        self.run_native(scatter_kernel(), edges, arg)
        (plan,) = pedge._plans.values()
        assert plan is op2.build_block_plan([arg], edges.size)
        assert plan.block_size == 4


class TestBlockPlanAudit:
    def test_clean_block_plan_has_no_findings(self):
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        args = [acc.arg(op2.INC, pedge, op2.ALL)]
        plan = op2.build_block_plan(args, edges.size, block_size=4)
        assert plan.ncolors >= 2
        assert check_block_plan(args, plan) == []

    def test_same_color_adjacent_blocks_conflict(self):
        """Recolored so two target-sharing blocks run concurrently:
        the audit must name the shared node and both blocks."""
        nodes, edges, pedge = make_chain(12)
        acc = op2.Dat(nodes, 1, name="acc")
        args = [acc.arg(op2.INC, pedge, op2.ALL)]
        plan = op2.build_block_plan(args, edges.size, block_size=4)
        plan.block_colors[:] = 0  # all blocks "parallel"
        findings = check_block_plan(args, plan)
        assert findings
        # blocks 0/1 share node 4; blocks 1/2 share node 8
        pairs = {f.blocks for f in findings}
        assert (0, 1) in pairs and (1, 2) in pairs
        assert {f.target for f in findings} == {4, 8}


class TestDegenerateVectorRow:
    """A vector map row that repeats a target, e.g. ``[2, 3, 3]``: the
    element increments the target twice, and every backend keeps both
    increments (one block applies its writes serially)."""

    def make_cells(self):
        nodes = op2.Set(5, "nodes")
        cells = op2.Set(2, "cells")
        cell2node = op2.Map(cells, nodes, 3, [[0, 1, 2], [2, 3, 3]],
                            "cell2node")
        return nodes, cells, cell2node

    def spread(self):
        def spread(a):
            for i in range(3):
                a[i, 0] += 1.0

        return op2.Kernel(spread)

    def test_every_backend_keeps_both_increments(self):
        nodes, cells, cell2node = self.make_cells()
        for backend in ("sequential", "vectorized", "native", "sanitizer"):
            acc = op2.Dat(nodes, 1, name="acc")
            arg = acc.arg(op2.INC, cell2node, op2.ALL)
            op2.par_loop(self.spread(), cells, arg, backend=backend)
            assert acc.data_ro[:, 0].tolist() == [1.0, 1.0, 2.0, 2.0, 0.0], \
                backend
            plan = op2.build_block_plan([arg], cells.size)
            assert check_block_plan([arg], plan) == []
