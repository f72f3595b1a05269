"""Race-sanitizer OP2 backend: write-set auditing of coloring plans.

The acceptance bar (ISSUE 1): a seeded plan mutation — two conflicting
elements forced into one color — must be detected by the sanitizer,
with a report naming the color, the elements and the shared dat entry.
The clean paths must stay numerically identical to ``sequential``.
"""

import numpy as np
import pytest

from repro import op2
from repro.sanitize import RaceError, check_block_plan, check_plan


@pytest.fixture(autouse=True)
def fresh_plans():
    op2.clear_plan_cache()
    yield
    op2.clear_plan_cache()


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


def corrupt_plan(plan, color_from=1, color_to=0):
    """Force the first element of one color group into another color.

    ``build_plan`` caches plans by loop signature, so mutating the
    returned object is exactly what a later par_loop will execute —
    the seeded-mutation scenario of the acceptance criteria.
    """
    victim = int(plan.color_groups[color_from][0])
    plan.colors[victim] = color_to
    plan.color_groups[color_to] = np.sort(
        np.append(plan.color_groups[color_to], victim))
    plan.color_groups[color_from] = plan.color_groups[color_from][1:]
    return victim


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

    def test_valid_vector_plan_is_clean(self):
        nodes, edges, pedge = make_chain()
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        op2.par_loop(scatter_kernel(), edges, arg, backend="sanitizer")
        plan = op2.build_plan([arg], edges.size)
        assert plan.ncolors >= 2
        assert check_plan([arg], plan) == []


class TestMutationDetection:
    def test_seeded_plan_mutation_is_detected(self):
        """Two conflicting edges forced into one color -> RaceError
        naming the color, both elements, and the shared node."""
        nodes, edges, pedge = make_chain()
        acc = op2.Dat(nodes, 1, name="acc")
        kernel = scatter_kernel()
        arg = acc.arg(op2.INC, pedge, op2.ALL)

        op2.par_loop(kernel, edges, arg, backend="sanitizer")  # clean
        plan = op2.build_plan([arg], edges.size)
        victim = corrupt_plan(plan)

        with pytest.raises(RaceError) as excinfo:
            op2.par_loop(kernel, edges, arg, backend="sanitizer")
        err = excinfo.value
        assert err.findings, "mutation must produce findings"
        conflicting = set()
        for f in err.findings:
            conflicting.update(f.elements)
        assert victim in conflicting
        message = str(err)
        assert "color 0" in message
        assert "acc via pedge[*]" in message

    def test_findings_name_the_shared_target(self):
        nodes, edges, pedge = make_chain()
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_plan([arg], edges.size)
        victim = corrupt_plan(plan)
        findings = check_plan([arg], plan)
        # victim (edge v) now shares nodes v and v+1 with its neighbours
        targets = {f.target for f in findings}
        assert targets & {victim, victim + 1}
        assert all(f.color == 0 for f in findings)

    def test_partition_violation_is_detected(self):
        """A plan that drops an element is flagged even when race-free."""
        nodes, edges, pedge = make_chain()
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_plan([arg], edges.size)
        plan.color_groups[0] = plan.color_groups[0][1:]  # lose an element

        with pytest.raises(RaceError, match="does not cover"):
            op2.par_loop(scatter_kernel(), edges, arg, backend="sanitizer")

    def test_sanitize_config_flag_overrides_backend(self):
        """cfg.sanitize routes every loop through the sanitizer, even
        with an explicit per-loop backend override."""
        nodes, edges, pedge = make_chain()
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, pedge, op2.ALL)
        plan = op2.build_plan([arg], edges.size)
        corrupt_plan(plan)

        # the coloring backend trusts the plan: silently wrong results
        with op2.configure(sanitize=True):
            with pytest.raises(RaceError):
                op2.par_loop(scatter_kernel(), edges, arg,
                             backend="coloring")
        # without the flag the corrupted plan executes silently
        op2.par_loop(scatter_kernel(), edges, arg, backend="coloring")


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
        pairs = {f.elements for f in findings}
        assert (0, 1) in pairs and (1, 2) in pairs
        assert {f.target for f in findings} == {4, 8}


class TestDegenerateVectorRow:
    """A vector map row that repeats a target, e.g. ``[2, 3, 3]``: the
    element's one fancy ``+=`` would drop the repeated increment."""

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

    def test_check_plan_reports_same_element_repeat(self):
        nodes, cells, cell2node = self.make_cells()
        acc = op2.Dat(nodes, 1, name="acc")
        arg = acc.arg(op2.INC, cell2node, op2.ALL)
        plan = op2.build_plan([arg], cells.size)
        findings = check_plan([arg], plan)
        assert [(f.target, f.elements) for f in findings] == [(3, (1,))]

    def test_sanitizer_raises_instead_of_losing_an_increment(self):
        nodes, cells, cell2node = self.make_cells()
        ref = op2.Dat(nodes, 1, name="ref")
        op2.par_loop(self.spread(), cells,
                     ref.arg(op2.INC, cell2node, op2.ALL),
                     backend="sequential")
        assert ref.data_ro[3, 0] == 2.0
        acc = op2.Dat(nodes, 1, name="acc")
        with pytest.raises(RaceError) as excinfo:
            op2.par_loop(self.spread(), cells,
                         acc.arg(op2.INC, cell2node, op2.ALL),
                         backend="sanitizer")
        message = str(excinfo.value)
        assert "element 1 scatters into acc via cell2node[*] row 3" in message
        np.testing.assert_array_equal(acc.data_ro, 0.0)  # nothing applied
