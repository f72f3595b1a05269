"""Donor search: ADT correctness against brute force (hypothesis),
comparison-count behaviour, bilinear weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coupler.adt import ADTree
from repro.coupler.search import (
    ADTSearch,
    BruteForceSearch,
    _bilinear_weights,
    make_search,
)


def grid_boxes(ny=8, nz=4, dy=1.0, dz=1.0):
    boxes = []
    for iz in range(nz):
        for iy in range(ny):
            boxes.append([iy * dy, iz * dz, (iy + 1) * dy, (iz + 1) * dz])
    return np.array(boxes)


class TestADTree:
    def test_build_empty(self):
        tree = ADTree(np.empty((0, 4)))
        assert tree.candidates(0.0, 0.0) == ([], 0)

    def test_invalid_boxes_rejected(self):
        with pytest.raises(ValueError, match="min <= max"):
            ADTree(np.array([[1.0, 0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"\(K, 4\)"):
            ADTree(np.zeros((3, 3)))

    def test_non_finite_box_rejected_by_both_search_kinds(self):
        """One NaN box made the root bbox NaN, so the tree found nothing
        for any point while brute force still found the other boxes."""
        boxes = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 2.0, 1.0],
                          [np.nan, 0.0, 3.0, 1.0]])
        for build in (ADTree, ADTSearch, BruteForceSearch):
            with pytest.raises(ValueError, match="box 2 is not finite"):
                build(boxes)
        with pytest.raises(ValueError, match="box 0 is not finite"):
            BruteForceSearch(np.array([[0.0, 0.0, np.inf, 1.0]]))

    def test_point_inside_single_box(self):
        tree = ADTree(np.array([[0.0, 0.0, 1.0, 1.0]]))
        hits, _ = tree.candidates(0.5, 0.5)
        assert hits == [0]

    def test_point_outside(self):
        tree = ADTree(np.array([[0.0, 0.0, 1.0, 1.0]]))
        hits, _ = tree.candidates(2.0, 0.5)
        assert hits == []

    def test_depth_grows_logarithmically(self):
        tree = ADTree(grid_boxes(32, 32), leaf_size=4)
        assert tree.depth <= 2 * int(np.ceil(np.log2(32 * 32 / 4))) + 2

    @given(st.integers(2, 12), st.integers(2, 8),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_adt_finds_same_boxes_as_linear_scan(self, ny, nz, fy, fz):
        boxes = grid_boxes(ny, nz)
        y = fy * ny
        z = fz * nz
        tree = ADTree(boxes, leaf_size=3)
        hits, _ = tree.candidates(y, z)
        want = set(np.nonzero(
            (boxes[:, 0] <= y) & (y <= boxes[:, 2])
            & (boxes[:, 1] <= z) & (z <= boxes[:, 3])
        )[0].tolist())
        assert set(hits) == want


class TestSearches:
    def test_brute_force_hit_and_weights(self):
        s = BruteForceSearch(grid_boxes(4, 2))
        hit = s.find(1.25, 0.5)
        assert hit.quad == 1
        np.testing.assert_allclose(hit.weights.sum(), 1.0)
        assert s.stats.queries == 1
        assert s.stats.comparisons == 8

    def test_miss_reported(self):
        s = BruteForceSearch(grid_boxes(2, 2))
        hit = s.find(10.0, 10.0)
        assert hit.quad == -1
        assert s.stats.misses == 1

    def test_adt_search_agrees_with_brute_force(self):
        boxes = grid_boxes(16, 8)
        rng = np.random.default_rng(0)
        bf = BruteForceSearch(boxes)
        adt = ADTSearch(boxes)
        for _ in range(100):
            y = rng.uniform(0.05, 15.95)
            z = rng.uniform(0.05, 7.95)
            h1 = bf.find(y, z)
            h2 = adt.find(y, z)
            assert h1.quad == h2.quad
            np.testing.assert_allclose(h1.weights, h2.weights)

    def test_adt_uses_fewer_comparisons_at_scale(self):
        boxes = grid_boxes(64, 16)  # 1024 quads
        bf = BruteForceSearch(boxes)
        adt = ADTSearch(boxes)
        rng = np.random.default_rng(1)
        for _ in range(200):
            y = rng.uniform(0, 64)
            z = rng.uniform(0, 16)
            bf.find(y, z)
            adt.find(y, z)
        # the paper's Table II effect: tree search slashes comparisons
        assert adt.stats.comparisons < 0.2 * bf.stats.comparisons

    def test_make_search_factory(self):
        boxes = grid_boxes(2, 2)
        assert isinstance(make_search("adt", boxes), ADTSearch)
        assert isinstance(make_search("bruteforce", boxes), BruteForceSearch)
        with pytest.raises(ValueError, match="unknown search"):
            make_search("quantum", boxes)


class TestWeights:
    def test_corner_weights(self):
        box = np.array([0.0, 0.0, 2.0, 1.0])
        np.testing.assert_allclose(_bilinear_weights(box, 0.0, 0.0),
                                   [1, 0, 0, 0])
        np.testing.assert_allclose(_bilinear_weights(box, 2.0, 0.0),
                                   [0, 1, 0, 0])
        np.testing.assert_allclose(_bilinear_weights(box, 2.0, 1.0),
                                   [0, 0, 1, 0])
        np.testing.assert_allclose(_bilinear_weights(box, 0.0, 1.0),
                                   [0, 0, 0, 1])

    def test_center_weights(self):
        box = np.array([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(_bilinear_weights(box, 0.5, 0.5),
                                   [0.25] * 4)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_weights_form_partition_of_unity(self, u, v):
        box = np.array([0.0, 0.0, 1.0, 1.0])
        w = _bilinear_weights(box, u, v)
        assert w.sum() == pytest.approx(1.0)
        assert (w >= 0).all()

    def test_degenerate_box(self):
        box = np.array([0.0, 0.0, 0.0, 1.0])
        w = _bilinear_weights(box, 0.0, 0.5)
        assert w.sum() == pytest.approx(1.0)
