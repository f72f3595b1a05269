"""Coupler transfer engine: batched search, incremental donors, interp
modes.

The equivalence contract under test: the engine's batched vectorized
query + gather-apply and its incremental donor cache produce **bitwise**
the same values, donors and effort counters as the per-point
from-scratch reference (``tests.oracles.transfer.cu_transfer``), under
both placements (CUs and the monolithic baseline); the biquadratic option
conserves the interface-mean axial mass flux and matches its pinned
golden trajectory.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coupler.biquad import biquadratic_stencil, flux_error, grid_axes
from repro.coupler.fastpath import gather_apply, native_status
from repro.coupler.interface import SideGeometry, SlidingInterface
from repro.coupler.search import (
    DEFAULT_EPS,
    ADTSearch,
    BruteForceSearch,
    DonorGeometry,
    IncrementalSearch,
    SearchStats,
    bilinear_weights_batch,
    make_search,
)
from repro.coupler.unit import CUTransferEngine
from tests.oracles.transfer import ReferenceEngine, cu_transfer

GOLDEN_PATH = Path(__file__).parent / "golden" / "coupler_biquadratic.json"


def make_side(nr=3, nt=8, L=8.0, v=0.0, y0=0.0):
    """Uniform (nr, nt) side; ``y0 > 0`` makes the seam quad duplicated."""
    dy = L / nt
    y = np.tile(y0 + dy * np.arange(nt), nr)
    z = np.repeat(np.linspace(2.0, 3.0, nr), nt)
    return SideGeometry(grid_shape=(nr, nt), y=y, z=z, circumference=L,
                        frame_velocity=v)


def make_interface(v_up=0.0, v_down=0.3, nt_up=8, nt_down=8, nr=3):
    return SlidingInterface(
        name="igv/r1",
        up=make_side(nr=nr, nt=nt_up, v=v_up),
        down=make_side(nr=nr, nt=nt_down, v=v_down),
    )


def scalar_batch(search, y, z):
    """Reference: a loop of scalar finds, packed like find_batch."""
    quads = np.empty(y.size, dtype=np.int64)
    weights = np.empty((y.size, 4))
    for i in range(y.size):
        hit = search.find(float(y[i]), float(z[i]))
        quads[i] = hit.quad
        weights[i] = hit.weights
    return quads, weights


class TestBatchEquivalence:
    @pytest.mark.parametrize("kind", ["bruteforce", "adt"])
    def test_batch_matches_scalar_bitwise(self, kind):
        geo = make_side(nr=5, nt=24, L=12.0).donor_geometry()
        rng = np.random.default_rng(3)
        # include out-of-annulus points so misses are exercised too
        y = rng.uniform(-1.0, 13.0, 400)
        z = rng.uniform(1.5, 3.5, 400)
        s_ref = make_search(kind, geo.boxes, geo.corners)
        s_bat = make_search(kind, geo.boxes, geo.corners)
        quads, weights = scalar_batch(s_ref, y, z)
        hits = s_bat.find_batch(y, z)
        assert np.array_equal(hits.quads, quads)
        assert np.array_equal(hits.weights, weights)
        # identical effort accounting, including consistent misses
        assert dataclasses.astuple(s_ref.stats) == \
            dataclasses.astuple(s_bat.stats)
        assert s_bat.stats.misses == int((quads < 0).sum()) > 0

    def test_bruteforce_and_adt_agree(self):
        geo = make_side(nr=4, nt=16).donor_geometry()
        rng = np.random.default_rng(5)
        y = rng.uniform(0.0, 8.0, 300)
        z = rng.uniform(2.0, 3.0, 300)
        bf = make_search("bruteforce", geo.boxes, geo.corners)
        adt = make_search("adt", geo.boxes, geo.corners)
        h_bf = bf.find_batch(y, z)
        h_adt = adt.find_batch(y, z)
        # unified donor rule (lowest containing quad) and eps: identical
        # donors AND identical weights across both strategies
        assert np.array_equal(h_bf.quads, h_adt.quads)
        assert np.array_equal(h_bf.weights, h_adt.weights)
        assert bf.stats.misses == adt.stats.misses == 0

    def test_weights_batch_matches_scalar_elementwise(self):
        from repro.coupler.search import _bilinear_weights
        rng = np.random.default_rng(11)
        boxes = np.stack([
            rng.uniform(0, 1, 50), rng.uniform(0, 1, 50),
            rng.uniform(1, 2, 50), rng.uniform(1, 2, 50)], axis=1)
        boxes[:5, 2] = boxes[:5, 0]   # degenerate y extent
        boxes[5:9, 3] = boxes[5:9, 1]  # degenerate z extent
        y = rng.uniform(0, 2, 50)
        z = rng.uniform(0, 2, 50)
        batch = bilinear_weights_batch(boxes, y, z)
        for i in range(50):
            ref = _bilinear_weights(boxes[i], float(y[i]), float(z[i]))
            assert np.array_equal(batch[i], ref)

    def test_donor_geometry_validates(self):
        with pytest.raises(ValueError, match="disagree"):
            DonorGeometry(boxes=np.zeros((3, 4)), corners=np.zeros((2, 4)))

    def test_corners_is_a_real_attribute(self):
        geo = make_side().donor_geometry()
        for kind in ("bruteforce", "adt"):
            s = make_search(kind, geo.boxes, geo.corners)
            assert s.corners is geo.corners
            assert not hasattr(s, "_corners")


class TestHypothesisProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0 - 1e-12), st.integers(0, 1000))
    def test_periodic_seam_wrap(self, shift_frac, seed):
        """Targets wrapped across the seam always find a donor, and the
        seam-duplicate quad interpolates identically to the original."""
        geo = make_side(nr=3, nt=8, L=8.0)
        dg = geo.donor_geometry()
        rng = np.random.default_rng(seed)
        y = np.mod(rng.uniform(-0.5, 0.5, 32) + shift_frac * 8.0, 8.0)
        z = rng.uniform(2.0, 3.0, 32)
        s = make_search("adt", dg.boxes, dg.corners)
        hits = s.find_batch(y, z)
        assert (hits.quads >= 0).all()
        assert s.stats.misses == 0
        vals = rng.normal(size=(geo.y.size, 5))
        out = gather_apply(hits.weights, dg.corners[hits.quads], vals)
        assert np.isfinite(out).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_degenerate_extent_quads(self, seed):
        """Zero-extent boxes fall back to 0.5 splits, batch == scalar."""
        rng = np.random.default_rng(seed)
        boxes = np.array([[0.0, 0.0, 0.0, 1.0],     # zero width
                          [1.0, 1.0, 2.0, 1.0],     # zero height
                          [3.0, 3.0, 3.0, 3.0]])    # a point
        y = np.array([0.0, 1.5, 3.0, rng.uniform(0, 3)])
        z = np.array([0.5, 1.0, 3.0, rng.uniform(0, 3)])
        for kind in ("bruteforce", "adt"):
            ref = make_search(kind, boxes)
            bat = make_search(kind, boxes)
            quads, weights = scalar_batch(ref, y, z)
            hits = bat.find_batch(y, z)
            assert np.array_equal(hits.quads, quads)
            assert np.array_equal(hits.weights, weights)
            hit_rows = hits.quads >= 0
            assert np.allclose(hits.weights[hit_rows].sum(axis=1), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    @example(545, 2)  # every target leaves its cached quad
    @example(92, 2)
    def test_incremental_matches_scratch_under_rotation(self, seed, rounds):
        """Random rotation sequences: predicted donors are the same
        donors with bitwise the same weights as from-scratch, and on a
        uniform grid the prediction resolves every target that had a
        donor on the previous round."""
        rng = np.random.default_rng(seed)
        geo = make_side(nr=4, nt=12, L=12.0)
        dg = geo.donor_geometry()
        inc = IncrementalSearch("adt", dg)
        y0 = rng.uniform(0, 12.0, 100)
        z0 = rng.uniform(2.0, 3.0, 100)
        shift = 0.0
        prev = None
        expected_hits = 0
        for _ in range(rounds):
            shift += rng.uniform(-1.0, 1.0)
            y = np.mod(y0 + shift, 12.0)
            scratch = make_search("adt", dg.boxes).find_batch(y, z0)
            got = inc.query(y, z0)
            assert np.array_equal(got.quads, scratch.quads)
            assert np.array_equal(got.weights, scratch.weights)
            if prev is not None:
                expected_hits += int(np.count_nonzero(prev >= 0))
            prev = scratch.quads
        assert inc.stats.cache_hits == expected_hits

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(
               lambda node, off: float(np.mod(node + off, 12.0)),
               st.integers(0, 11),
               st.one_of(st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9,
                                          1.5e-9, -1.5e-9]),
                         st.floats(-0.5, 0.5))),
               min_size=2, max_size=6),
           st.one_of(st.sampled_from([2.0, 2.0 + 1 / 3, 2.5, 3.0]),
                     st.floats(2.0, 3.0)))
    @example(ys=[3.5, 3.0 - 5e-10], z=2.5)
    def test_cached_donor_keeps_lowest_index_in_eps_band(self, ys, z):
        """A target moving into the ε band of a lower-index quad gets
        that quad, as from scratch: the cached quad also contains the
        point, but it does not win."""
        dg = make_side(nr=4, nt=12, L=12.0).donor_geometry()
        inc = IncrementalSearch("adt", dg)
        for yv in ys:
            y, zz = np.array([yv]), np.array([z])
            scratch = make_search("adt", dg.boxes).find_batch(y, zz)
            got = inc.query(y, zz)
            assert np.array_equal(got.quads, scratch.quads)
            assert np.array_equal(got.weights, scratch.weights)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-40, 40), st.sampled_from([0.0, 0.25, 0.5, 0.37]),
           st.sampled_from([12, 16, 9]), st.sampled_from([0.0, 0.3]),
           st.integers(2, 5))
    @example(6, 0.0, 12, 0.0, 4)     # targets on donor nodes, no seam copy
    @example(-13, 0.0, 12, 0.3, 4)   # on donor nodes, seam copies crossed
    def test_predicted_search_matches_find_batch(self, cells, frac, nt_dst,
                                                 y0, rounds):
        """Rigid rotor shifts of up to 40 donor cells a round, either
        way: predicted donors and weights are bitwise ``find_batch``'s,
        and every target after round 0 is a cache hit."""
        L = 12.0
        src = make_side(nr=4, nt=12, L=L, y0=y0)
        dst = make_side(nr=4, nt=nt_dst, L=L, y0=y0)
        dg = src.donor_geometry()
        inc = IncrementalSearch("adt", dg)
        n = dst.y.size
        for r in range(rounds):
            y = np.mod(dst.y + r * (cells + frac) * (L / 12), L)
            scratch = make_search("adt", dg.boxes).find_batch(y, dst.z)
            got = inc.query(y, dst.z)
            assert np.array_equal(got.quads, scratch.quads)
            assert np.array_equal(got.weights, scratch.weights)
        assert inc.stats.cache_hits == n * (rounds - 1)
        assert inc.stats.researched == n

    def test_prediction_wraps_the_seam_on_a_stretched_grid(self):
        """Columns of unequal width: a target crossing the seam is still
        predicted (its offset from the cached column is taken modulo L,
        not as a whole-circumference jump in units of one cell)."""
        L, nt = 12.0, 12
        k = np.arange(nt)
        y = L * (k / nt + 0.4 * np.sin(2 * np.pi * k / nt) / (2 * np.pi))
        side = SideGeometry(grid_shape=(3, nt), y=np.tile(y, 3),
                            z=np.repeat([2.0, 2.5, 3.0], nt),
                            circumference=L, frame_velocity=0.0)
        dg = side.donor_geometry()
        inc = IncrementalSearch("adt", dg)
        y0 = np.tile(np.linspace(0.0, L, 40, endpoint=False), 5)
        z = np.repeat(np.linspace(2.1, 2.9, 5), 40)
        for r in range(6):
            yy = np.mod(y0 + 0.2 * r, L)
            scratch = make_search("adt", dg.boxes).find_batch(yy, z)
            got = inc.query(yy, z)
            assert np.array_equal(got.quads, scratch.quads)
        assert inc.stats.cache_hits == 5 * y0.size

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.9))
    def test_predicted_search_with_overlapping_boxes(self, seed, overlap):
        """Boxes that reach into the next column's interior: a point deep
        inside a quad may still belong to a lower-index one, and the
        prediction still returns ``find_batch``'s donor."""
        side = make_side(nr=4, nt=12, L=12.0)
        base = side.donor_geometry()
        boxes = base.boxes.copy()
        boxes[:, 2] += overlap
        dg = DonorGeometry(boxes=boxes, corners=base.corners, period=12.0)
        inc = IncrementalSearch("adt", dg)
        rng = np.random.default_rng(seed)
        y0 = rng.uniform(0, 12.0, 50)
        z = rng.uniform(2.0, 3.0, 50)
        for shift in np.cumsum(rng.uniform(-2.0, 2.0, 4)):
            y = np.mod(y0 + shift, 12.0)
            scratch = make_search("adt", boxes).find_batch(y, z)
            got = inc.query(y, z)
            assert np.array_equal(got.quads, scratch.quads)
            assert np.array_equal(got.weights, scratch.weights)

    @staticmethod
    def _assert_neighbours_brute_force(dg):
        """``dg.neighbours`` == ε-intersection over all box pairs."""
        b = dg.boxes
        eps = DEFAULT_EPS
        A, B = b[:, None, :], b[None, :, :]
        touch = ((A[..., 0] - eps <= B[..., 2] + eps)
                 & (B[..., 0] - eps <= A[..., 2] + eps)
                 & (A[..., 1] - eps <= B[..., 3] + eps)
                 & (B[..., 1] - eps <= A[..., 3] + eps))
        np.fill_diagonal(touch, False)
        for k in range(b.shape[0]):
            row = dg.neighbours[k]
            assert row[row >= 0].tolist() == np.nonzero(touch[k])[0].tolist()

    @pytest.mark.parametrize("y0", [0.0, 0.3])
    def test_neighbours_are_complete(self, y0):
        """N(k) is exactly the brute-force ε-intersection over all box
        pairs, with and without seam duplicates."""
        dg = make_side(nr=4, nt=7, L=7.0, y0=y0).donor_geometry()
        self._assert_neighbours_brute_force(dg)
        # every quad sits in its (row, column) slot; only the three
        # seam cells hold a second quad, and only when y0 > 0
        for k, (row, col) in enumerate(dg.cells):
            assert k in dg.slots[row, col]
        per_cell = (dg.slots >= 0).sum(axis=2)
        assert (per_cell == 2).sum() == (3 if y0 else 0)
        assert (per_cell >= 1).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_neighbours_complete_on_scattered_boxes(self, seed):
        """Boxes of mixed sizes, touching and overlapping anywhere
        (degenerate ones too): the bucketed build still finds every
        ε-intersecting pair."""
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 3, (60, 2)).round(1)
        ext = rng.choice([0.0, 0.1, 0.3, 1.2], (60, 2))
        boxes = np.concatenate([lo, lo + ext], axis=1)
        self._assert_neighbours_brute_force(
            DonorGeometry(boxes=boxes, corners=np.zeros((60, 4))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_batch_miss_handling(self, seed):
        """Out-of-domain targets: quad -1, zero weights, counted misses,
        identically for both strategies."""
        rng = np.random.default_rng(seed)
        geo = make_side(nr=3, nt=8, L=8.0)
        dg = geo.donor_geometry()
        y = rng.uniform(0, 8.0, 20)
        z = np.concatenate([rng.uniform(2.0, 3.0, 10),
                            rng.uniform(5.0, 6.0, 10)])  # radially outside
        results = {}
        for kind in ("bruteforce", "adt"):
            s = make_search(kind, dg.boxes)
            hits = s.find_batch(y, z)
            assert s.stats.misses == int((hits.quads < 0).sum()) == 10
            assert (hits.weights[hits.quads < 0] == 0.0).all()
            results[kind] = hits
        assert np.array_equal(results["bruteforce"].quads,
                              results["adt"].quads)


class TestTransferPaths:
    def test_transfer_batch_matches_pointwise_bitwise(self):
        iface = make_interface(v_up=0.1, v_down=0.45)
        rng = np.random.default_rng(8)
        donors = rng.normal(size=(iface.up.y.size, 5)) + 2.0
        subset = np.arange(iface.down.y.size)
        for t in (0.0, 0.37, 1.91):
            batch, _ = iface.transfer("up", "down", donors, t=t)
            point = cu_transfer(iface, "up", "down", donors, t, subset=subset)
            assert np.array_equal(batch, point.values)

    def test_engine_matches_legacy_cu_transfer_bitwise(self):
        iface = make_interface(v_up=0.0, v_down=0.4, nt_up=16, nt_down=12)
        rng = np.random.default_rng(9)
        donors = rng.normal(size=(iface.up.y.size, 5)) + 2.0
        subset = np.arange(iface.down.y.size)
        engine = CUTransferEngine(iface, "up", "down", subset=subset,
                                  incremental=True)
        for r in range(5):
            t = 0.31 * r
            ref = cu_transfer(iface, "up", "down", donors, t, subset=subset)
            got = engine.serve(donors, t)
            assert np.array_equal(got.values, ref.values)
            assert np.array_equal(got.positions, ref.positions)
        # the cache did its job: later rounds re-validated, not re-searched
        assert engine.stats.cache_hits > 0
        assert engine.stats.comparisons_saved > 0

    def test_engine_round_deltas_sum_to_totals(self):
        iface = make_interface()
        donors = np.ones((iface.up.y.size, 5))
        subset = np.arange(iface.down.y.size)
        engine = CUTransferEngine(iface, "up", "down", subset=subset)
        acc = SearchStats()
        for r in range(4):
            acc.merge(engine.serve(donors, t=0.2 * r).stats)
        total = dataclasses.astuple(engine.stats)
        # engine totals = sum of per-round deltas + construction build_ops
        expect = list(dataclasses.astuple(acc))
        expect[2] += engine.stats.build_ops - acc.build_ops
        assert total == tuple(expect)

    def test_gather_apply_native_matches_numpy(self):
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(60, 5))
        pts = rng.integers(0, 60, size=(40, 9))
        w = rng.normal(size=(40, 9))
        ref = gather_apply(w, pts, vals, native=False)
        out = gather_apply(w, pts, vals, native=True)
        if native_status() == "compiled":
            assert np.array_equal(out, ref)
        else:  # graceful fallback still returns the numpy result
            assert np.array_equal(out, ref)

    def test_incremental_cache_roundtrip(self):
        iface = make_interface(v_down=0.5)
        donors = np.ones((iface.up.y.size, 5))
        subset = np.arange(iface.down.y.size)
        a = CUTransferEngine(iface, "up", "down", subset=subset)
        a.serve(donors, t=0.0)
        a.serve(donors, t=0.2)
        cached, baseline = a.cache_state()
        b = CUTransferEngine(iface, "up", "down", subset=subset)
        b.restore_cache_state(cached, baseline)
        ra = a.serve(donors, t=0.4)
        rb = b.serve(donors, t=0.4)
        assert np.array_equal(ra.values, rb.values)
        assert dataclasses.astuple(ra.stats) == dataclasses.astuple(rb.stats)


class TestBiquadratic:
    def test_stencil_reproduces_quadratics(self):
        geo = make_side(nr=5, nt=16, L=8.0)
        axes = grid_axes(geo.grid_shape, geo.y, geo.z, geo.circumference)
        # a field quadratic in z and constant in y: reproduced exactly
        vals = (3.0 + 2.0 * geo.z - 0.7 * geo.z**2)[:, None] * np.ones(5)
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 8.0, 200)
        z = rng.uniform(2.0, 3.0, 200)
        pts, w = biquadratic_stencil(axes, y, z)
        out = gather_apply(w, pts, vals)
        expect = 3.0 + 2.0 * z - 0.7 * z**2
        np.testing.assert_allclose(out[:, 0], expect, rtol=1e-12)
        # partition of unity
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_interface_mean_is_conserved(self):
        """Equal uniform grids: the target-side mean axial mass flux
        reproduces the donor mean to roundoff at any rotation."""
        iface = make_interface(v_up=0.0, v_down=0.7, nr=5, nt_up=24,
                               nt_down=24)
        rng = np.random.default_rng(6)
        donors = rng.normal(size=(iface.up.y.size, 5)) + 2.0
        for t in (0.0, 0.13, 1.7):
            out, _ = iface.transfer("up", "down", donors, t=t,
                                    interp="biquadratic")
            assert flux_error(donors, out) < 1e-12

    def test_engine_reports_flux_fields(self):
        iface = make_interface(nr=5)
        donors = np.ones((iface.up.y.size, 5)) * 1.5
        subset = np.arange(iface.down.y.size)
        engine = CUTransferEngine(iface, "up", "down", subset=subset,
                                  interp="biquadratic")
        result = engine.serve(donors, t=0.29)
        assert result.donor_flux_mean == pytest.approx(1.5)
        assert result.flux_sum / subset.size == pytest.approx(1.5)

    def test_rejects_unknown_interp(self):
        iface = make_interface()
        with pytest.raises(ValueError, match="interp"):
            CUTransferEngine(iface, "up", "down",
                             subset=np.arange(4), interp="spline")

    def test_non_tensor_grid_rejected(self):
        geo = make_side(nr=3, nt=8)
        y = geo.y.copy()
        y[10] += 0.01  # circumferential node drifts with radius
        with pytest.raises(ValueError, match="tensor-product"):
            grid_axes(geo.grid_shape, y, geo.z, geo.circumference)


def _golden_cfg(interp):
    from repro.coupler import CoupledRunConfig
    from repro.hydra import FlowState, Numerics
    from repro.mesh import rig250_config

    return CoupledRunConfig(
        rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                          steps_per_revolution=64),
        ranks_per_row=1, cus_per_interface=1,
        numerics=Numerics(inner_iters=2), inlet=FlowState(ux=0.5),
        p_out=1.0, interp=interp)


def _sliding_cfg(**overrides):
    """The quick sliding rig: each step slides the rotor two donor
    cells, so a cached donor is never this round's donor."""
    from repro.coupler import CoupledRunConfig
    from repro.hydra import FlowState, Numerics
    from repro.mesh import rig250_config

    return CoupledRunConfig(
        rig=rig250_config(nr=4, nt=32, nx=3, rows=3,
                          steps_per_revolution=16),
        ranks_per_row=1, cus_per_interface=2,
        numerics=Numerics(inner_iters=2), inlet=FlowState(ux=0.5),
        p_out=1.0, **overrides)


class TestBiquadraticGolden:
    def test_matches_golden(self):
        """The biquadratic coupled trajectory is pinned: pressure ratio
        and conservation error must reproduce the recorded run."""
        from repro.coupler import CoupledDriver
        with GOLDEN_PATH.open() as fh:
            golden = json.load(fh)
        result = CoupledDriver(_golden_cfg("biquadratic")).run(
            golden["nsteps"])
        assert result.pressure_ratio() == pytest.approx(
            golden["pressure_ratio"], rel=1e-9)
        err = result.interface_flux_error()
        assert err <= golden["flux_error_bound"]
        # the conservation check itself: high-order transfer stays
        # conservative at the interface
        assert err < 1e-10


class TestCoupledEquivalence:
    """Driver-level: the engine bitwise-identical to ``cu_transfer``."""

    def _legacy_run(self, cfg, nsteps, mono=False):
        """The same run served by ``cu_transfer`` in place of the CUs'
        engine (``mono=True``: the inline baseline's). Forked ranks
        inherit the patch, so this covers the process transport too."""
        from repro.coupler import CoupledDriver, MonolithicDriver
        driver, module = ((MonolithicDriver, "repro.coupler.monolithic")
                          if mono else (CoupledDriver, "repro.coupler.ranks"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(f"{module}.CUTransferEngine", ReferenceEngine)
            return driver(cfg).run(nsteps)

    def _monitors(self, result):
        return [
            (row["stations_p"], np.asarray(row["midcut_p"]).tolist(),
             row["wiggle"], row["plane_mdot_in"], row["plane_mdot_out"])
            for row in result.rows
        ]

    @pytest.mark.parametrize("cus", [1, 4])
    def test_fastpath_bitwise_vs_legacy(self, cus):
        from repro.coupler import CoupledDriver
        cfg = dataclasses.replace(_golden_cfg("bilinear"),
                                  cus_per_interface=cus)
        fast = CoupledDriver(cfg).run(3)
        legacy = self._legacy_run(cfg, 3)
        assert self._monitors(fast) == self._monitors(legacy)
        # and the cache measurably cut the search effort
        stats = fast.total_search_stats()
        assert stats.cache_hits > 0
        assert stats.comparisons_saved > 0
        assert stats.comparisons < legacy.total_search_stats().comparisons

    def test_monolithic_fastpath_bitwise_vs_legacy(self):
        """The inline baseline's engine is the CUs' engine: served by
        ``cu_transfer`` instead, the monitors do not move."""
        from repro.coupler import MonolithicDriver
        cfg = _golden_cfg("bilinear")
        fast = MonolithicDriver(cfg).run(3)
        legacy = self._legacy_run(cfg, 3, mono=True)
        assert self._monitors(fast) == self._monitors(legacy)
        assert fast.total_search_stats().cache_hits > 0

    def test_fastpath_bitwise_on_process_transport(self):
        from repro.coupler import CoupledDriver
        cfg = dataclasses.replace(_golden_cfg("bilinear"),
                                  transport="process")
        fast = CoupledDriver(cfg).run(2)
        legacy = self._legacy_run(cfg, 2)
        assert self._monitors(fast) == self._monitors(legacy)

    def test_incremental_resume_replays_counters(self, tmp_path):
        """Checkpoint + resume restores the donor cache: the resumed
        run's stats and flux log replay the uninterrupted run's, on a
        slow rig (donors re-validated) and on the sliding rig (every
        donor predicted from a cell it has left)."""
        from repro.coupler import CoupledDriver

        for name, base in (("slow", _golden_cfg("bilinear")),
                           ("sliding", _sliding_cfg())):
            cfg = dataclasses.replace(base, checkpoint_every=2,
                                      checkpoint_dir=tmp_path / name)
            full = CoupledDriver(cfg).run(4)
            resumed = CoupledDriver(cfg).run(
                4, resume_from=tmp_path / name / "step-000002")
            assert full.total_search_stats().cache_hits > 0
            for a, b in zip(full.cus, resumed.cus):
                assert dataclasses.astuple(a["stats"]) == \
                    dataclasses.astuple(b["stats"])
                assert a["flux_log"] == b["flux_log"]
            assert self._monitors(full) == self._monitors(resumed)

    def test_sliding_rig_predicts_every_target(self):
        """On the sliding rig every serve after round 0 resolves all of
        its targets without a search, bitwise equal to ``cu_transfer``."""
        from repro.coupler import CoupledDriver

        cfg = _sliding_cfg()
        driver = CoupledDriver(cfg)
        rng = np.random.default_rng(4)
        for d in driver.directions:
            iface = driver.interfaces[d.k]
            shape = iface.side(d.src_iface).grid_shape
            donors = rng.uniform(0.5, 1.5, size=(shape[0] * shape[1], 5))
            for subset in d.cu_targets:
                engine = CUTransferEngine(iface, d.src_iface, d.dst_iface,
                                          subset=subset)
                for step in range(8):
                    t = step * cfg.rig.dt_outer
                    got = engine.serve(donors, t)
                    ref = cu_transfer(iface, d.src_iface, d.dst_iface,
                                      donors, t, subset=subset)
                    assert np.array_equal(got.values, ref.values)
                    if step:
                        assert got.stats.cache_hits == subset.size
                        assert got.stats.researched == 0


class TestMetricsPromotion:
    def test_traced_run_populates_coupler_section(self):
        from repro.coupler import CoupledDriver
        from repro.telemetry import metrics_summary, validate_metrics

        cfg = dataclasses.replace(_golden_cfg("bilinear"), trace=True)
        result = CoupledDriver(cfg).run(2)
        doc = metrics_summary(result.timeline, traffic=result.traffic)
        validate_metrics(doc)
        coupler = doc["coupler"]
        assert coupler["search"]["queries"] > 0
        assert coupler["search"]["cache_hits"] > 0
        assert coupler["search"]["comparisons_saved"] > 0
        assert coupler["interp"]["bilinear_points"] > 0
        assert coupler["interp"]["rounds"] > 0

    def test_validate_rejects_missing_coupler_section(self):
        from repro.telemetry import metrics_summary, validate_metrics
        from repro.telemetry.timeline import merge_timelines
        from repro.telemetry.recorder import RankRecorder

        doc = metrics_summary(merge_timelines([RankRecorder(rank=0)]))
        del doc["coupler"]
        with pytest.raises(ValueError, match="coupler"):
            validate_metrics(doc)
