"""Sliding-interface geometry and transfer: rotation, periodic wrap,
interpolation exactness, frame transformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coupler.interface import SideGeometry, SlidingInterface
from repro.coupler.partitioning import segment_of, segment_targets
from repro.hydra.gas import conserved, primitives
from tests.oracles.transfer import donor_window


def make_side(nr=3, nt=8, L=8.0, v=0.0):
    dy = L / nt
    y = np.tile(dy * np.arange(nt), nr)
    z = np.repeat(np.linspace(2.0, 3.0, nr), nt)
    return SideGeometry(grid_shape=(nr, nt), y=y, z=z, circumference=L,
                        frame_velocity=v)


def make_interface(v_up=0.0, v_down=0.0, nt_up=8, nt_down=8):
    return SlidingInterface(
        name="igv/r1",
        up=make_side(nt=nt_up, v=v_up),
        down=make_side(nt=nt_down, v=v_down),
    )


class TestGeometry:
    def test_donor_quads_cover_annulus(self):
        side = make_side(nr=3, nt=8)
        boxes, corners = side.donor_quads()
        # (nr-1)*nt quads; the seam quad ends exactly at L for a
        # 0-anchored grid, so no wrap duplicates are needed
        assert boxes.shape[0] == 2 * 8
        assert corners.shape == (boxes.shape[0], 4)
        # every point of the annulus is inside some quad
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.uniform(0, 8.0)
            z = rng.uniform(2.0, 3.0)
            inside = ((boxes[:, 0] <= y) & (y <= boxes[:, 2])
                      & (boxes[:, 1] <= z) & (z <= boxes[:, 3]))
            assert inside.any(), (y, z)

    def test_side_shape_validation(self):
        with pytest.raises(ValueError, match="flat"):
            SideGeometry(grid_shape=(2, 4), y=np.zeros(3), z=np.zeros(3),
                         circumference=1.0, frame_velocity=0.0)

    def test_circumference_mismatch_rejected(self):
        with pytest.raises(ValueError, match="circumferences"):
            SlidingInterface(name="bad", up=make_side(L=8.0),
                             down=make_side(L=9.0))


class TestShift:
    def test_no_rotation_no_shift(self):
        iface = make_interface(0.0, 0.0)
        y, z = iface.shifted_targets("up", "down", t=5.0)
        np.testing.assert_allclose(y, iface.down.y)

    def test_shift_rate_sign(self):
        """A downstream rotor (v>0) target drifts +y in the stator frame."""
        iface = make_interface(v_up=0.0, v_down=2.0)
        assert iface.shift_rate("up", "down") == pytest.approx(2.0)
        y0, _ = iface.shifted_targets("up", "down", t=0.0)
        y1, _ = iface.shifted_targets("up", "down", t=0.1)
        drift = np.mod(y1 - y0, 8.0)
        np.testing.assert_allclose(drift, 0.2)

    def test_shift_wraps_periodically(self):
        iface = make_interface(v_up=0.0, v_down=1.0)
        y_full, _ = iface.shifted_targets("up", "down", t=8.0)  # one lap
        y_zero, _ = iface.shifted_targets("up", "down", t=0.0)
        np.testing.assert_allclose(y_full, y_zero, atol=1e-9)


class TestTransfer:
    def test_uniform_field_transfers_exactly(self):
        iface = make_interface(v_up=0.0, v_down=0.0)
        q = np.tile(conserved(1.0, 0.5, 0.1, 0.0, 1.0), (24, 1))
        out, _ = iface.transfer("up", "down", q, t=0.3)
        np.testing.assert_allclose(out, q, rtol=1e-13)

    @pytest.mark.parametrize("search_kind", ["bruteforce", "adt"])
    def test_linear_field_interpolated_exactly(self, search_kind):
        """Bilinear interpolation must reproduce fields linear in (y, z)."""
        iface = make_interface()
        up = iface.up
        vals = np.stack([2.0 + 0.0 * up.y, 0.1 * up.z, 0.0 * up.y,
                         np.zeros_like(up.y), 3.0 + 0.2 * up.z], axis=1)
        out, _ = iface.transfer("up", "down", vals, t=0.0,
                                search_kind=search_kind)
        want = np.stack([2.0 + 0.0 * up.y, 0.1 * up.z, 0.0 * up.y,
                         np.zeros_like(up.y), 3.0 + 0.2 * up.z], axis=1)
        np.testing.assert_allclose(out[:, 1], want[:, 1], rtol=1e-12)
        np.testing.assert_allclose(out[:, 4], want[:, 4], rtol=1e-12)

    def test_rotation_shifts_sampled_pattern(self):
        """After rotating by exactly one donor pitch, each target must
        read its neighbour's value."""
        iface = make_interface(v_up=0.0, v_down=1.0)
        nt = 8
        dy = 1.0
        up = iface.up
        # a pattern varying by circumferential index, constant in z
        pattern = np.cos(2 * np.pi * up.y / 8.0)
        vals = np.zeros((24, 5))
        vals[:, 0] = 1.0 + 0.1 * pattern
        vals[:, 4] = 2.5
        out_t0, _ = iface.transfer("up", "down", vals, t=0.0)
        out_t1, _ = iface.transfer("up", "down", vals, t=dy)  # one pitch
        np.testing.assert_allclose(
            out_t1[:, 0].reshape(3, nt),
            np.roll(out_t0[:, 0].reshape(3, nt), -1, axis=1), rtol=1e-12)

    def test_frame_velocity_transformation(self):
        """Transfer into a moving frame must shift u_y and keep p, rho."""
        du = 0.7
        iface = make_interface(v_up=0.0, v_down=du)
        q = np.tile(conserved(1.2, 0.5, 0.3, 0.0, 1.1), (24, 1))
        out, _ = iface.transfer("up", "down", q, t=0.0)
        prim_in = primitives(q)
        prim_out = primitives(out)
        np.testing.assert_allclose(prim_out["uy"], prim_in["uy"] - du,
                                   rtol=1e-12)
        np.testing.assert_allclose(prim_out["p"], prim_in["p"], rtol=1e-12)
        np.testing.assert_allclose(prim_out["rho"], prim_in["rho"], rtol=1e-12)

    def test_mismatched_grid_counts(self):
        """Differing circumferential counts across the interface (the
        normal case: blade counts differ) still transfer exactly for
        linear fields."""
        iface = make_interface(nt_up=12, nt_down=8)
        up = iface.up
        vals = np.stack([np.full_like(up.y, 1.0), 0.2 * up.z,
                         np.zeros_like(up.y), np.zeros_like(up.y),
                         2.0 + 0.3 * up.z], axis=1)
        out, _ = iface.transfer("up", "down", vals, t=0.123)
        down = iface.down
        np.testing.assert_allclose(out[:, 1], 0.2 * down.z, rtol=1e-12)

    def test_search_reuse_and_stats(self):
        iface = make_interface(v_up=0.0, v_down=0.5)
        q = np.tile(conserved(1.0, 0.5, 0.0, 0.0, 1.0), (24, 1))
        _, search = iface.transfer("up", "down", q, t=0.0)
        q0 = search.stats.queries
        _, search = iface.transfer("up", "down", q, t=0.1, search=search)
        assert search.stats.queries == 2 * q0

    def test_subset_transfer(self):
        iface = make_interface()
        q = np.tile(conserved(1.0, 0.5, 0.0, 0.0, 1.0), (24, 1))
        subset = np.array([0, 5, 13])
        out, _ = iface.transfer("up", "down", q, t=0.0, subset=subset)
        assert out.shape == (3, 5)


class TestSegmentation:
    def test_segment_of_partitions_circle(self):
        y = np.linspace(0, 7.99, 100)
        seg = segment_of(y, 8.0, 4)
        assert seg.min() == 0 and seg.max() == 3
        assert (np.diff(seg) >= 0).all()

    def test_segment_targets_cover_all(self):
        y = np.random.default_rng(0).uniform(0, 8, 57)
        segs = segment_targets(y, 8.0, 5)
        total = np.concatenate(segs)
        assert sorted(total.tolist()) == list(range(57))

    def test_single_segment(self):
        y = np.array([0.0, 1.0, 7.9])
        assert segment_of(y, 8.0, 1).tolist() == [0, 0, 0]

    def test_invalid_segment_count(self):
        with pytest.raises(ValueError):
            segment_of(np.array([0.0]), 8.0, 0)

    def test_donor_window_selects_arc(self):
        side = make_side(nr=2, nt=16, L=16.0)
        boxes, _ = side.donor_quads()
        win = donor_window(boxes, 2.0, 5.0, 16.0, margin=1.0)
        assert 0 < len(win) < boxes.shape[0]
        # all selected quads intersect [1, 6] (mod 16)
        for k in win:
            assert boxes[k, 2] >= 1.0 - 1e-9
            assert boxes[k, 0] <= 6.0 + 1e-9

    def test_donor_window_wraps_seam(self):
        side = make_side(nr=2, nt=8, L=8.0)
        boxes, _ = side.donor_quads()
        win = donor_window(boxes, 7.5, 8.5, 8.0, margin=0.0)
        ys = boxes[win]
        # must include quads near y=0 (the wrapped part of the arc)
        assert (ys[:, 0] <= 0.6).any()


class TestTransferProperties:
    @given(st.floats(0.0, 100.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_field_exact_at_any_time_and_speed(self, t, v_down):
        """Over arbitrary rotation times and frame speeds, bilinear
        transfer of a z-linear field is exact and misses nothing."""
        iface = make_interface(v_up=0.0, v_down=v_down)
        up = iface.up
        vals = np.stack([np.full_like(up.y, 1.3), 0.2 * up.z,
                         np.zeros_like(up.y), np.zeros_like(up.y),
                         2.0 + 0.3 * up.z], axis=1)
        out, search = iface.transfer("up", "down", vals, t=t)
        assert search.stats.misses == 0
        np.testing.assert_allclose(out[:, 1], 0.2 * iface.down.z,
                                   rtol=1e-10)
        np.testing.assert_allclose(out[:, 0], 1.3, rtol=1e-10)
