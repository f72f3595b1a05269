"""Utility modules: phase totals, tables, validation."""

import time

import numpy as np
import pytest

from repro.telemetry import timed
from repro.util import (
    check_index_array,
    check_positive,
    check_shape,
    format_table,
)
from repro.util.validation import as_float_array, require


class TestTimer:
    def test_accumulates_intervals(self):
        totals = {}
        for _ in range(3):
            with timed(totals, "t"):
                time.sleep(0.005)
        assert list(totals) == ["t"]
        assert totals["t"] >= 0.015

    def test_context_manager(self):
        totals = {}
        with pytest.raises(RuntimeError):
            with timed(totals, "t"):
                time.sleep(0.002)
                raise RuntimeError("body failed")
        assert totals["t"] > 0  # the interval counts even when it raises


class TestTimerRegistry:
    def test_autocreates_timers(self):
        totals = {"other": 1.0}
        with timed(totals, "phase"):
            pass
        assert totals["phase"] > 0
        assert totals["other"] == 1.0
        assert totals.get("missing", 0.0) == 0.0


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["name", "v"], [["a", 1.23456], ["bb", 2.0]],
                            floatfmt=".2f")
        lines = text.splitlines()
        assert "1.23" in text and "2.00" in text
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_title(self):
        text = format_table(["h"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        check_positive("x", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)

    def test_check_shape(self):
        check_shape("a", np.zeros((3, 2)), (3, 2))
        check_shape("a", np.zeros((3, 2)), (None, 2))
        with pytest.raises(ValueError, match="dimensions"):
            check_shape("a", np.zeros(3), (3, 1))
        with pytest.raises(ValueError, match="axis 1"):
            check_shape("a", np.zeros((3, 2)), (3, 4))

    def test_check_index_array(self):
        check_index_array("m", np.array([0, 1, 2]), 3)
        with pytest.raises(TypeError):
            check_index_array("m", np.array([0.5]), 3)
        with pytest.raises(ValueError, match="range"):
            check_index_array("m", np.array([3]), 3)
        check_index_array("m", np.array([], dtype=np.int64), 0)

    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_as_float_array(self):
        arr = as_float_array("v", [1, 2, 3], dim=3)
        assert arr.dtype == np.float64
        with pytest.raises(ValueError, match="components"):
            as_float_array("v", [1, 2], dim=3)
