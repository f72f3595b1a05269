"""Shared utilities: atomic file writes, ASCII plots, tables, validation."""

from repro.util.ascii_plot import render_field, render_series
from repro.util.atomicio import (
    atomic_savez,
    atomic_write_bytes,
    atomic_write_text,
    sha256_file,
)
from repro.util.tables import format_table
from repro.util.validation import check_index_array, check_positive, check_shape

__all__ = [
    "atomic_savez",
    "atomic_write_bytes",
    "atomic_write_text",
    "render_field",
    "render_series",
    "sha256_file",
    "format_table",
    "check_index_array",
    "check_positive",
    "check_shape",
]
