"""Interface segmentation across Coupler Units.

The paper reduces search time by partitioning each interface's mesh
into circumferential segments and assigning a CU to each, so "multiple
CUs work on separate parts of a single interface". Segment assignment
is by *target* position in the target's own frame, so it is static
over the run while the donors each CU's targets land in move with the
rotor.
"""

from __future__ import annotations

import numpy as np


def segment_of(y: np.ndarray, circumference: float, n_segments: int
               ) -> np.ndarray:
    """Segment index of each circumferential position (equal arcs)."""
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    frac = np.mod(y, circumference) / circumference
    return np.minimum((frac * n_segments).astype(np.int64), n_segments - 1)


def segment_targets(y: np.ndarray, circumference: float, n_segments: int
                    ) -> list[np.ndarray]:
    """Flat target positions per segment."""
    seg = segment_of(np.asarray(y, dtype=np.float64), circumference,
                     n_segments)
    return [np.nonzero(seg == s)[0] for s in range(n_segments)]

