"""OP2 maps: explicit connectivity between sets.

A :class:`Map` is the unstructured-mesh analogue of a stencil: a table
giving, for each element of ``from_set``, the ``arity`` elements of
``to_set`` it connects to (e.g. the 2 nodes of each edge, the 8 nodes
of each hex cell).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.op2.set import Set
from repro.util.validation import check_index_array

_map_ids = itertools.count()


class _AllIndices:
    """Sentinel: pass the whole map row (an ``(arity, dim)`` view) to the kernel."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "OP_ALL"


#: Use as the ``idx`` of an indirect argument to hand the kernel every
#: mapped element at once (OP2's vector-argument form).
ALL = _AllIndices()


class Map:
    """Connectivity table from ``from_set`` to ``to_set``.

    ``values`` must have shape ``(from_set.total_size, arity)`` —
    i.e. for distributed sets the table covers owned + halo rows —
    with every entry a valid local index into ``to_set``.
    """

    def __init__(self, from_set: Set, to_set: Set, arity: int,
                 values: np.ndarray, name: str | None = None) -> None:
        if arity < 1:
            raise ValueError(f"Map arity must be >= 1, got {arity}")
        values = np.ascontiguousarray(values, dtype=np.int64)
        # serial sets: table covers the whole set; distributed local sets:
        # the table must cover every executable row (owned + exec halo).
        want_rows = from_set.exec_size
        if values.shape != (want_rows, arity):
            raise ValueError(
                f"Map values must have shape ({want_rows}, {arity}), "
                f"got {values.shape}"
            )
        check_index_array("Map values", values, to_set.total_size)
        self.from_set = from_set
        self.to_set = to_set
        self.arity = int(arity)
        self.values = values
        self.values.flags.writeable = False
        self.name = name if name is not None else f"map{next(_map_ids)}"
        #: coloring plans over this map's columns
        #: (:mod:`repro.op2.plan`), dying with the map
        self._plans: dict = {}

    def column(self, idx: int) -> np.ndarray:
        """The ``idx``-th target of every row (read-only view)."""
        if not 0 <= idx < self.arity:
            raise IndexError(f"map index {idx} out of range [0, {self.arity})")
        return self.values[:, idx]

    def __repr__(self) -> str:
        return (
            f"Map({self.name!r}, {self.from_set.name}->{self.to_set.name}, "
            f"arity={self.arity})"
        )
