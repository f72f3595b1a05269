"""OP2 globals: values not attached to any set.

A :class:`Global` plays two roles, mirroring OP2's ``op_arg_gbl``:

* accessed ``READ`` it is a runtime constant broadcast to every
  element (rotor angular velocity, CFL number, gas constants...);
* accessed ``INC``/``MIN``/``MAX`` it is a reduction target (residual
  norms, time-step minima) combined across elements — and across ranks
  in distributed runs.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.access import Access, REDUCTIONS
from repro.op2.dat import FrozenError

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.args import Arg

_gbl_ids = itertools.count()

_chain_sync = None
_chain_sync_write = None


def _sync_chain() -> None:
    """Flush any pending loop chain before host code observes the value
    (a pending loop may still reduce into it). Lazily imported to break
    the module-level import cycle."""
    global _chain_sync
    if _chain_sync is None:
        from repro.op2.chain import sync_host_access

        _chain_sync = sync_host_access
    _chain_sync()


def _sync_write(g: "Global") -> None:
    """Flush only if a pending loop reduces into ``g`` (READ snapshots
    make plain reads of the old value safe without flushing)."""
    global _chain_sync_write
    if _chain_sync_write is None:
        from repro.op2.chain import sync_global_write

        _chain_sync_write = sync_global_write
    _chain_sync_write(g)


class Global:
    """A ``dim``-vector global value.

    ``data`` is always a 1-D float array of length ``dim``; scalars
    are exposed via :attr:`value` for convenience. A ``const`` Global
    (OP2's ``op_decl_const``) is read-only: its value cannot be set,
    loops cannot reduce into it, and compiled loops may compute what
    follows from it once per binding.
    """

    def __init__(self, dim: int, value=0.0, name: str | None = None,
                 dtype=np.float64, const: bool = False) -> None:
        if dim < 1:
            raise ValueError(f"Global dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.name = name if name is not None else f"gbl{next(_gbl_ids)}"
        arr = np.atleast_1d(np.array(value, dtype=dtype))
        if arr.shape == (1,) and dim > 1:
            arr = np.full(dim, arr[0], dtype=dtype)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"Global value must have {dim} components, got shape {arr.shape}"
            )
        arr.flags.writeable = not const
        self._data = arr
        self.const = const

    @property
    def data(self) -> np.ndarray:
        """The stored value; flushes any pending loop chain first."""
        _sync_chain()
        return self._data

    @data.setter
    def data(self, arr: np.ndarray) -> None:
        # pending loops snapshot READ values at enqueue, so only a
        # pending *reduction* into this global forces a flush
        self._check_writable()
        _sync_write(self)
        self._data = np.asarray(arr)

    @property
    def value(self) -> float:
        """Scalar view (dim-1 globals only)."""
        if self.dim != 1:
            raise ValueError(f"Global {self.name!r} has dim {self.dim}, not scalar")
        return float(self.data[0])

    @value.setter
    def value(self, v: float) -> None:
        if self.dim != 1:
            raise ValueError(f"Global {self.name!r} has dim {self.dim}, not scalar")
        self._check_writable()
        _sync_write(self)
        self._data[0] = v

    def _check_writable(self) -> None:
        if self.const:
            raise FrozenError(f"global {self.name!r} is const")

    def neutral(self, access: Access) -> np.ndarray:
        """Identity element for a reduction under ``access``."""
        if access is Access.INC:
            return np.zeros(self.dim, dtype=self.data.dtype)
        if access is Access.MIN:
            return np.full(self.dim, np.inf, dtype=self.data.dtype)
        if access is Access.MAX:
            return np.full(self.dim, -np.inf, dtype=self.data.dtype)
        raise ValueError(f"no neutral element for access {access}")

    def combine(self, access: Access, contribution: np.ndarray) -> None:
        """Fold one reduction contribution into the stored value."""
        if access is Access.INC:
            self.data += contribution
        elif access is Access.MIN:
            np.minimum(self.data, contribution, out=self.data)
        elif access is Access.MAX:
            np.maximum(self.data, contribution, out=self.data)
        else:
            raise ValueError(f"access {access} is not a reduction")

    def arg(self, access: Access) -> "Arg":
        """Build a par_loop argument for this global."""
        from repro.op2.args import Arg

        if access not in REDUCTIONS and access is not Access.READ:
            raise ValueError(
                f"Global access must be READ or a reduction, got {access}"
            )
        return Arg.gbl(self, access)

    def __repr__(self) -> str:
        return f"Global({self.name!r}, dim={self.dim}, data={self.data})"
