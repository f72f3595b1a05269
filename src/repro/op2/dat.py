"""OP2 dats: data defined on the elements of a set."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.access import Access
from repro.op2.map import Map
from repro.op2.set import Set

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.args import Arg

_dat_ids = itertools.count()

class FrozenError(ValueError):
    """A write to a frozen :class:`Dat` or a const
    :class:`~repro.op2.globals.Global`."""


class Dat:
    """Per-element data: ``dim`` values of ``dtype`` on each element.

    Storage always covers the full local layout of the set (owned +
    halos for distributed sets) as a contiguous ``(total_size, dim)``
    array, so generated kernels index it uniformly.

    Halo freshness is tracked per dat by one marker, ``fresh_for``:
    any par_loop that writes or increments the dat resets it to
    ``None`` (stale) and the next loop that would read stale halo
    entries triggers an exchange, which records *what* it refreshed —
    a scope name (``"full"``, ``"exec"``, or a map's partial scope,
    the paper's PH optimization).
    """

    def __init__(self, dataset: Set, dim: int, data: np.ndarray | None = None,
                 dtype=np.float64, name: str | None = None) -> None:
        if dim < 1:
            raise ValueError(f"Dat dim must be >= 1, got {dim}")
        self.set = dataset
        self.dim = int(dim)
        self.name = name if name is not None else f"dat{next(_dat_ids)}"
        if not self.name.isidentifier():
            raise ValueError(f"Dat name must be an identifier, got {self.name!r}")
        shape = (dataset.total_size, self.dim)
        if data is None:
            self._data = np.zeros(shape, dtype=dtype)
        else:
            arr = np.array(data, dtype=dtype)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.shape == (dataset.size, self.dim) and dataset.total_size != dataset.size:
                # caller supplied owned entries only; allocate halo slots
                full = np.zeros(shape, dtype=dtype)
                full[: dataset.size] = arr
                arr = full
            if arr.shape != shape:
                raise ValueError(
                    f"Dat data must have shape {shape} (or owned-only "
                    f"({dataset.size}, {self.dim})), got {arr.shape}"
                )
            self._data = np.ascontiguousarray(arr)
        self.dtype = self._data.dtype
        #: the scope name last refreshed; None when stale
        self.fresh_for: str | None = (
            "full" if dataset.total_size == dataset.size else None)

    # -- data access ---------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """Writable view of the *owned* entries. Marks halos stale.
        Raises :class:`FrozenError` once :meth:`freeze` ran."""
        if self.frozen:
            raise FrozenError(f"dat {self.name!r} is frozen")
        self.mark_halo_stale()
        return self._data[: self.set.size]

    @property
    def data_ro(self) -> np.ndarray:
        """Read-only view of the owned entries."""
        view = self._data[: self.set.size]
        view = view.view()
        view.flags.writeable = False
        return view

    @property
    def data_with_halos(self) -> np.ndarray:
        """Writable view including halo entries (runtime internals only)."""
        return self._data

    @property
    def frozen(self) -> bool:
        """Set by :meth:`freeze`: the storage is read-only for good."""
        return not self._data.flags.writeable

    def freeze(self) -> "Dat":
        """Declare the values fixed for good (OP2's ``op_decl_const``).

        Refreshes stale halos first (a collective), then makes the whole
        array read-only: host writes and writing loops fail, and
        compiled loops compute what follows from it once per binding.
        """
        if self.set.halo is not None and not self.is_fresh_for("full"):
            from repro.op2.halo import exchange_halos

            exchange_halos(self.set, [self])
        self.fresh_for = "full"
        self._data.flags.writeable = False
        return self

    @property
    def halo_fresh(self) -> bool:
        """True when halo copies match owner values for some scope."""
        return self.fresh_for is not None

    def mark_halo_stale(self) -> None:
        if self.set.total_size != self.set.size and not self.frozen:
            self.fresh_for = None

    def mark_halo_fresh(self, scope: str = "full") -> None:
        self.fresh_for = scope

    def is_fresh_for(self, scope: str) -> bool:
        """Was the halo refreshed recently enough for a read via ``scope``?

        ``scope`` is ``"full"`` (direct read that touches all halo
        entries) or a named partial scope. Subsumption follows
        :func:`~repro.op2.halo.scope_covers`: a full refresh satisfies
        any scope and a map's depth-2 refresh satisfies its depth-1
        scope.
        """
        from repro.op2.halo import scope_covers

        return self.fresh_for is not None \
            and scope_covers(self.fresh_for, scope)

    # -- arg construction -------------------------------------------------
    def arg(self, access: Access, map: Map | None = None, idx=None) -> "Arg":
        """Build a par_loop argument accessing this dat."""
        from repro.op2.args import Arg

        return Arg.dat(self, access, map, idx)

    # -- convenience field algebra (owned entries; halo goes stale) -------
    def zero(self) -> None:
        """Set owned entries to zero."""
        self.data[:] = 0.0

    def scale(self, alpha: float) -> None:
        """Multiply owned entries by ``alpha`` in place."""
        view = self.data
        view *= alpha

    def copy_from(self, other: "Dat") -> None:
        """Copy ``other``'s owned entries into this dat."""
        self._check_compatible(other)
        self.data[:] = other.data_ro

    def axpy(self, alpha: float, x: "Dat") -> None:
        """self += alpha * x over owned entries."""
        self._check_compatible(x)
        view = self.data
        view += alpha * x.data_ro

    def _check_compatible(self, other: "Dat") -> None:
        if other.set is not self.set or other.dim != self.dim:
            raise ValueError(
                f"dat {other.name!r} (set {other.set.name!r}, dim "
                f"{other.dim}) is incompatible with {self.name!r} "
                f"(set {self.set.name!r}, dim {self.dim})"
            )

    def duplicate(self, name: str | None = None) -> "Dat":
        """Deep copy with identical layout and freshness reset."""
        out = Dat(self.set, self.dim, data=self._data.copy(), dtype=self.dtype,
                  name=name or f"{self.name}_copy")
        out.fresh_for = self.fresh_for
        return out

    def norm(self) -> float:
        """L2 norm of owned entries (local; callers allreduce if needed)."""
        return float(np.sqrt(np.sum(self._data[: self.set.size] ** 2)))

    def __repr__(self) -> str:
        return f"Dat({self.name!r}, set={self.set.name}, dim={self.dim})"
