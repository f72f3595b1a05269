"""Par-loop argument descriptors and their validation rules.

An :class:`Arg` bundles *what* is accessed (a Dat or Global), *through
which connectivity* (a Map and index, or directly), and *how*
(an :class:`~repro.op2.access.Access`). All structural legality checks
live here so every backend can assume well-formed loops.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.op2.access import Access, REDUCTIONS
from repro.op2.dat import Dat
from repro.op2.globals import Global
from repro.op2.map import ALL, Map, _AllIndices
from repro.op2.set import Set


@dataclass
class Arg:
    """One argument of a par_loop. Build via :meth:`dat` / :meth:`gbl`."""

    data: Dat | Global
    access: Access
    map: Optional[Map] = None
    idx: int | _AllIndices | None = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def dat(cls, dat: Dat, access: Access, map: Map | None = None,
            idx: int | _AllIndices | None = None) -> "Arg":
        if not isinstance(access, Access):
            raise TypeError(f"access must be an Access, got {access!r}")
        if access in (Access.MIN, Access.MAX):
            raise ValueError("MIN/MAX accesses are reserved for Globals")
        if map is None:
            if idx is not None:
                raise ValueError("direct args must not pass idx")
        else:
            if map.to_set is not dat.set:
                raise ValueError(
                    f"map {map.name!r} targets set {map.to_set.name!r} but dat "
                    f"{dat.name!r} lives on {dat.set.name!r}"
                )
            if idx is None:
                raise ValueError("indirect args must pass idx (an int or op2.ALL)")
            if not isinstance(idx, _AllIndices) and not 0 <= idx < map.arity:
                raise ValueError(
                    f"idx {idx} out of range for map {map.name!r} arity {map.arity}"
                )
        return cls(data=dat, access=access, map=map, idx=idx)

    @classmethod
    def gbl(cls, g: Global, access: Access) -> "Arg":
        if access is not Access.READ and access not in REDUCTIONS:
            raise ValueError(f"Global access must be READ/INC/MIN/MAX, got {access}")
        return cls(data=g, access=access)

    # -- classification ----------------------------------------------------
    # Plain attributes, precomputed once: every backend consults these
    # many times per loop, which made the former properties a
    # measurable share of loop-dispatch overhead.
    is_global: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_dat: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_direct: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_indirect: bool = dataclasses.field(init=False, repr=False,
                                          compare=False)
    #: indirect arg passing the whole map row (idx=ALL)
    is_vector: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_reduction: bool = dataclasses.field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        self.is_global = isinstance(self.data, Global)
        self.is_dat = isinstance(self.data, Dat)
        self.is_direct = self.is_dat and self.map is None
        self.is_indirect = self.is_dat and self.map is not None
        self.is_vector = self.is_indirect and isinstance(self.idx,
                                                         _AllIndices)
        self.is_reduction = self.is_global and self.access in REDUCTIONS

    @property
    def dim(self) -> int:
        return self.data.dim

    def validate_for(self, iterset: Set) -> None:
        """Check this arg is legal in a loop over ``iterset``."""
        if self.is_global:
            return
        assert isinstance(self.data, Dat)
        if self.map is None:
            if self.data.set is not iterset:
                raise ValueError(
                    f"direct arg on dat {self.data.name!r} (set "
                    f"{self.data.set.name!r}) in a loop over {iterset.name!r}"
                )
        else:
            if self.map.from_set is not iterset:
                raise ValueError(
                    f"map {self.map.name!r} is from set {self.map.from_set.name!r}, "
                    f"loop iterates over {iterset.name!r}"
                )
            if self.access is Access.RW:
                raise ValueError(
                    "indirect RW access is order-dependent and unsupported; "
                    "use INC (commutative) or restructure the loop"
                )

    def kernel_shape(self) -> tuple[int, ...]:
        """Shape of the per-element view the kernel receives."""
        if self.is_vector:
            assert self.map is not None
            return (self.map.arity, self.dim)
        return (self.dim,)

    def __repr__(self) -> str:
        if self.is_global:
            return f"Arg({self.data.name}, {self.access.name})"
        where = "direct" if self.map is None else f"{self.map.name}[{self.idx}]"
        return f"Arg({self.data.name}, {self.access.name}, {where})"
