"""OP2 access descriptors.

Every argument to an ``op_par_loop`` declares *how* the elemental
kernel touches it. The descriptor is what lets the code generator pick
a data-race-resolution strategy per backend (atomic numpy scatter,
block-color plan, owner-compute redundant execution, ...) without ever
inspecting the kernel body's intent.
"""

from __future__ import annotations

import enum


class Access(enum.Enum):
    """How a kernel accesses one argument (mirrors OP2's ``op_access``)."""

    READ = "read"    #: read-only
    WRITE = "write"  #: write-only (every executed element fully defines it)
    RW = "rw"        #: read and write (direct args only, to stay race-free)
    INC = "inc"      #: increment-only; contributions commute and are summed
    MIN = "min"      #: global minimum reduction (Globals only)
    MAX = "max"      #: global maximum reduction (Globals only)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OP_{self.name}"


READ = Access.READ
WRITE = Access.WRITE
RW = Access.RW
INC = Access.INC
MIN = Access.MIN
MAX = Access.MAX

#: Accesses that read existing values (trigger halo refresh).
READING = frozenset({Access.READ, Access.RW})
#: Accesses that modify values (mark halos dirty).
WRITING = frozenset({Access.WRITE, Access.RW, Access.INC})
#: Accesses valid for reduction Globals.
REDUCTIONS = frozenset({Access.INC, Access.MIN, Access.MAX})
