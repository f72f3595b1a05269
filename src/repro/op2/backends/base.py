"""Backend protocol and reduction-buffer plumbing shared by all backends."""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.op2.access import Access

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import ParLoop
    from repro.smpi import SimComm


class ReductionBuffers:
    """Neutral-initialized partial buffers for a loop's Global reductions.

    Backends fold element contributions into these buffers; the loop
    finalizer combines them into the Globals — with an allreduce first
    in distributed runs, so every rank ends with the identical value.
    A second, discarded instance absorbs contributions from redundant
    exec-halo execution, which must not count twice.
    """

    _OPS = {Access.INC: "sum", Access.MIN: "min", Access.MAX: "max"}

    def __init__(self, args) -> None:
        self.buffers: dict[int, np.ndarray] = {}
        self._args = args
        for i, arg in enumerate(args):
            if arg.is_reduction:
                self.buffers[i] = arg.data.neutral(arg.access)

    def buffer_for(self, index: int) -> np.ndarray:
        return self.buffers[index]

    def finalize(self, comm: "SimComm | None") -> None:
        """Combine partials into the Globals (allreduce first if distributed)."""
        for i, buf in self.buffers.items():
            arg = self._args[i]
            if comm is not None and comm.size > 1:
                buf = comm.allreduce(buf, self._OPS[arg.access])
            arg.data.combine(arg.access, buf)


class Backend(Protocol):
    """A compute strategy executing a range of one loop's elements."""

    name: str

    def execute(self, loop: "ParLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        """Run elements [start, end) of ``loop``.

        Must fold the loop's reduction contributions into
        ``reductions`` and apply all dat writes in place.
        """
        ...  # pragma: no cover
