"""Backend protocol and reduction-buffer plumbing shared by all backends."""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.op2.access import Access

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import BoundLoop
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
        self._neutral = {i: buf.copy() for i, buf in self.buffers.items()}

    def buffer_for(self, index: int) -> np.ndarray:
        return self.buffers[index]

    def reset(self) -> None:
        """Refill every buffer with its neutral value, in place (a bound
        loop reuses its buffers, whose addresses its backend calls hold)."""
        for i, buf in self.buffers.items():
            buf[...] = self._neutral[i]

    def finalize(self, comm: "SimComm | None") -> None:
        """Combine partials into the Globals (allreduce first if distributed)."""
        for i, buf in self.buffers.items():
            arg = self._args[i]
            if comm is not None and comm.size > 1:
                buf = comm.allreduce(buf, self._OPS[arg.access])
            arg.data.combine(arg.access, buf)


class Backend(Protocol):
    """A compute strategy executing a range of one loop's elements.

    A backend may also define ``prepare(loop, start, end, reductions)
    -> (fn, argv)``: everything :meth:`execute` would do once, leaving
    ``fn(*argv)`` to run the range with ``reductions`` bound in. A
    :class:`~repro.op2.parloop.BoundLoop` prepares once and calls
    ``fn(*argv)`` per run, so ``argv`` may hold only storage that
    stays put: dat and map arrays, the buffers of ``reductions``
    (refilled in place between calls), and READ Global storage (the
    loop re-prepares when a Global's storage is rebound). Without
    ``prepare`` the loop calls :meth:`execute` per run.
    """

    name: str

    def execute(self, loop: "BoundLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        """Run elements [start, end) of ``loop``.

        Must fold the loop's reduction contributions into
        ``reductions`` and apply all dat writes in place.
        """
        ...  # pragma: no cover
