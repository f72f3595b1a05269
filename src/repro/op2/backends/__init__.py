"""Backend registry: the parallelizations a loop can run under.

Each backend resolves indirect-increment races one way:

==============  ========================================================
``sequential``  scalar reference loop (generated gather/call wrapper)
``vectorized``  whole-extent numpy execution, ``np.add.at`` scatter —
                the single-source SIMD analogue
``sanitizer``   colored execution with per-element write-set auditing —
                raises :class:`~repro.op2.backends.sanitizer.RaceError`
                on any same-color conflict instead of corrupting data
``native``      generated C compiled with the host toolchain and run
                through ``ctypes`` — direct loops flat-parallel,
                indirect loops via the block-color plan (the paper's
                OpenMP strategy)
==============  ========================================================

``native`` degrades to ``vectorized`` when the toolchain is missing or
an argument is not contiguous float64.

Every backend has one entry point, :meth:`Backend.execute`, which runs
one loop over a range of its iteration set — eagerly, or as a lazy
loop chain flushes it.

All backends must produce results identical to ``sequential`` up to
floating-point reassociation; the test suite enforces this.
"""

from repro.op2.backends.base import Backend, ReductionBuffers
from repro.op2.backends.native import NativeBackend
from repro.op2.backends.sanitizer import RaceError, RaceFinding, SanitizerBackend
from repro.op2.backends.sequential import SequentialBackend
from repro.op2.backends.vectorized import VectorizedBackend

BACKENDS: dict[str, Backend] = {
    "sequential": SequentialBackend(),
    "vectorized": VectorizedBackend(),
    "sanitizer": SanitizerBackend(),
    "native": NativeBackend(),
}


def resolve_backend(name: str) -> Backend:
    """Look up a backend by name with a helpful error."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None


__all__ = ["Backend", "ReductionBuffers", "BACKENDS", "resolve_backend",
           "SequentialBackend", "VectorizedBackend", "SanitizerBackend",
           "NativeBackend", "RaceError", "RaceFinding"]
