"""Backend registry: the generated parallelizations a loop can run under.

Each backend implements one of the paper's data-race-resolution
strategies for indirect increments:

==============  ========================================================
``sequential``  scalar reference loop (generated gather/call wrapper)
``vectorized``  whole-extent numpy execution, ``np.add.at`` scatter —
                the single-source SIMD analogue
``coloring``    conflict-free color groups with plain ``+=`` scatter —
                the OpenMP analogue
``atomics``     fixed-size chunks ("thread blocks") with ``np.add.at``
                scatter — the CUDA analogue
``blockcolor``  contiguous blocks ordered by block color — OP2's
                OpenMP *plan* shape (colors are team-parallel-safe)
``sanitizer``   colored execution with per-element write-set auditing —
                raises :class:`~repro.op2.backends.sanitizer.RaceError`
                on any same-color conflict instead of corrupting data
``native``      generated C compiled with the host toolchain and run
                through ``ctypes`` — direct loops flat-parallel,
                indirect loops via the block-color plan; falls back to
                ``vectorized`` when no compiler is available
``native-atomics``  generated C with chunked ``#pragma omp atomic``
                increments (the compiled CUDA-strategy analogue of
                ``atomics``); falls back to ``atomics`` so degraded
                runs keep the same accumulation semantics
==============  ========================================================

Every backend has one entry point, :meth:`Backend.execute`, which runs
a *group* of N >= 1 loops over a range — an eager ``par_loop`` is the
group of one, larger groups come from a lazy loop chain. The numpy
backends run a group's members back to back; ``native`` and
``native-atomics`` compile the whole group into one wrapper spanning a
single OpenMP region (see
:func:`~repro.op2.codegen.csource.generate_native`).

All backends must produce results identical to ``sequential`` up to
floating-point reassociation; the test suite enforces this.
"""

from repro.op2.backends.base import Backend, ReductionBuffers
from repro.op2.backends.blockcolor import BlockColorBackend
from repro.op2.backends.native import NativeAtomicsBackend, NativeBackend
from repro.op2.backends.sanitizer import RaceError, RaceFinding, SanitizerBackend
from repro.op2.backends.sequential import SequentialBackend
from repro.op2.backends.vectorized import AtomicsBackend, ColoringBackend, VectorizedBackend

BACKENDS: dict[str, Backend] = {
    "sequential": SequentialBackend(),
    "vectorized": VectorizedBackend(),
    "coloring": ColoringBackend(),
    "atomics": AtomicsBackend(),
    "blockcolor": BlockColorBackend(),
    "sanitizer": SanitizerBackend(),
    "native": NativeBackend(),
    "native-atomics": NativeAtomicsBackend(),
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
           "SequentialBackend", "VectorizedBackend", "ColoringBackend",
           "AtomicsBackend", "BlockColorBackend", "SanitizerBackend",
           "NativeBackend", "NativeAtomicsBackend", "RaceError",
           "RaceFinding"]
