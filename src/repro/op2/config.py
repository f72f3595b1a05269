"""Runtime configuration for OP2 execution.

Configuration is thread-local (each simulated MPI rank is a thread and
must be able to run with the collective-consistent settings its driver
chose) with a module-level default that new threads inherit.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, replace


@dataclass
class Config:
    """Execution knobs for par_loops.

    Attributes
    ----------
    backend:
        Default compute backend: ``"sequential"``, ``"vectorized"``,
        ``"coloring"``, ``"atomics"``, ``"blockcolor"``, ``"native"``
        (compiled C via the host toolchain, block-color plan; falls
        back to ``"vectorized"`` when no compiler is available) or
        ``"native-atomics"`` (compiled C with chunked
        ``#pragma omp atomic`` increments; falls back to
        ``"atomics"``).
    native_threads:
        OpenMP thread count of the native backends' compiled wrappers
        (each runs one loop group, eager or chained, in one region);
        ``0`` (default) lets the OpenMP runtime decide
        (``omp_get_max_threads``, honouring ``OMP_NUM_THREADS``). With
        more than one thread, global
        reductions fold thread partials in nondeterministic order —
        pin ``native_threads=1`` where bitwise-reproducible reductions
        matter.
    partial_halos:
        Enable the partial-halo-exchange optimization (paper's PH).
    grouped_halos:
        Pack all of a loop's halo messages to one neighbour into a
        single message (paper's GH).
    atomics_block:
        Chunk size of the atomics (CUDA-analogue) backends — the
        simulated thread-block extent, shared by the numpy
        ``atomics`` simulation and the compiled ``native-atomics``
        wrappers so both accumulate in the same chunk order.
    block_size:
        Block extent of the blockcolor (OpenMP-plan analogue) backend.
    check_access:
        Debug mode: the sequential backend hands kernels *read-only*
        views for READ arguments, so a kernel violating its declared
        access fails loudly instead of silently corrupting data.
    sanitize:
        Debug mode: route every par_loop through the ``sanitizer``
        backend (write-set race auditing), overriding ``backend`` and
        per-loop overrides. A plan with a same-color conflict raises
        :class:`~repro.op2.backends.sanitizer.RaceError` instead of
        silently corrupting data.
    lazy:
        Defer every par_loop into this thread's implicit
        :class:`~repro.op2.chain.LoopChain` instead of executing
        immediately. The chain flushes on host data access or an
        explicit :func:`~repro.op2.chain.flush_chain`; flushing elides
        redundant halo exchanges, batches the rest, and fuses adjacent
        compatible loops. Results are bitwise-identical to eager mode.
    chain_fuse:
        Allow the chain flush to hand adjacent compatible loops to the
        backend as one group — one compiled wrapper on the native
        backends (on by default; elision and batching are unaffected
        when off).
    chain_verify:
        Debug mode: every chain flush replays the loops eagerly on a
        snapshot of the pre-flush state and bitwise-compares all
        touched dats and reductions, raising
        :class:`~repro.op2.chain.ChainEquivalenceError` on divergence.
    """

    backend: str = "vectorized"
    native_threads: int = 0
    partial_halos: bool = False
    grouped_halos: bool = False
    atomics_block: int = 4096
    block_size: int = 256
    check_access: bool = False
    sanitize: bool = False
    lazy: bool = False
    chain_fuse: bool = True
    chain_verify: bool = False


_default = Config()
_tls = threading.local()


def current_config() -> Config:
    """This thread's active configuration (inherits the module default)."""
    cfg = getattr(_tls, "config", None)
    if cfg is None:
        cfg = replace(_default)
        _tls.config = cfg
    return cfg


def set_config(**kwargs) -> Config:
    """Update this thread's configuration in place; returns it."""
    cfg = current_config()
    for key, value in kwargs.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    return cfg


def set_default_config(**kwargs) -> None:
    """Update the module default inherited by new threads."""
    for key, value in kwargs.items():
        if not hasattr(_default, key):
            raise ValueError(f"unknown config key {key!r}")
        setattr(_default, key, value)


@contextlib.contextmanager
def configure(**kwargs):
    """Context manager: apply config overrides on this thread, then restore."""
    cfg = current_config()
    saved = replace(cfg)
    try:
        set_config(**kwargs)
        yield cfg
    finally:
        _tls.config = saved
