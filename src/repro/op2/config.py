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
        Default compute backend (a name in
        :data:`~repro.op2.backends.BACKENDS`): ``"sequential"``,
        ``"vectorized"``, ``"sanitizer"`` or ``"native"`` (compiled C
        via the host toolchain, block-color plan), which falls back to
        ``"vectorized"`` when no compiler is available.
    native_threads:
        OpenMP thread count of the native backend's compiled wrappers
        (each runs one loop in one region);
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
    check_access:
        Debug mode: the sequential backend hands kernels *read-only*
        views for READ arguments, so a kernel violating its declared
        access fails loudly instead of silently corrupting data.
    sanitize:
        Debug mode: route every par_loop through the ``sanitizer``
        backend (write-set race auditing), overriding ``backend`` and
        per-loop overrides. It audits and runs the block plan the
        ``native`` backend executes; a plan with a same-color conflict
        raises :class:`~repro.op2.backends.sanitizer.RaceError` instead
        of silently corrupting data.
    lazy:
        No effect; every par_loop runs when it is called (see the
        chain stand-ins at the end of :mod:`repro.op2`).
    """

    backend: str = "vectorized"
    native_threads: int = 0
    partial_halos: bool = False
    grouped_halos: bool = False
    check_access: bool = False
    sanitize: bool = False
    lazy: bool = False


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
