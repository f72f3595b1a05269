"""Native backend: generate C, compile it, ``dlopen`` it, run it.

This closes the paper's Fig. 4 pipeline for real: the same validated
kernel AST every numpy backend interprets is emitted as a
self-contained C translation unit (:func:`~repro.op2.codegen.csource.
generate_native`), built with the host toolchain into one shared
object per loop *group* — an eager ``par_loop`` is the group of one —
and invoked through ``ctypes`` with raw numpy data pointers: zero
copies on either side of the call.

Execution strategies mirror the Python backends exactly:

* direct loops run a flat ``#pragma omp for`` over ``[start, end)``;
* loops with indirect writes execute the **block-color plan** (the
  OP2 OpenMP strategy): same-colored blocks share no write target and
  run team-parallel, colors are separated by barriers;
* the ``native-atomics`` backend instead cuts the range into
  ``Config.atomics_block``-sized chunks and resolves indirect
  increments with ``#pragma omp atomic`` — the compiled form of the
  CUDA strategy the numpy ``atomics`` backend simulates;
* under a lazy loop chain both native backends are *fusable*: a
  legality-proven group of N > 1 loops goes through the very same
  path and compiles into one wrapper whose single OpenMP region spans
  every section, with per-section plan arrays concatenated onto the
  ABI tail; a group that cannot be built degrades to N groups of one;
* global reductions accumulate into thread-private staging folded
  under ``#pragma omp critical``, into the caller's
  :class:`~repro.op2.backends.base.ReductionBuffers` partials — so
  distributed finalize/allreduce plumbing is untouched.

Compiled objects are cached on disk under ``~/.cache/repro-op2``
(override with ``REPRO_CACHE_DIR``), keyed by the SHA-256 of
``(source, compiler, flags)``, with in-process memoization in the
kernel's wrapper cache. The compiler is ``$REPRO_CC`` or the first of
``cc``/``gcc``/``clang`` on ``PATH``; flags are ``$REPRO_CFLAGS``
(default ``-O2 -fopenmp -ffp-contract=off`` — contraction off keeps
the elemental arithmetic bitwise-equal to numpy for correctly-rounded
operations).

Degradation is graceful by design: a missing toolchain, a compile
failure, or an unusable cached object warns **once** per process,
bumps the ``op2.native.fallback`` telemetry counter, and routes the
loop through the vectorized backend — every entry point keeps working
on a machine with no compiler at all.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.op2.access import Access
from repro.op2.backends.base import ReductionBuffers
from repro.op2.backends.vectorized import AtomicsBackend, VectorizedBackend
from repro.op2.codegen.csource import (generate_native, native_entry_name,
                                       native_is_planned)
from repro.op2.config import current_config
from repro.op2.kernel import KernelParseError
from repro.op2.plan import build_block_plan, clear_native_plan_arrays
from repro.telemetry.recorder import active_recorder, span
from repro.util.atomicio import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import ParLoop

#: default compile flags (overridable via ``REPRO_CFLAGS``); the link
#: flags are always appended — the backend only builds shared objects
DEFAULT_CFLAGS = "-O2 -fopenmp -ffp-contract=off"
_LINK_FLAGS = ("-shared", "-fPIC")

#: serializes compiles across simulated ranks (threads in one process);
#: the disk cache makes every rank after the first a cheap hit
_compile_lock = threading.Lock()
_warn_lock = threading.Lock()
_warned = False


def reset_native_state() -> None:
    """Re-arm the warn-once notice and drop cached native plan arrays.

    Tests that switch toolchains (``REPRO_CC``/``REPRO_CACHE_DIR``)
    between runs call this; clearing the flattened plan-ABI arrays
    cached on live :class:`~repro.op2.plan.BlockPlan` objects keeps a
    backend switch from observing arrays built for a previous
    configuration.
    """
    global _warned
    with _warn_lock:
        _warned = False
    clear_native_plan_arrays()


def toolchain() -> tuple[str, list[str]] | None:
    """``(compiler, cflags)`` or None when no usable compiler exists.

    ``REPRO_CC`` is honoured strictly: if set but not executable the
    toolchain counts as missing rather than silently substituting a
    different compiler.
    """
    explicit = os.environ.get("REPRO_CC")
    if explicit:
        cc = shutil.which(explicit)
    else:
        cc = next(filter(None, (shutil.which(c)
                                for c in ("cc", "gcc", "clang"))), None)
    if cc is None:
        return None
    return cc, os.environ.get("REPRO_CFLAGS", DEFAULT_CFLAGS).split()


def cache_dir() -> Path:
    """On-disk compile cache root (``REPRO_CACHE_DIR`` overrides)."""
    return Path(os.environ.get("REPRO_CACHE_DIR")
                or "~/.cache/repro-op2").expanduser()


def _so_path(stem: str, source: str, cc: str, cflags: list[str]) -> Path:
    digest = hashlib.sha256(
        "\x00".join([source, cc, " ".join(cflags)]).encode()).hexdigest()[:16]
    return cache_dir() / f"{stem[:80]}_{digest}.so"


def compiled_path(kernel, nsig: tuple,
                  strategy: str = "blockcolor") -> Path | None:
    """Cache location of the compiled wrapper for ``(kernel, nsig)``.

    ``nsig`` is the loop's
    :meth:`~repro.op2.parloop.ParLoop.native_signature`. Returns None
    without a toolchain. The object need not exist yet — this is where
    the backend will look for (or build) it, which is what cache tests
    and cache-management tooling need.
    """
    tc = toolchain()
    if tc is None:
        return None
    cc, cflags = tc
    return _so_path(kernel.name,
                    generate_native([kernel], [nsig], strategy), cc, cflags)


class _NativeEntry:
    """A loaded compiled group wrapper plus its per-section plan layout."""

    __slots__ = ("fn", "planned_idx", "source", "path", "_lib")

    def __init__(self, fn, planned_idx: tuple[int, ...], source: str,
                 path: Path, lib) -> None:
        self.fn = fn
        self.planned_idx = planned_idx  #: sections needing plan arrays
        self.source = source
        self.path = path
        self._lib = lib  # keeps the dlopen handle alive


class _Fallback:
    """Sentinel cached for a loop group that cannot compile."""

    __slots__ = ("reason", "warn")

    def __init__(self, reason: str, warn: bool = True) -> None:
        self.reason = reason
        self.warn = warn


def _compile(source: str, cc: str, cflags: list[str],
             so_path: Path) -> str | None:
    """Build ``source`` into ``so_path`` atomically; error string on failure.

    The compiler reads the source from stdin and writes a private temp
    object: ranks forked onto a cold cache all build the same unit at
    once (``_compile_lock`` does not cross ``fork``), so no file one
    rank's ``cc`` reads may be rewritten by a sibling. Both the object
    and the inspectable ``.c`` beside it are published by rename.
    """
    rec = active_recorder()
    with span("native.compile", "op2.native", path=so_path.name):
        try:
            so_path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=so_path.parent)
            os.close(fd)
        except OSError as exc:
            return f"cache directory unusable: {exc}"
        cmd = [cc, *cflags, *_LINK_FLAGS, "-o", tmp, "-x", "c", "-", "-lm"]
        try:
            proc = subprocess.run(cmd, input=source, capture_output=True,
                                  text=True)
        except OSError as exc:
            os.unlink(tmp)
            return f"could not run {cc!r}: {exc}"
        if proc.returncode != 0:
            os.unlink(tmp)
            tail = proc.stderr.strip().splitlines()[-3:]
            return f"{cc} exited {proc.returncode}: " + " | ".join(tail)
        os.replace(tmp, so_path)  # atomic: concurrent ranks both win
        atomic_write_text(so_path.with_suffix(".c"), source)
    if rec is not None:
        rec.counter("op2.native.compile")
    return None


def _load_compiled(source: str, stem: str, entry_name: str
                   ) -> "tuple | _Fallback":
    """Compile (or reuse) ``source`` and dlopen it; ``(fn, path, lib)``."""
    rec = active_recorder()
    tc = toolchain()
    if tc is None:
        return _Fallback("no C toolchain (set REPRO_CC or install cc/gcc)")
    cc, cflags = tc
    so_path = _so_path(stem, source, cc, cflags)
    with _compile_lock:
        for attempt in (0, 1):
            if not so_path.exists():
                err = _compile(source, cc, cflags, so_path)
                if err is not None:
                    return _Fallback(err)
            elif rec is not None:
                rec.counter("op2.native.cache_hit_disk")
            try:
                with span("native.load", "op2.native", path=so_path.name):
                    lib = ctypes.CDLL(str(so_path))
                    fn = getattr(lib, entry_name)
            except (OSError, AttributeError):
                # corrupted or stale cache entry: rebuild exactly once
                if rec is not None:
                    rec.counter("op2.native.cache_corrupt")
                so_path.unlink(missing_ok=True)
                if attempt:
                    return _Fallback(
                        f"compiled object for {stem!r} unusable "
                        "even after recompiling")
                continue
            fn.restype = None
            return fn, so_path, lib
    raise AssertionError("unreachable")  # pragma: no cover


def _build_entry(kernels, nsigs: list[tuple],
                 strategy: str) -> "_NativeEntry | _Fallback":
    names = "+".join(k.name for k in kernels)
    try:
        with span("native.generate", "op2.native", kernel=names):
            source = generate_native(kernels, nsigs, strategy)
    except KernelParseError as exc:
        return _Fallback(f"C generation failed for {names!r}: {exc}")
    loaded = _load_compiled(source, "_".join(k.name for k in kernels),
                            native_entry_name(kernels, strategy))
    if isinstance(loaded, _Fallback):
        return loaded
    fn, so_path, lib = loaded
    planned_idx = tuple(
        j for j, nsig in enumerate(nsigs)
        if strategy == "blockcolor" and native_is_planned(nsig))
    return _NativeEntry(fn, planned_idx, source, so_path, lib)


class NativeBackend:
    """Compiled-C execution through the block-color plan (OpenMP)."""

    name = "native"
    strategy = "blockcolor"
    _fallback = VectorizedBackend()

    def execute(self, loops: "list[ParLoop]", start: int, end: int,
                reductions: list[ReductionBuffers]) -> None:
        """Run a group through its one compiled wrapper.

        A group of N > 1 that cannot be built (no toolchain, an
        unsupported dtype, generation or compile failure) degrades to N
        groups of one over the same range — bitwise-identical to the
        group wrapper, so lazy-vs-eager equivalence holds on every
        degradation path; a group of one falls back to the numpy twin.
        """
        entry = self._entry_for(loops)
        rec = active_recorder()
        if isinstance(entry, _Fallback):
            if len(loops) > 1:
                if rec is not None:
                    rec.counter("op2.native.fused_fallback")
                for loop, red in zip(loops, reductions):
                    self.execute([loop], start, end, [red])
                return
            if entry.warn:
                self._warn_and_count(entry.reason)
            self._fallback.execute(loops, start, end, reductions)
            return
        cfg = current_config()
        c_void_p, c_ll = ctypes.c_void_p, ctypes.c_longlong
        argv: list = []
        for loop, red in zip(loops, reductions):
            argv.extend(self._loop_argv(loop, red))
        keepalive = []  # plan arrays must outlive the call
        for j in entry.planned_idx:
            plan = build_block_plan(loops[j].args, end,
                                    block_size=cfg.block_size)
            blk_lo, blk_hi, col_off = plan.native_arrays(start, end)
            keepalive.append((blk_lo, blk_hi, col_off))
            argv += [c_void_p(blk_lo.ctypes.data),
                     c_void_p(blk_hi.ctypes.data),
                     c_void_p(col_off.ctypes.data),
                     c_ll(col_off.size - 1)]
        block = max(1, cfg.atomics_block)
        argv += [c_ll(start), c_ll(end), c_ll(block),
                 c_ll(cfg.native_threads)]
        entry.fn(*argv)
        if rec is not None:
            if len(loops) > 1:
                rec.counter("op2.native.fused_groups")
                rec.counter("op2.native.fused_loops", len(loops))
            if self.strategy == "atomics":
                rec.counter("op2.native.atomics_loops", len(loops))
                rec.counter("op2.native.atomics_blocks",
                            len(loops) * max(0, -(-(end - start) // block)))

    @staticmethod
    def _loop_argv(loop: "ParLoop", reductions: ReductionBuffers) -> list:
        """The per-argument ctypes pointers of one loop's ABI slice."""
        c_void_p = ctypes.c_void_p
        argv: list = []
        for i, arg in enumerate(loop.args):
            if arg.is_global:
                buf = (reductions.buffer_for(i) if arg.is_reduction
                       else arg.data._data)
                argv.append(c_void_p(buf.ctypes.data))
                continue
            argv.append(c_void_p(arg.data._data.ctypes.data))
            if arg.is_indirect:
                argv.append(c_void_p(arg.map.values.ctypes.data))
        return argv

    def _entry_for(self, loops: "list[ParLoop]"
                   ) -> "_NativeEntry | _Fallback":
        for loop in loops:
            unsupported = self._unsupported(loop)
            if unsupported is not None:
                return unsupported
        key = (self.name,
               tuple([(id(l.kernel), l.native_signature()) for l in loops]))
        entry = loops[0].kernel.cached(key)
        if entry is not None:
            rec = active_recorder()
            if rec is not None:
                rec.counter("op2.native.cache_hit_mem")
            return entry
        entry = _build_entry([l.kernel for l in loops],
                             [nsig for _, nsig in key[1]], self.strategy)
        source = entry.source if isinstance(entry, _NativeEntry) else ""
        loops[0].kernel.store(key, entry, source)
        return entry

    def _unsupported(self, loop: "ParLoop") -> "_Fallback | None":
        """The compiled ABI is float64/contiguous only; anything else
        routes to the fallback backend (counted, but not warned — it
        is a capability gap, not an environment failure)."""
        for arg in loop.args:
            arr = arg.data._data
            if arr.dtype != np.float64 or not arr.flags.c_contiguous:
                rec = active_recorder()
                if rec is not None:
                    rec.counter("op2.native.unsupported")
                return _Fallback(
                    f"argument {arg.data.name!r} is not contiguous float64",
                    warn=False)
        return None

    def _warn_and_count(self, reason: str) -> None:
        global _warned
        rec = active_recorder()
        if rec is not None:
            rec.counter("op2.native.fallback")
        with _warn_lock:
            if _warned:
                return
            _warned = True
        warnings.warn(
            f"{self.name} backend unavailable ({reason}); "
            f"falling back to the {self._fallback.name} backend",
            RuntimeWarning, stacklevel=3)


class NativeAtomicsBackend(NativeBackend):
    """Compiled-C execution with chunked ``#pragma omp atomic`` scatter.

    The compiled analogue of the numpy :class:`~repro.op2.backends.
    vectorized.AtomicsBackend` (itself the CUDA-grid simulation): the
    iteration space is cut into :func:`~repro.op2.backends.vectorized.
    atomics_chunks` of ``Config.atomics_block`` elements, every
    indirect increment is an ``#pragma omp atomic``, and no
    block-color plan is ever built. Falls back to the numpy atomics
    backend — not vectorized — so degraded runs keep the same
    chunk-serial accumulation semantics.
    """

    name = "native-atomics"
    strategy = "atomics"
    _fallback = AtomicsBackend()

    def _unsupported(self, loop: "ParLoop") -> "_Fallback | None":
        base = super()._unsupported(loop)
        if base is not None:
            return base
        # atomics only resolve increment races: an indirect WRITE/RW
        # would be a plain multi-thread data race in the compiled
        # wrapper, while the numpy simulation stays deterministic —
        # route such loops to the simulation
        for arg in loop.args:
            if (arg.is_indirect
                    and arg.access not in (Access.READ, Access.INC)):
                rec = active_recorder()
                if rec is not None:
                    rec.counter("op2.native.unsupported")
                return _Fallback(
                    f"indirect {arg.access.name} on {arg.data.name!r} "
                    "needs a plan; atomics only cover increments",
                    warn=False)
        return None
