"""Native backend: generate C, compile it, ``dlopen`` it, run it.

This closes the paper's Fig. 4 pipeline for real: the same validated
kernel AST every numpy backend interprets is emitted as a
self-contained C translation unit (:func:`~repro.op2.codegen.csource.
generate_native`), built with the host toolchain into one shared
object per loop and invoked through ``ctypes`` with raw numpy data
pointers: zero copies on either side of the call.

Execution follows OP2's OpenMP strategy:

* direct loops run a flat ``#pragma omp for`` over ``[start, end)``;
* loops with indirect writes execute the **block-color plan**:
  same-colored blocks share no write target and run team-parallel,
  colors are separated by barriers;
* global reductions accumulate into thread-private staging folded
  under ``#pragma omp critical``, into the caller's
  :class:`~repro.op2.backends.base.ReductionBuffers` partials — so
  distributed finalize/allreduce plumbing is untouched.

Compiled objects are cached on disk under ``~/.cache/repro-op2``
(override with ``REPRO_CACHE_DIR``), keyed by the SHA-256 of the
generator's *inputs* — kernel name and source, native signature,
compiler, flags and a fingerprint of the generator modules' source
(:func:`generator_fingerprint`) — so a process that finds its object
on disk loads it without generating C; the source is generated only
to build a missing object (or to rebuild a corrupt one). The
kernel's wrapper cache memoizes the loaded entry in-process. The
compiler is ``$REPRO_CC`` or the first of ``cc``/``gcc``/``clang`` on
``PATH``; flags are ``$REPRO_CFLAGS``
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
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.op2 import kernel as kernel_module
from repro.op2.backends.base import ReductionBuffers
from repro.op2.backends.vectorized import VectorizedBackend
from repro.op2.codegen import csource, hoist
from repro.op2.codegen.csource import (generate_native, native_entry_name,
                                       native_is_planned)
from repro.op2.codegen.hoist import hoist_plan
from repro.op2.config import current_config
from repro.op2.kernel import KernelParseError
from repro.op2.plan import build_block_plan, clear_native_plan_arrays
from repro.telemetry.recorder import active_recorder, span
from repro.util.atomicio import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.args import Arg
    from repro.op2.parloop import BoundLoop

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


@functools.cache
def generator_fingerprint() -> str:
    """SHA-256 of the source of the modules that shape generated C
    (the kernel parser and typing, the hoisting analysis, the C
    generator): part of every compiled object's cache key, so editing
    the generator misses the cache instead of loading stale code."""
    digest = hashlib.sha256()
    for module in (kernel_module, hoist, csource):
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def _so_path(stem: str, key: str, cc: str, cflags: list[str]) -> Path:
    digest = hashlib.sha256(
        "\x00".join([key, cc, " ".join(cflags)]).encode()).hexdigest()[:16]
    return cache_dir() / f"{stem[:80]}_{digest}.so"


def _generator_key(kernel, nsig: tuple) -> str:
    """Everything :func:`generate_native` reads, as one string."""
    return "\x00".join([kernel.name, kernel.source, repr(nsig),
                        generator_fingerprint()])


def compiled_path(kernel, nsig: tuple) -> Path | None:
    """Cache location of the compiled wrapper for ``(kernel, nsig)``.

    ``nsig`` is the loop's
    :meth:`~repro.op2.parloop.BoundLoop.native_signature`. Returns None
    without a toolchain. The object need not exist yet — this is where
    the backend will look for (or build) it, which is what cache tests
    and cache-management tooling need. No C is generated.
    """
    tc = toolchain()
    if tc is None:
        return None
    cc, cflags = tc
    return _so_path(kernel.name, _generator_key(kernel, nsig), cc, cflags)


class _NativeEntry:
    """A loaded compiled loop wrapper."""

    __slots__ = ("fn", "source", "path", "_lib")

    def __init__(self, fn, source: str, path: Path, lib) -> None:
        self.fn = fn
        self.source = source
        self.path = path
        self._lib = lib  # keeps the dlopen handle alive


class _Fallback:
    """Sentinel cached for a loop that cannot compile."""

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


def _load_compiled(key: str, generate, stem: str, entry_name: str
                   ) -> "tuple | _Fallback":
    """dlopen the object cached under ``key``, building it from
    ``generate()`` (the C source) when it is missing or unusable;
    ``(fn, path, lib, source)``."""
    rec = active_recorder()
    tc = toolchain()
    if tc is None:
        return _Fallback("no C toolchain (set REPRO_CC or install cc/gcc)")
    cc, cflags = tc
    so_path = _so_path(stem, key, cc, cflags)
    source = None
    with _compile_lock:
        for attempt in (0, 1):
            if not so_path.exists():
                if source is None:
                    try:
                        source = generate()
                    except KernelParseError as exc:
                        return _Fallback(
                            f"C generation failed for {stem!r}: {exc}")
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
            if source is None:  # loaded from disk: show what was built
                c_path = so_path.with_suffix(".c")
                source = c_path.read_text() if c_path.exists() else ""
            return fn, so_path, lib, source
    raise AssertionError("unreachable")  # pragma: no cover


#: per-map hoisting row lists, keyed ``(((id(map), column), ...), start,
#: end)``; ``Map.values`` is read-only, so an entry never goes stale,
#: and it dies with its first map (weak keys; the entry holds the
#: others)
_rows_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def hoisted_rows(args: "list[Arg]", start: int, end: int) -> np.ndarray:
    """Sorted unique target rows that elements [start, end) reference
    through the map columns of the indirect ``args``: the rows a
    hoisting pre-pass evaluates (:mod:`repro.op2.codegen.hoist`)."""
    first = args[0].map
    per_map = _rows_cache.get(first)
    if per_map is None:
        per_map = _rows_cache[first] = {}
    key = (tuple((id(a.map), int(a.idx)) for a in args), start, end)
    entry = per_map.get(key)
    if entry is None:
        rows = np.unique(np.concatenate(
            [a.map.values[start:end, a.idx] for a in args]))
        rows.setflags(write=False)
        others = tuple(a.map for a in args if a.map is not first)
        entry = per_map[key] = (rows, others)
    return entry[0]


def _refilling(fn, loop: "BoundLoop", width: int, start: int, end: int):
    """``fn`` refilling the loop's invariant cache on every run
    (``Config.check_access``), raising when a filled one changed."""
    flag = loop.cache_fill(start, end)
    cache = loop.invariant_cache(width)

    def run(*argv) -> None:
        filled = cache.view(np.int64).copy()
        was_filled, flag[0] = not flag[0], 1
        fn(*argv)
        if was_filled and not np.array_equal(filled, cache.view(np.int64)):
            raise RuntimeError(
                f"kernel {loop.kernel.name!r}: an invariant cache of "
                f"elements [{start}, {end}) changed since it was filled")
    return run


def _pointer(arr: np.ndarray) -> ctypes.c_void_p:
    """``arr``'s data pointer; the pointer object keeps ``arr`` alive."""
    return arr.ctypes.data_as(ctypes.c_void_p)


class NativeBackend:
    """Compiled-C execution through the block-color plan (OpenMP)."""

    name = "native"
    _fallback = VectorizedBackend()

    def prepare(self, loop: "BoundLoop", start: int, end: int,
                reductions: ReductionBuffers) -> tuple:
        """``(fn, argv)`` running ``loop`` over [start, end) through its
        compiled wrapper, or through its numpy twin when the wrapper
        cannot be built.

        ``argv`` is the whole ctypes argument list: a pointer per dat,
        map, READ Global and reduction buffer, then per hoisting group
        its row list, row count and scratch array, then the block
        plan's arrays (planned wrappers), the range and the thread
        count. Each pointer keeps its array alive.
        """
        entry = self._entry_for(loop)
        if isinstance(entry, _Fallback):
            if entry.warn:
                self._warn_and_count(entry.reason)
            return self._fallback.prepare(loop, start, end, reductions)
        cfg = current_config()
        c_ll = ctypes.c_longlong
        argv = self._loop_argv(loop, reductions)
        argv += self._hoist_argv(loop, start, end)
        if native_is_planned(loop.native_signature()):
            plan = build_block_plan(loop.args, end)
            blk_lo, blk_hi, col_off = plan.native_arrays(start, end)
            argv += [_pointer(blk_lo), _pointer(blk_hi), _pointer(col_off),
                     c_ll(col_off.size - 1)]
        argv += [c_ll(start), c_ll(end), c_ll(cfg.native_threads)]
        hoisting = hoist_plan(loop.kernel, self._nsig(loop))
        if cfg.check_access and hoisting.cache:
            return (_refilling(entry.fn, loop, len(hoisting.cache), start,
                               end), argv)
        return entry.fn, argv

    def execute(self, loop: "BoundLoop", start: int, end: int,
                reductions: ReductionBuffers) -> None:
        """Run ``loop`` through its compiled wrapper, or its numpy twin
        when the wrapper cannot be built."""
        fn, argv = self.prepare(loop, start, end, reductions)
        fn(*argv)

    @staticmethod
    def _loop_argv(loop: "BoundLoop", reductions: ReductionBuffers) -> list:
        """The per-argument ctypes pointers of the wrapper ABI."""
        argv: list = []
        for i, arg in enumerate(loop.args):
            if arg.is_global:
                buf = (reductions.buffer_for(i) if arg.is_reduction
                       else arg.data._data)
                argv.append(_pointer(buf))
                continue
            argv.append(_pointer(arg.data._data))
            if arg.is_indirect:
                argv.append(_pointer(arg.map.values))
        return argv

    def _hoist_argv(self, loop: "BoundLoop", start: int, end: int) -> list:
        """Per hoisting group: row list, row count, scratch array; then
        the invariant cache and the range's fill flag."""
        plan = hoist_plan(loop.kernel, self._nsig(loop))
        argv: list = []
        for group in plan.groups:
            rows = hoisted_rows([loop.args[i] for i in group.members],
                                start, end)
            argv += [_pointer(rows), ctypes.c_longlong(rows.size),
                     _pointer(loop.hoist_scratch(group.members,
                                                 group.width))]
        if plan.cache:
            argv += [_pointer(loop.invariant_cache(len(plan.cache))),
                     _pointer(loop.cache_fill(start, end))]
        return argv

    def _nsig(self, loop: "BoundLoop") -> tuple:
        """The signature the backend generates the loop's wrapper from."""
        return loop.native_signature()

    def _build_entry(self, kernel, nsig: tuple
                     ) -> "_NativeEntry | _Fallback":
        """Load the compiled wrapper of ``(kernel, nsig)``, generating
        and compiling it only when the disk cache misses."""
        def generate() -> str:
            with span("native.generate", "op2.native", kernel=kernel.name):
                return generate_native(kernel, nsig)

        loaded = _load_compiled(_generator_key(kernel, nsig), generate,
                                kernel.name, native_entry_name(kernel))
        if isinstance(loaded, _Fallback):
            return loaded
        fn, so_path, lib, source = loaded
        return _NativeEntry(fn, source, so_path, lib)

    def _entry_for(self, loop: "BoundLoop") -> "_NativeEntry | _Fallback":
        unsupported = self._unsupported(loop)
        if unsupported is not None:
            return unsupported
        nsig = self._nsig(loop)
        key = (self.name, nsig)
        entry = loop.kernel.cached(key)
        if entry is not None:
            rec = active_recorder()
            if rec is not None:
                rec.counter("op2.native.cache_hit_mem")
            return entry
        entry = self._build_entry(loop.kernel, nsig)
        source = entry.source if isinstance(entry, _NativeEntry) else ""
        loop.kernel.store(key, entry, source)
        return entry

    def _unsupported(self, loop: "BoundLoop") -> "_Fallback | None":
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

