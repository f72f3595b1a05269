"""The par_loop frontend: binding, dispatch, and MPI orchestration.

``par_loop(kernel, iterset, *args)`` is the single entry point of the
DSL (the paper's ``op_par_loop``); ``bind(kernel, iterset, *args)``
splits it in two. Binding validates the argument list once and keeps
everything that depends only on it — the loop *signature* that drives
code generation, the flat argument layout, the halo reads, the dats a
run leaves stale — and, on the first run under each backend, the
prepared backend call (compiled entry with its ctypes argv and block
plan, or numpy wrapper with its scatter indices). ``par_loop(...)`` is
``bind(...).run()``. For distributed sets a run performs the paper's
owner-compute protocol:

1. forward halo exchanges for every stale dat the loop will read
   (full, or partial per-map/exec-region when ``Config.partial_halos``
   is on; packed per-neighbour when ``Config.grouped_halos`` is on);
2. execution over owned elements, then **redundant execution** over
   the import-exec halo with a discarded reduction buffer so global
   reductions count each element exactly once;
3. staleness marking for every written dat and an allreduce to
   finalize reductions.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.op2.access import Access, READING, WRITING
from repro.op2.args import Arg
from repro.op2.backends import ReductionBuffers, resolve_backend
from repro.op2.config import current_config
from repro.op2.dat import FrozenError
from repro.op2.halo import exchange_halos, resolve_scope
from repro.op2.kernel import Kernel
from repro.op2.set import Set
from repro.telemetry.recorder import active_recorder


def loop_halo_reads(loop: "BoundLoop", cfg) -> list[tuple]:
    """``(dat, scope)`` for every halo-bearing dat ``loop`` reads: the
    one scope a run refreshes it for.

    Under ``Config.partial_halos`` an indirect read needs the map's
    scope at the depth the execution extent requires: the full per-map
    scope (owned+exec rows) when the loop executes redundantly over the
    exec halo, only the ``@own`` depth-1 scope (owned rows) otherwise.
    Direct reads need the exec region exactly when the loop executes
    it. A dat read through several scopes gets the one that covers
    them all (:func:`~repro.op2.halo.resolve_scope`).

    Scope choices key off :attr:`BoundLoop.has_indirect_writes` — a
    property of the loop's argument list, identical on every rank —
    never off this rank's execution extent: a rank whose exec halo
    happens to be empty (``exec_size == size``) must still pick the
    same scope names as its neighbours, or pairwise-matched exchange
    plans desynchronize and the run deadlocks.
    """
    redundant = loop.has_indirect_writes  # uniform across ranks
    needs: dict[int, tuple] = {}
    for arg in loop.args:
        if not arg.is_dat or arg.access not in READING:
            continue
        dat = arg.data
        if dat.set.halo is None:
            continue
        if arg.is_indirect:
            if not cfg.partial_halos:
                scope = "full"
            else:
                scope = arg.map.name if redundant else f"{arg.map.name}@own"
        else:
            if not redundant:
                continue  # owned-only direct reads touch no halo
            scope = "exec" if cfg.partial_halos else "full"
        entry = needs.setdefault(id(dat), (dat, set()))
        entry[1].add(scope)
    return [(dat, resolve_scope(scopes)) for dat, scopes in needs.values()]


def _check_fixed_unwritten(kernel: Kernel, args: list[Arg]) -> None:
    """Reject an argument that writes a frozen dat or a const Global."""
    for arg in args:
        if arg.access is not Access.READ and (
                arg.data.frozen if arg.is_dat else arg.data.const):
            raise FrozenError(
                f"{'frozen dat' if arg.is_dat else 'const global'} "
                f"{arg.data.name!r} is bound {arg.access.name} in kernel "
                f"{kernel.name!r}")


def _check_direct_writes_unaliased(kernel: Kernel, args: list[Arg]) -> None:
    """Reject a dat written through a direct argument and bound again.

    Whether the other binding sees that write would depend on the
    backend: the sequential one interleaves elements, the vectorized
    one writes direct arguments in place through views while it stages
    every other argument.
    """
    for arg in args:
        if arg.is_direct and arg.access in WRITING \
                and sum(other.data is arg.data for other in args) > 1:
            raise ValueError(
                f"dat {arg.data.name!r} is written through a direct argument "
                f"of kernel {kernel.name!r} and bound to another of its "
                f"arguments; pass it once, with RW access if it is also read"
            )


class BoundLoop:
    """A validated parallel loop over ``iterset``, bound to its arguments.

    Frozen at bind: the kernel, the iteration set, the :class:`Arg`
    objects (a bound ``Arg`` must not be mutated), the backend
    override, the signatures and the flat argument layout. Built per
    configuration (:attr:`_fingerprint` of ``partial_halos`` and
    ``check_access``; a change rebinds on the next run): the halo
    reads, one scope per dat. Built on the first run under each
    backend: the prepared backend calls over the owned range and the
    exec halo, with the loop's two reusable reduction buffers bound
    in. Read per run: halo
    freshness, the config, and the storage of every READ ``Global``
    (``Global.data = ...`` may rebind it; the next run re-prepares).
    Filled on a range's first compiled run and kept: the caches of what
    follows from frozen dats and const Globals (:meth:`cache_fill`).
    """

    def __init__(self, kernel: Kernel, iterset: Set, args: list[Arg],
                 backend: str | None = None) -> None:
        if not isinstance(kernel, Kernel):
            raise TypeError(f"kernel must be a Kernel, got {type(kernel).__name__}")
        if not isinstance(iterset, Set):
            raise TypeError(f"iterset must be a Set, got {type(iterset).__name__}")
        if len(kernel.params) != len(args):
            raise ValueError(
                f"kernel {kernel.name!r} takes {len(kernel.params)} parameters "
                f"but {len(args)} loop arguments were supplied"
            )
        for arg in args:
            if not isinstance(arg, Arg):
                raise TypeError(f"loop arguments must be Args, got {arg!r}")
            arg.validate_for(iterset)
        _check_fixed_unwritten(kernel, args)
        _check_direct_writes_unaliased(kernel, args)
        self.kernel = kernel
        self.iterset = iterset
        self.args = args
        self.backend = backend
        self.has_indirect_writes = any(
            a.is_indirect and a.access in (Access.INC, Access.WRITE)
            for a in args)

        native: list[tuple] = []
        #: flat argument layout (see :meth:`flatten_bindings`): dat and
        #: map arrays in place, None at each Global's slot
        self._flat: list = []
        #: ``(flat slot, arg index, is_reduction)`` of every Global
        self._global_slots: list[tuple[int, int, bool]] = []
        for i, arg in enumerate(args):
            if arg.is_global:
                native.append(("gbl", arg.access, arg.dim, arg.data.const))
                self._global_slots.append((len(self._flat), i,
                                           arg.is_reduction))
                self._flat.append(None)
                continue
            addressing = ("direct" if arg.is_direct
                          else "all" if arg.is_vector else "idx")
            arity = arg.map.arity if arg.map is not None else 0
            idx = arg.idx if (arg.is_indirect and not arg.is_vector) else None
            shares = next(j for j, other in enumerate(args)
                          if other.data is arg.data)
            native.append(("dat", arg.access, addressing, arg.dim, arity, idx,
                           shares, arg.data.frozen))
            self._flat.append(arg.data._data)
            if arg.is_indirect:
                self._flat.append(arg.map.values if arg.is_vector
                                  else arg.map.column(arg.idx))
        self._native_signature = tuple(native)
        self._signature = tuple(sig[:3] if sig[0] == "gbl" else sig[:5]
                                for sig in native)
        #: hoisting scratch and invariant caches, by key
        self._scratch: dict[tuple, np.ndarray] = {}
        #: indices of non-const READ Globals
        self.global_reads = tuple(i for i, a in enumerate(args)
                                  if a.is_global and a.access is Access.READ
                                  and not a.data.const)
        #: dats with halo entries a run leaves stale
        self._stale_after = tuple(
            a.data for a in args
            if a.is_dat and a.access in WRITING
            and a.data.set.total_size != a.data.set.size)

        self._fingerprint: tuple | None = None
        #: halo reads, ``(dat, scope)`` (:func:`loop_halo_reads`)
        self._reads: list[tuple] = []
        #: backend name -> (owned-range call, exec-halo call or None),
        #: each ``(fn, argv)``
        self._launches: dict[str, tuple] = {}
        #: ``(Global, storage)`` of each READ Global the launches bound
        self._bound_reads: list[tuple] = []
        self._reductions: ReductionBuffers | None = None
        self._discarded: ReductionBuffers | None = None

    # -- loop characterization ------------------------------------------
    def signature(self) -> tuple:
        """Hashable per-arg descriptor tuple driving numpy code generation.

        The 5-column projection of :meth:`native_signature`: numpy
        wrappers receive an indirect argument's map column as a
        pre-sliced array, so the column index is not part of their key.
        """
        return self._signature

    def native_signature(self) -> tuple:
        """Signature extended for compiled codegen.

        The compiled native wrapper indexes the full contiguous map
        table in C (``m[n * arity + idx]``, the strided column view has
        no zero-copy pointer), so its cache key and codegen need the
        index: dat entries carry a sixth element (``None`` for direct
        and vector arguments). The seventh is the index of the first
        argument bound to the same dat, which tells the hoisting
        analysis (:mod:`~repro.op2.codegen.hoist`) which arguments
        share a dat and whether a read dat is also written. The eighth
        says whether the dat is frozen (:meth:`Dat.freeze`), and Global
        entries carry a fourth, whether the Global is const: what the
        analysis may compute once per binding.
        """
        return self._native_signature

    def hoist_scratch(self, members: tuple[int, ...],
                      width: int) -> np.ndarray:
        """The ``(total_size, width)`` scratch array of the hoisting
        group of arguments ``members``, kept for the loop's lifetime
        (prepared backend calls hold its address). Only rows a
        pre-pass covered hold values."""
        key = (members, width)
        scratch = self._scratch.get(key)
        if scratch is None:
            target = (self.args[members[0]].data.set if members
                      else self.iterset)
            scratch = self._scratch[key] = np.empty((target.total_size,
                                                     width))
        return scratch

    def invariant_cache(self, width: int) -> np.ndarray:
        """The per-element invariant cache: one row per element."""
        return self.hoist_scratch((), width)

    def cache_fill(self, start: int, end: int) -> np.ndarray:
        """Elements [start, end)'s fill flag: 1 until a compiled run
        filled their invariant caches."""
        return self._scratch.setdefault(("fill", start, end),
                                        np.ones(1, dtype=np.int64))

    def flatten_bindings(self, reductions: ReductionBuffers) -> list:
        """Runtime arrays in the order generated wrappers expect.

        Dat storage (``Dat._data`` is assigned only at construction)
        and map columns come from the bind-time layout; each Global
        slot is filled per call — a reduction's partial buffer from
        ``reductions``, a READ Global's current storage.
        """
        flat = self._flat.copy()
        args = self.args
        for slot, i, is_reduction in self._global_slots:
            flat[slot] = (reductions.buffer_for(i) if is_reduction
                          else args[i].data._data)
        return flat

    # -- running ---------------------------------------------------------
    def run(self) -> None:
        """Run the loop: refresh the halos it reads, then compute."""
        cfg = current_config()
        # sanitize mode audits every loop, overriding every backend choice
        execute_loop(self, "sanitizer" if cfg.sanitize
                     else self.backend or cfg.backend)

    def _rebind(self, cfg, fingerprint: tuple) -> None:
        """Adopt a configuration: resolve the halo reads, drop the
        prepared backend calls."""
        self._fingerprint = fingerprint
        self._launches.clear()
        self._reads = loop_halo_reads(self, cfg)

    def _prepare(self, backend_name: str) -> tuple:
        """Prepare the backend calls of one backend (first run under it,
        or after a rebind or a READ Global's storage changed)."""
        backend = resolve_backend(backend_name)
        if self._reductions is None:
            self._reductions = ReductionBuffers(self.args)
            self._discarded = ReductionBuffers(self.args)
        if not self._launches:
            self._bound_reads = [(self.args[i].data, self.args[i].data._data)
                                 for i in self.global_reads]
        prepare = getattr(backend, "prepare", None)
        if prepare is None:  # any backend: its per-call entry point
            def prepare(loop, start, end, reductions):
                return backend.execute, [loop, start, end, reductions]
        iterset = self.iterset
        owned = prepare(self, 0, iterset.size, self._reductions)
        halo = None
        if iterset.exec_size > iterset.size and self.has_indirect_writes:
            halo = prepare(self, iterset.size, iterset.exec_size,
                           self._discarded)
        launches = self._launches[backend_name] = (owned, halo)
        return launches

    def _refresh_halos(self, cfg) -> None:
        """Forward-exchange every stale dat the loop will read from
        halos; stale dats sharing a set and scope travel in one
        exchange."""
        groups: dict[tuple[int, str], tuple] = {}
        for dat, scope in self._reads:
            if not dat.is_fresh_for(scope):
                groups.setdefault((id(dat.set), scope),
                                  (dat.set, scope, []))[2].append(dat)
        for sset, scope, dats in groups.values():
            exchange_halos(sset, dats, scope=scope, grouped=cfg.grouped_halos)

    def _mark_written_stale(self) -> None:
        for dat in self._stale_after:
            dat.fresh_for = None


def execute_loop(loop: BoundLoop, backend_name: str) -> None:
    """Run one loop under ``backend_name`` — the one compute sequence
    of the runtime: halo refresh, owned range, exec halo. Redundant
    exec-halo execution folds into the loop's discarded reduction
    buffer so global reductions count every element exactly once.

    When a recorder is bound the loop records an ``op2.halo`` span over
    its halo refresh (if it made one) and an ``op2.compute`` span over
    the rest, both named after its kernel — the only record of
    per-kernel time (:func:`~repro.telemetry.recorder.loop_stats`).
    """
    cfg = current_config()
    rec = active_recorder()
    t0 = t_halo = time.perf_counter() if rec is not None else 0.0
    fingerprint = (cfg.partial_halos, cfg.check_access)
    if fingerprint != loop._fingerprint:
        loop._rebind(cfg, fingerprint)
    iterset = loop.iterset
    halo = iterset.halo
    if halo is not None:
        loop._refresh_halos(cfg)
        if rec is not None:
            t_halo = time.perf_counter()

    for g, storage in loop._bound_reads:
        if g._data is not storage:  # Global.data = ... rebound it
            loop._launches.clear()
            break
    launches = loop._launches.get(backend_name) or loop._prepare(backend_name)
    reductions = loop._reductions
    if reductions.buffers:
        reductions.reset()
    fn, argv = launches[0]
    fn(*argv)
    if launches[1] is not None:
        fn, argv = launches[1]
        fn(*argv)
    loop._mark_written_stale()
    if reductions.buffers:
        reductions.finalize(halo.comm if halo is not None else None)
    if rec is not None:
        t1 = time.perf_counter()
        name = loop.kernel.name
        if t_halo > t0:
            rec.add_span(name, "op2.halo", t0, t_halo)
        rec.add_span(name, "op2.compute", t_halo, t1, elements=iterset.size)


#: bind() registry: ``(id(kernel), id(iterset), backend, *ids of args)``
#: -> BoundLoop. Weak: an entry lives as long as its caller keeps the
#: loop, which also keeps every object whose id is in the key alive.
_bound: "weakref.WeakValueDictionary[tuple, BoundLoop]" = \
    weakref.WeakValueDictionary()


def bind(kernel: Kernel, iterset: Set, *args: Arg,
         backend: str | None = None) -> BoundLoop:
    """Bind a parallel loop once, to run it many times.

    Validates the loop and returns a :class:`BoundLoop` whose
    :meth:`~BoundLoop.run` executes it with no re-validation: the
    per-run cost is a halo freshness check and one backend call per
    executed range. Binding the same kernel, set,
    backend and :class:`Arg` *objects* again returns the same loop, and
    :func:`par_loop` called with those objects runs it — so a caller
    that keeps its ``Arg`` objects and its bound loop gets bind-once
    behaviour through either entry point. The binding is dropped with
    the last reference to the loop.
    """
    key = (id(kernel), id(iterset), backend, *map(id, args))
    loop = _bound.get(key)
    if loop is None:
        loop = BoundLoop(kernel, iterset, list(args), backend)
        _bound[key] = loop
    return loop


class LoopSites:
    """A program's call sites, ``name -> (kernel, set, *args)``, each
    bound on its first run (binding parses the kernel) and kept.
    :meth:`run` runs a site through ``repro.op2.par_loop``, looked up
    per call, so code that interposes on it sees every loop."""

    def __init__(self, sites: dict[str, tuple],
                 backend: str | None = None) -> None:
        import repro.op2

        self._op2 = repro.op2
        self.sites = sites
        self.backend = backend
        #: call-site name -> its loop, bound on the site's first run
        self.loops: dict[str, BoundLoop] = {}

    def run(self, name: str) -> None:
        """Run call site ``name``'s loop."""
        loop = self.loops.get(name)
        if loop is None:
            loop = self.loops[name] = bind(*self.sites[name],
                                           backend=self.backend)
        self._op2.par_loop(loop.kernel, loop.iterset, *loop.args,
                           backend=loop.backend)


def par_loop(kernel: Kernel, iterset: Set, *args: Arg,
             backend: str | None = None) -> None:
    """Declare a parallel loop (OP2's ``op_par_loop``): ``bind(...).run()``.

    Executes immediately. Arguments that a live :func:`bind` bound
    run through that binding; any others are bound for this one call
    and leave nothing behind.

    Parameters
    ----------
    kernel:
        The elemental :class:`~repro.op2.kernel.Kernel`; its positional
        parameters pair up with ``args``.
    iterset:
        The set iterated over.
    args:
        One :class:`~repro.op2.args.Arg` per kernel parameter, built
        via ``dat.arg(access, map, idx)`` / ``global_.arg(access)``.
    backend:
        Override the configured compute backend for this loop.
    """
    loop = _bound.get((id(kernel), id(iterset), backend, *map(id, args)))
    if loop is None:
        loop = BoundLoop(kernel, iterset, list(args), backend)
    loop.run()
