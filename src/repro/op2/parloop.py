"""The par_loop frontend: validation, dispatch, and MPI orchestration.

``par_loop(kernel, iterset, *args)`` is the single entry point of the
DSL (the paper's ``op_par_loop``). It validates the argument list,
derives the loop *signature* that drives code generation, and executes
through the configured backend. For distributed sets it additionally
performs the paper's owner-compute protocol:

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

from repro.op2.access import Access, READING, WRITING
from repro.op2.args import Arg
from repro.op2.backends import ReductionBuffers, resolve_backend
from repro.op2.config import current_config
from repro.op2.dat import Dat
from repro.op2.halo import exchange_halos, resolve_eager_scope
from repro.op2.kernel import Kernel
from repro.op2.set import Set
from repro.telemetry.recorder import active_recorder


def loop_halo_reads(loop: "ParLoop", cfg) -> dict[int, tuple]:
    """Per-dat halo scopes ``loop`` reads: ``id(dat) -> (dat, {scopes})``.

    The single scope-selection rule shared by eager execution and the
    chain analyzer (which must mirror it exactly for elision to be
    sound). Under ``Config.partial_halos`` an indirect read needs the
    map's scope at the depth the execution extent requires: the full
    per-map scope (owned+exec rows) when the loop executes redundantly
    over the exec halo, only the ``@own`` depth-1 scope (owned rows)
    otherwise. Direct reads need the exec region exactly when the loop
    executes it.

    Scope choices key off :attr:`ParLoop.has_indirect_writes` — a
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
    return needs


def eager_exchanges(needs: dict[int, tuple], is_fresh) -> list[tuple]:
    """The ``(set, scope, stale dats)`` exchanges an eager loop makes.

    ``needs`` is :func:`loop_halo_reads` of the loop and
    ``is_fresh(dat, scope)`` the freshness predicate — the live
    :meth:`Dat.is_fresh_for` when executing, a simulated marker when
    the chain predicts its eager baseline. Each dat needs one scope
    (:func:`~repro.op2.halo.resolve_eager_scope`); stale dats sharing
    a set and scope travel in one exchange.
    """
    groups: dict[tuple[int, str], tuple] = {}
    for dat, scopes in needs.values():
        scope = resolve_eager_scope(scopes)
        if not is_fresh(dat, scope):
            groups.setdefault((id(dat.set), scope),
                              (dat.set, scope, []))[2].append(dat)
    return list(groups.values())


class ParLoop:
    """A validated parallel loop over ``iterset``."""

    def __init__(self, kernel: Kernel, iterset: Set, args: list[Arg]) -> None:
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
        self.kernel = kernel
        self.iterset = iterset
        self.args = args

    # -- loop characterization ------------------------------------------
    @property
    def has_indirect_writes(self) -> bool:
        return any(
            a.is_indirect and a.access in (Access.INC, Access.WRITE)
            for a in self.args
        )

    def signature(self) -> tuple:
        """Hashable per-arg descriptor tuple driving numpy code generation.

        The 5-column projection of :meth:`native_signature`: numpy
        wrappers receive an indirect argument's map column as a
        pre-sliced array, so the column index is not part of their key.
        """
        return tuple(sig if sig[0] == "gbl" else sig[:5]
                     for sig in self.native_signature())

    def native_signature(self) -> tuple:
        """Signature extended with map indices, for compiled codegen.

        The compiled native wrapper indexes the full contiguous map
        table in C (``m[n * arity + idx]``, the strided column view has
        no zero-copy pointer), so its cache key and codegen need the
        index: dat entries carry a sixth element (``None`` for direct
        and vector arguments).
        """
        sig = []
        for arg in self.args:
            if arg.is_global:
                sig.append(("gbl", arg.access, arg.dim))
            else:
                addressing = ("direct" if arg.is_direct
                              else "all" if arg.is_vector else "idx")
                arity = arg.map.arity if arg.map is not None else 0
                idx = arg.idx if (arg.is_indirect
                                  and not arg.is_vector) else None
                sig.append(("dat", arg.access, addressing, arg.dim, arity,
                            idx))
        return tuple(sig)

    #: plan-cached (template, patches) installed by the chain executor
    _flat_template = None

    def flatten_bindings(self, reductions: ReductionBuffers) -> list:
        """Runtime arrays in the order generated wrappers expect."""
        tmpl = self._flat_template
        if tmpl is not None:
            # executor fast path: dat arrays and map columns come from the
            # flush plan (identity-validated there); only Global slots are
            # dynamic — reduction buffers are per-call and Global._data may
            # be rebound by host writes between flushes
            flat, patches = tmpl
            flat = flat.copy()
            for slot, i, is_red in patches:
                flat[slot] = (reductions.buffer_for(i) if is_red
                              else self.args[i].data._data)
            return flat
        flat = []
        for i, arg in enumerate(self.args):
            if arg.is_global:
                if arg.is_reduction:
                    flat.append(reductions.buffer_for(i))
                else:
                    flat.append(arg.data.data)
            else:
                flat.append(arg.data.data_with_halos)
                if arg.is_indirect:
                    if arg.is_vector:
                        flat.append(arg.map.values)
                    else:
                        flat.append(arg.map.column(arg.idx))
        return flat

    def binding_template(self) -> tuple[list, list]:
        """Precompute :meth:`flatten_bindings` for repeated execution.

        Returns ``(template, patches)``: the flat list with every
        statically-bound array filled in (``Dat._data`` is assigned only
        at construction; ``Map.values`` is immutable) and a patch list
        ``(slot, arg index, is_reduction)`` for the Global slots that
        must be rebound on every call. Valid exactly as long as the
        loop's dat/map bindings are — which is what the chain's flush
        plan re-validates by identity before reusing one.
        """
        flat: list = []
        patches: list = []
        for i, arg in enumerate(self.args):
            if arg.is_global:
                patches.append((len(flat), i, arg.is_reduction))
                flat.append(None)
            else:
                flat.append(arg.data._data)
                if arg.is_indirect:
                    if arg.is_vector:
                        flat.append(arg.map.values)
                    else:
                        flat.append(arg.map.column(arg.idx))
        return flat, patches

    # -- execution --------------------------------------------------------
    def execute(self, backend_name: str | None = None) -> None:
        """Run eagerly: refresh the halos this loop reads, then compute."""
        cfg = current_config()
        if cfg.sanitize:  # sanitize mode audits every loop, overrides all
            backend_name = "sanitizer"
        execute_loop(self, backend_name or cfg.backend, refresh_halos=True)

    def _refresh_halos(self, cfg) -> None:
        """Forward-exchange every stale dat the loop will read from halos."""
        for sset, scope, dats in eager_exchanges(loop_halo_reads(self, cfg),
                                                 Dat.is_fresh_for):
            exchange_halos(sset, dats, scope=scope, grouped=cfg.grouped_halos)

    def _mark_written_stale(self) -> None:
        for arg in self.args:
            if arg.is_dat and arg.access in WRITING:
                arg.data.mark_halo_stale()


def execute_loop(loop: ParLoop, backend_name: str,
                 refresh_halos: bool = False) -> None:
    """Run one loop — the one compute sequence of the runtime.

    An eager ``par_loop`` calls this with ``refresh_halos`` set; a chain
    flush calls it for each pending loop in program order, with the
    loop's exchanges already scheduled or elided by the analyzer.
    Redundant exec-halo execution folds into a discarded scratch
    reduction buffer so global reductions count every element exactly
    once.

    When a recorder is bound the loop records an ``op2.halo`` span over
    its halo refresh (if it made one) and an ``op2.compute`` span over
    the rest, both named after its kernel — the only record of
    per-kernel time (:func:`~repro.telemetry.recorder.loop_stats`).
    """
    cfg = current_config()
    backend = resolve_backend(backend_name)
    rec = active_recorder()
    t0 = t_halo = time.perf_counter() if rec is not None else 0.0
    iterset = loop.iterset
    halo = iterset.halo
    if refresh_halos and halo is not None:
        loop._refresh_halos(cfg)
        if rec is not None:
            t_halo = time.perf_counter()

    reductions = ReductionBuffers(loop.args)
    backend.execute(loop, 0, iterset.size, reductions)
    if iterset.exec_size > iterset.size and loop.has_indirect_writes:
        backend.execute(loop, iterset.size, iterset.exec_size,
                        ReductionBuffers(loop.args))
    loop._mark_written_stale()
    reductions.finalize(halo.comm if halo is not None else None)
    if rec is not None:
        t1 = time.perf_counter()
        name = loop.kernel.name
        if t_halo > t0:
            rec.add_span(name, "op2.halo", t0, t_halo)
        rec.add_span(name, "op2.compute", t_halo, t1, elements=iterset.size)


def par_loop(kernel: Kernel, iterset: Set, *args: Arg,
             backend: str | None = None) -> None:
    """Declare a parallel loop (OP2's ``op_par_loop``).

    Executes immediately in eager mode; under ``Config.lazy`` or an
    open :func:`~repro.op2.chain.loop_chain` the validated loop is
    enqueued instead and runs when the chain flushes — with its halo
    exchanges elided or batched across loops, its results bitwise
    equal to eager execution.

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
    from repro.op2 import chain

    loop = ParLoop(kernel, iterset, list(args))
    if chain.submit(loop, backend):
        return
    loop.execute(backend)
