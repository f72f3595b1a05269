"""Sequential backend: the generated scalar reference loop."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.op2.access import Access
from repro.op2.backends.base import ReductionBuffers
from repro.op2.codegen.seq import compile_wrapper, generate_sequential
from repro.op2.config import current_config

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.parloop import ParLoop


class SequentialBackend:
    """Element-by-element execution calling the original kernel function.

    This is the semantic reference: every other backend's results are
    tested against it. The wrapper (gather views, call kernel, scatter
    staged vector args) is generated and cached per loop signature,
    mirroring OP2's "seq" code path.
    """

    name = "sequential"

    def execute(self, loops: "list[ParLoop]", start: int, end: int,
                reductions: list[ReductionBuffers]) -> None:
        check_access = current_config().check_access
        for loop, red in zip(loops, reductions):
            signature = loop.signature()
            key = ("seq", signature)
            wrapper = loop.kernel.cached(key)
            if wrapper is None:
                source = generate_sequential(loop.kernel.name, signature)
                wrapper = compile_wrapper(source, loop.kernel.name)
                loop.kernel.store(key, wrapper, source)
            flat = loop.flatten_bindings(red)
            if check_access:
                flat = _readonly_read_args(loop, flat)
            wrapper(np, loop.kernel.scalar_fn, start, end, *flat)


def _readonly_read_args(loop: "ParLoop", flat: list) -> list:
    """Replace READ dat storage with read-only views (debug mode).

    A kernel that writes through a READ argument then raises
    ``ValueError: assignment destination is read-only`` instead of
    silently corrupting shared data — the access-descriptor contract
    made enforceable.
    """
    out = list(flat)
    pos = 0
    for arg in loop.args:
        if arg.is_global:
            pos += 1
            continue
        if arg.access is Access.READ:
            view = out[pos].view()
            view.flags.writeable = False
            out[pos] = view
        pos += 1
        if arg.is_indirect:
            pos += 1
    return out
