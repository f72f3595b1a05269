"""Sequential backend code generation.

Emits the classic OP2 "seq" wrapper: a scalar loop that gathers
per-element views (direct slice, map-indexed slice, or staged
vector-argument block), calls the *original* user kernel, and scatters
any staged results back. This is the reference semantics every other
backend must reproduce.

Wrapper calling convention (shared with the vectorized generators)::

    wrapper(_np, _kernel, _start, _end, *flat)

where ``flat`` contains, per argument, the arrays listed by
``BoundLoop.flatten_bindings``: the dat storage array (plus its map
column/rows for indirect args), the Global data array (READ), or a
neutral-initialized partial reduction buffer.
"""

from __future__ import annotations

from typing import Sequence

from repro.op2.access import Access


def generate_sequential(kernel_name: str, signature: Sequence[tuple]) -> str:
    """Return wrapper source for a loop with the given arg signature.

    ``signature`` holds one tuple per argument:
    ``("dat", access, addressing, dim, arity)`` with addressing in
    ``{"direct", "idx", "all"}``, or ``("gbl", access, dim)``.
    """
    params: list[str] = []
    pre: list[str] = []     # per-element staging before the kernel call
    call: list[str] = []    # kernel actual arguments
    post: list[str] = []    # per-element write-back after the call

    for i, sig in enumerate(signature):
        kind = sig[0]
        if kind == "gbl":
            params.append(f"_g{i}")
            call.append(f"_g{i}")
            continue
        _, access, addressing, _dim, _arity = sig
        params.append(f"_a{i}")
        if addressing == "direct":
            call.append(f"_a{i}[_e]")
        elif addressing == "idx":
            params.append(f"_m{i}")
            call.append(f"_a{i}[_m{i}[_e]]")
        elif addressing == "all":
            # fancy indexing copies, so vector args are staged explicitly
            params.append(f"_m{i}")
            if access is Access.INC:
                pre.append(f"_t{i} = _np.zeros_like(_a{i}[_m{i}[_e]])")
                post.append(f"_np.add.at(_a{i}, _m{i}[_e], _t{i})")
            else:
                pre.append(f"_t{i} = _a{i}[_m{i}[_e]]")
                if access in (Access.WRITE, Access.RW):
                    post.append(f"_a{i}[_m{i}[_e]] = _t{i}")
            call.append(f"_t{i}")
        else:  # pragma: no cover - signature is runtime-built
            raise ValueError(f"unknown addressing {addressing!r}")

    body: list[str] = [f"for _e in range(_start, _end):"]
    inner = pre + [f"_kernel({', '.join(call)})"] + post
    body.extend(f"    {line}" for line in inner)

    lines = [
        f"def {kernel_name}_seq_wrapper(_np, _kernel, _start, _end, "
        f"{', '.join(params)}):",
        f'    """Generated sequential (reference) wrapper for {kernel_name}."""',
    ]
    lines.extend(f"    {line}" for line in body)
    return "\n".join(lines) + "\n"


def compile_wrapper(source: str, name: str):
    """Compile generated wrapper source and return the function object."""
    namespace: dict = {}
    code = compile(source, filename=f"<op2-generated:{name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    fns = [v for k, v in namespace.items() if callable(v) and not k.startswith("__")]
    if len(fns) != 1:  # pragma: no cover - generator always emits one def
        raise RuntimeError(f"generated module for {name} defined {len(fns)} functions")
    return fns[0]
