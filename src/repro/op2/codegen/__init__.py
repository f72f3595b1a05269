"""OP2 code generation: one scalar kernel source → many parallelizations.

This package is the analogue of the paper's Python/Clang code-generation
tool-chain (Fig. 4). Given a kernel and a par_loop *signature* (how each
argument is addressed and accessed), it emits specialized, human-readable
source — a scalar gather/call Python loop for the sequential backend, a
numpy whole-array translation with gather/compute/scatter staging for
the vectorized and sanitizer backends, and a compilable C wrapper
(:func:`~repro.op2.codegen.csource.generate_native`) running the
block-color plan for the native backend — then compiles and caches it
on the kernel. Every generator works per *loop*.
"""

from repro.op2.codegen.csource import generate_native
from repro.op2.codegen.seq import generate_sequential
from repro.op2.codegen.vector import generate_vectorized

__all__ = ["generate_sequential", "generate_vectorized", "generate_native"]
