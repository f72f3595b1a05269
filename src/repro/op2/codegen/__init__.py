"""OP2 code generation: one scalar kernel source → many parallelizations.

This package is the analogue of the paper's Python/Clang code-generation
tool-chain (Fig. 4). Given a kernel and a par_loop *signature* (how each
argument is addressed and accessed), it emits specialized, human-readable
Python source — a scalar gather/call loop for the sequential backend, or
a numpy whole-array translation with gather/compute/scatter staging for
the vectorized, coloring and atomics (CUDA-analogue) backends — then
compiles and caches it on the kernel. There is one generator per
backend family and each is per *loop*, the compiled C generator
(:func:`~repro.op2.codegen.csource.generate_native`) included.
"""

from repro.op2.codegen.csource import generate_cuda, generate_openmp
from repro.op2.codegen.seq import generate_sequential
from repro.op2.codegen.vector import generate_vectorized

__all__ = ["generate_sequential", "generate_vectorized",
           "generate_cuda", "generate_openmp"]
