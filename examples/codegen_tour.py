"""Code-generation tour: one kernel source, every generated code path.

The paper's Fig. 4 workflow: the high-level `op_par_loop` declaration
is parsed and specialized into concrete parallel code per target. This
script prints the *actual generated source* for mini-Hydra's edge-flux
kernel under each backend — the sequential gather/call wrapper, the
vectorized wrapper with its atomic scatter (which the sanitizer also
runs, block by block of the plan), and the C wrapper the native
backend compiles (the paper's OpenMP block-color plan) —
exactly the "human readable generated code" the paper describes — and
the wrapper of the blade-force kernel, whose set-up-fixed term the
compiled code computes once per binding instead of on every call.

Run:  python examples/codegen_tour.py
"""

from repro import op2
from repro.hydra.kernels import blade_force, flux_edge
from repro.op2.codegen.csource import generate_native
from repro.op2.codegen.seq import generate_sequential
from repro.op2.codegen.vector import generate_vectorized

# the loop signature of mini-Hydra's hot loop: two indirect state reads,
# the edge-weight read, two indirect residual increments, one constant
SIGNATURE = (
    ("dat", op2.READ, "idx", 5, 2),
    ("dat", op2.READ, "idx", 5, 2),
    ("dat", op2.READ, "direct", 3, 0),
    ("dat", op2.INC, "idx", 5, 2),
    ("dat", op2.INC, "idx", 5, 2),
    ("gbl", op2.READ, 1),
)
#: the compiled wrappers index the full map table, so their signature
#: also names each indirect argument's map column
NATIVE_SIGNATURE = (
    ("dat", op2.READ, "idx", 5, 2, 0),
    ("dat", op2.READ, "idx", 5, 2, 1),
    ("dat", op2.READ, "direct", 3, 0, None),
    ("dat", op2.INC, "idx", 5, 2, 0),
    ("dat", op2.INC, "idx", 5, 2, 1),
    ("gbl", op2.READ, 1),
)


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def blade_force_binding() -> op2.BoundLoop:
    """``blade_force`` bound as the solver binds it: node coordinates
    and volumes frozen after set-up, the blade parameters const. Only a
    binding knows that, so only its signature lets the compiled wrapper
    cache ``cos(k y)`` per node instead of evaluating it on every call."""
    nodes = op2.Set(4, "nodes")
    q, res = op2.Dat(nodes, 5, name="q"), op2.Dat(nodes, 5, name="res")
    xyz = op2.Dat(nodes, 3, name="xyz").freeze()
    vol = op2.Dat(nodes, 1, name="vol").freeze()
    prm = op2.Global(5, [0.5, 0.2, 0.1, 6.0, 0.3], "bladeprm", const=True)
    return op2.bind(op2.Kernel(blade_force), nodes, q.arg(op2.READ),
                    xyz.arg(op2.READ), vol.arg(op2.READ), res.arg(op2.INC),
                    prm.arg(op2.READ))


def main() -> None:
    kernel = op2.Kernel(flux_edge)
    blade = blade_force_binding()

    banner("THE SCIENCE SOURCE — one scalar elemental kernel "
           "(no parallelism anywhere)")
    print(kernel.source)

    banner("GENERATED: sequential backend (gather views, call the kernel)")
    print(generate_sequential(kernel.name, SIGNATURE))

    banner("GENERATED: vectorized and sanitizer backends, ATOMIC scatter "
           "(np.add.at — correct under any conflicts)")
    print(generate_vectorized(kernel, SIGNATURE))

    banner("GENERATED: native backend, compiled C over the block-color "
           "plan (the paper's OpenMP strategy)")
    print(generate_native(kernel, NATIVE_SIGNATURE))
    print("(the paper's CUDA strategy, chunked #pragma omp atomic "
          "increments, is a test oracle: tests/oracles/compiled.py)")

    banner("GENERATED: native backend, set-up-fixed values computed once "
           "per binding (blade_force)")
    print(generate_native(blade.kernel, blade.native_signature()))


if __name__ == "__main__":
    main()
