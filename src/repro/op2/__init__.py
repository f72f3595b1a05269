"""repro.op2 — an OP2-style DSL for unstructured-mesh computations.

Declares a problem as sets, maps (connectivity), dats (data on sets)
and Globals, and executes computation as parallel loops over sets with
per-argument access descriptors. A real code-generation layer turns
each scalar elemental kernel into specialized source per backend
(sequential reference, vectorized/SIMD numpy, and compiled C under the
paper's OpenMP block-color plan), and the distribution machinery runs
the same loops over
simulated-MPI ranks with owner-compute redundant execution and halo
exchanges.

Quick example::

    from repro import op2

    nodes = op2.Set(4, "nodes")
    edges = op2.Set(3, "edges")
    pedge = op2.Map(edges, nodes, 2, [[0, 1], [1, 2], [2, 3]], "pedge")
    val = op2.Dat(nodes, 1, data=[[1.0], [2.0], [3.0], [4.0]], name="val")
    acc = op2.Dat(nodes, 1, name="acc")

    def spread(v1, v2, a1, a2):
        a1[0] += v2[0]
        a2[0] += v1[0]

    op2.par_loop(op2.Kernel(spread), edges,
                 val.arg(op2.READ, pedge, 0), val.arg(op2.READ, pedge, 1),
                 acc.arg(op2.INC, pedge, 0), acc.arg(op2.INC, pedge, 1))
"""

from repro.op2.access import INC, MAX, MIN, READ, RW, WRITE, Access
from repro.op2.args import Arg
from repro.op2.backends import BACKENDS, resolve_backend
from repro.op2.config import Config, configure, current_config, set_config, set_default_config
from repro.op2.dat import Dat, FrozenError
from repro.op2.distribute import (
    GlobalProblem,
    LocalProblem,
    RankLayout,
    build_local_problem,
    build_serial_problem,
    derive_owner_from_map,
    gather_dat,
    plan_distribution,
)
from repro.op2.globals import Global
from repro.op2.halo import ExchangePlan, SetHalo, exchange_halos
from repro.op2.kernel import Kernel, KernelParseError
from repro.op2.map import ALL, Map
from repro.op2.parloop import BoundLoop, LoopSites, bind, par_loop
from repro.op2.plan import (
    BlockPlan,
    build_block_plan,
    clear_plan_cache,
)
from repro.op2.set import Set

__all__ = [
    # access
    "Access", "READ", "WRITE", "RW", "INC", "MIN", "MAX",
    # data model
    "Set", "Map", "ALL", "Dat", "Global", "Arg", "FrozenError",
    # kernels & loops
    "Kernel", "KernelParseError", "BoundLoop", "LoopSites", "bind",
    "par_loop",
    # plans
    "BlockPlan", "build_block_plan", "clear_plan_cache",
    # backends & config
    "BACKENDS", "resolve_backend", "Config", "configure",
    "current_config", "set_config", "set_default_config",
    # distribution
    "GlobalProblem", "LocalProblem", "RankLayout", "plan_distribution",
    "build_local_problem", "build_serial_problem", "derive_owner_from_map", "gather_dat",
    "SetHalo", "ExchangePlan", "exchange_halos",
]


# Inert stand-ins for the removed lazy loop chain: every par_loop runs
# when it is called. The frozen end-to-end harness
# (benchmarks/e2e/probes.py and workloads.py) still passes ``lazy=``
# (``Config.lazy``, ``CoupledRunConfig.lazy``: fields without effect)
# and calls these three; all of it goes with ROADMAP item 1(a).
class _ChainStats:
    def as_dict(self) -> dict:
        return {"fused": 0, "halo_elided": 0, "flushes": 0}


def flush_chain() -> None:
    """No-op."""


def reset_chain_stats() -> None:
    """No-op."""


def chain_stats() -> _ChainStats:
    """All-zero counters."""
    return _ChainStats()
