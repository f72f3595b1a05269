"""Layer probes of the traced pass: each layer timed from outside.

Every probe calls public functions of one module at the workload's own
sizes and returns ``{metric name: value}``. Nothing here is part of an
end-to-end metric; the probes say where a change in ``step_s`` or
``setup_s`` should show (README.md lists which layer should move which
metric on which workload).

Timings are medians over a few calls after one warm-up call; counts
come from the program's own counters and must repeat exactly.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro import op2
from repro.coupler import CoupledDriver, CUTransferEngine
from repro.hydra.problem import row_owners, row_problem
from repro.hydra.solver import HydraSolver, Numerics
from repro.mesh import rig250_config
from repro.mesh.annulus import make_row_mesh
from repro.op2.distribute import (build_local_problem, build_serial_problem,
                                  plan_distribution)
from repro.resilience import CheckpointManager, latest_valid_checkpoint
from repro.smpi import run_ranks

TRANSPORTS = ("thread", "process")
#: p2p payload sizes: an 80 B control-sized message (pickled) and a
#: 1 MiB array (above the process transport's 64 KiB shm threshold)
P2P_SIZES = {"80B": 10, "1MiB": 131072}


def median_seconds(fn, reps: int = 5, warmup: int = 1, before=None) -> float:
    """Median wall of ``fn()``; ``before()`` runs untimed ahead of each call."""
    times = []
    for _ in range(warmup + reps):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times[warmup:])


# -- set-up layers ---------------------------------------------------------

def setup_layers(cfg) -> dict:
    """mesh.build_s and op2.distribute.plan_s, as the driver pays them."""
    rig = cfg.rig
    t0 = time.perf_counter()
    meshes = [make_row_mesh(row) for row in rig.rows]
    t1 = time.perf_counter()
    for row, mesh, nranks in zip(rig.rows, meshes, cfg.ranks_of()):
        gp = row_problem(mesh, cfg.inlet.shifted_frame(row.wheel_speed))
        if nranks > 1:
            owners = row_owners(mesh, gp, nranks, cfg.partition_scheme)
            plan_distribution(gp, nranks, owners)
    t2 = time.perf_counter()
    return {"mesh.build_s": t1 - t0, "op2.distribute.plan_s": t2 - t1}


def _noop(comm) -> None:
    return None


def launch(world_size: int) -> dict:
    """smpi.launch_s.*: start and join ``world_size`` idle ranks."""
    return {
        f"smpi.launch_s.{transport}": median_seconds(
            lambda: run_ranks(world_size, _noop, transport=transport),
            reps=3)
        for transport in TRANSPORTS}


# -- one row, serial and on two ranks ----------------------------------------

def row_nodes(row) -> int:
    """A row's node count, sliding-plane halo layers included."""
    return row.n_nodes + (row.halo_in + row.halo_out) * row.nr * row.nt


def largest_row(cfg) -> int:
    rows = cfg.rig.rows
    return max(range(len(rows)), key=lambda i: row_nodes(rows[i]))


def _row_global_problem(cfg, rig, row_idx: int):
    row = rig.rows[row_idx]
    mesh = make_row_mesh(row)
    return mesh, row_problem(mesh, cfg.inlet.shifted_frame(row.wheel_speed))


def _row_solver(cfg, rig, row_idx: int, local, backend: str) -> HydraSolver:
    row = rig.rows[row_idx]
    inlet = None if row.halo_in else cfg.inlet.shifted_frame(row.wheel_speed)
    p_out = None if row.halo_out else cfg.p_out
    return HydraSolver(local, row, Numerics(backend=backend),
                       dt_outer=rig.dt_outer, inlet=inlet, p_out=p_out)


def serial_solver(cfg, backend: str, minimal: bool = False) -> HydraSolver:
    """One row, one rank, no coupler: the plain baseline problem."""
    if minimal:
        rig, row_idx = rig250_config(nr=2, nt=3, nx=2, rows=1), 0
    else:
        rig, row_idx = cfg.rig, largest_row(cfg)
    _mesh, gp = _row_global_problem(cfg, rig, row_idx)
    return _row_solver(cfg, rig, row_idx, build_serial_problem(gp), backend)


def _recorded_loops(fn) -> list[tuple]:
    """(iteration set, args) of every par_loop ``fn`` issues.

    The one place the benchmark interposes on a program function: the
    solver calls ``op2.par_loop`` through the package attribute, so a
    recording wrapper sees each loop's sets, dims and access modes —
    what the computed byte count needs. It times nothing.
    """
    loops = []
    original = op2.par_loop

    def recording(kernel, iterset, *args, **kwargs):
        loops.append((iterset, args))
        return original(kernel, iterset, *args, **kwargs)

    op2.par_loop = recording
    try:
        fn()
    finally:
        op2.par_loop = original
    return loops


def computed_bytes(loops: list[tuple]) -> int:
    """Bytes a loop list must move, computed from sizes (no cache model).

    Per dat argument: iteration-set size x dim x 8 B, once for READ or
    WRITE and twice for INC/RW (read-modify-write); an indirect
    argument also reads its map column. Globals are free.
    """
    total = 0
    for iterset, args in loops:
        for arg in args:
            if not arg.is_dat:
                continue
            passes = 1 if arg.access in (op2.READ, op2.WRITE) else 2
            width = arg.map.arity if arg.is_vector else 1
            total += iterset.size * width * arg.dim * 8 * passes
            if arg.is_indirect:
                total += iterset.size * width * arg.map.values.itemsize
    return total


def compute_layers(cfg, backend: str, triad_gbps: float) -> dict:
    """op2.* compute metrics and the serial hydra baseline."""
    solver = serial_solver(cfg, backend)
    n_nodes = solver.nodes.size
    with op2.configure(lazy=False, partial_halos=True, grouped_halos=True):
        solver.advance_physical()       # BDF weights set, wrappers loaded
        residual_s = median_seconds(solver.spatial_residual)
        inner_s = median_seconds(solver.inner_iteration)
        loops = _recorded_loops(solver.inner_iteration)
        steps = 3
        t0 = time.perf_counter()
        solver.run(steps)
        serial_rate = n_nodes * steps / (time.perf_counter() - t0)

        tiny = serial_solver(cfg, backend, minimal=True)
        tiny.advance_physical()
        tiny_s = median_seconds(tiny.inner_iteration, reps=20)
        tiny_loops = len(_recorded_loops(tiny.inner_iteration))

    def lazy_iteration():
        solver.inner_iteration()
        op2.flush_chain()

    with op2.configure(lazy=True, partial_halos=True, grouped_halos=True):
        lazy_s = median_seconds(lazy_iteration)
        op2.flush_chain()
    op2.flush_chain()                   # retire the implicit chain

    gbps = computed_bytes(loops) / inner_s / 1e9
    return {
        "hydra.serial_node_updates_per_s": serial_rate,
        "op2.residual_s": residual_s,
        "op2.inner_iter_s": inner_s,
        "op2.inner_iter_gbps_computed": gbps,
        "op2.bw_fraction": gbps / triad_gbps,
        "op2.parloop_overhead_us": tiny_s / tiny_loops * 1e6,
        "op2.chain.lazy_over_eager": lazy_s / inner_s,
    }


def cold_start(cfg, backend: str) -> float:
    """First inner iteration minus a warm one, serial largest row.

    Call in a fresh process whose ``REPRO_CACHE_DIR`` is empty: the
    difference is code generation, compilation and wrapper loading.
    """
    solver = serial_solver(cfg, backend)
    t0 = time.perf_counter()
    solver.inner_iteration()
    first = time.perf_counter() - t0
    return first - median_seconds(solver.inner_iteration, reps=3, warmup=0)


def _two_rank_probe(comm, cfg, rig, row_idx, gp, layouts, backend, reps):
    """Rank body: local build, halo exchanges, one lazy physical step."""
    op2.set_config(partial_halos=True, grouped_halos=True, lazy=False)
    t0 = time.perf_counter()
    local = build_local_problem(gp, layouts[comm.rank], comm)
    build_s = time.perf_counter() - t0

    nodes, q = local.sets["nodes"], local.dats["q"]

    def stale_together():
        q.mark_halo_stale()
        comm.barrier()

    exchange_s = median_seconds(
        lambda: op2.exchange_halos(nodes, [q], scope="pedge", grouped=True),
        reps=reps, before=stale_together)

    # chain counters of one physical step under lazy execution
    solver = _row_solver(cfg, rig, row_idx, local, backend)
    op2.set_config(lazy=True)
    op2.reset_chain_stats()
    solver.advance_physical()
    op2.flush_chain()
    stats = op2.chain_stats().as_dict()
    op2.set_config(lazy=False)
    op2.flush_chain()
    return build_s, exchange_s, stats


def two_rank_layers(cfg, backend: str) -> dict:
    """local_build_s, halo.exchange_us.*, chain counts (largest row, 2 ranks)."""
    rig, row_idx = cfg.rig, largest_row(cfg)
    mesh, gp = _row_global_problem(cfg, rig, row_idx)
    owners = row_owners(mesh, gp, 2, cfg.partition_scheme)
    layouts = plan_distribution(gp, 2, owners)
    out = {}
    for transport in TRANSPORTS:
        reports = run_ranks(
            2, _two_rank_probe,
            args=(cfg, rig, row_idx, gp, layouts, backend, 20),
            transport=transport)
        out[f"op2.halo.exchange_us.{transport}"] = \
            max(r[1] for r in reports) * 1e6
        if transport == "thread":
            out["op2.distribute.local_build_s"] = max(r[0] for r in reports)
            stats = reports[0][2]
            out["op2.chain.fused"] = stats["fused"]
            out["op2.chain.halo_elided"] = stats["halo_elided"]
            out["op2.chain.flushes"] = stats["flushes"]
    return out


# -- smpi --------------------------------------------------------------------

def _p2p_rank(comm, payloads: dict, reps: int) -> dict:
    """Rank body: rank 0 sends, rank 1 echoes; seconds per round trip."""
    def round_trip(payload):
        if comm.rank == 0:
            comm.send(payload, dest=1, tag=1)
            comm.recv(source=1, tag=2)
        else:
            comm.send(comm.recv(source=0, tag=1), dest=0, tag=2)

    return {label: median_seconds(lambda: round_trip(payload), reps=reps,
                                  warmup=2, before=comm.barrier)
            for label, payload in payloads.items()}


def _allreduce_rank(comm, reps: int) -> float:
    return median_seconds(lambda: comm.allreduce(float(comm.rank), "sum"),
                          reps=reps, warmup=2, before=comm.barrier)


def smpi_layers(seed: int) -> dict:
    """Round-trip and allreduce latency of both transports."""
    rng = np.random.default_rng(seed)
    payloads = {label: rng.random(n) for label, n in P2P_SIZES.items()}
    out = {}
    for transport in TRANSPORTS:
        rtt = run_ranks(2, _p2p_rank, args=(payloads, 30),
                        transport=transport)[0]
        for label, seconds in rtt.items():
            out[f"smpi.p2p_rtt_us.{transport}.{label}"] = seconds * 1e6
        out[f"smpi.allreduce_us.{transport}"] = max(
            run_ranks(4, _allreduce_rank, args=(30,),
                      transport=transport)) * 1e6
    return out


# -- coupler ---------------------------------------------------------------

def coupler_engine(driver: CoupledDriver, nsteps: int, seed: int) -> dict:
    """One CU's transfer engine served over the run's step times."""
    cfg = driver.cfg
    iface = driver.interfaces[0]
    subset = driver.directions[0].cu_targets[0]
    engine = CUTransferEngine(
        iface, "up", "down", subset=subset, search_kind=cfg.search,
        incremental=cfg.incremental, interp=cfg.interp,
        native=cfg.interp_native)
    shape = iface.up.grid_shape
    donors = np.random.default_rng(seed).uniform(
        0.5, 1.5, size=(shape[0] * shape[1], 5))
    times = []
    for step in range(nsteps + 1):
        t0 = time.perf_counter()
        engine.serve(donors, step * cfg.rig.dt_outer)
        times.append(time.perf_counter() - t0)
    serve_s = statistics.median(times[1:])   # round 0 fills the donor cache
    return {"coupler.engine_serve_ms": serve_s * 1e3,
            "coupler.targets_per_s": subset.size / serve_s}


# -- resilience --------------------------------------------------------------

def checkpoint_io(cfg, workdir: Path, seed: int) -> dict:
    """Write, commit and verify one checkpoint set of the row's size."""
    n = row_nodes(cfg.rig.rows[largest_row(cfg)])
    rng = np.random.default_rng(seed)
    arrays = {name: rng.random((n, 5)) for name in ("q", "qn", "qnm1")}
    manager = CheckpointManager(workdir / "ckpt_probe", world=1)
    t0 = time.perf_counter()
    manager.prepare(1)
    manager.write_member(1, 0, **arrays)
    final = manager.commit(1)
    write_s = time.perf_counter() - t0
    nbytes = sum(f.stat().st_size for f in final.iterdir())
    t0 = time.perf_counter()
    manifest = latest_valid_checkpoint(manager.ckpt_dir)
    verify_s = time.perf_counter() - t0
    if manifest is None or manifest.step != 1:
        raise RuntimeError("checkpoint probe: committed set did not verify")
    return {"resilience.ckpt_write_mbps": nbytes / write_s / 1e6,
            "resilience.verify_s": verify_s}


# -- host --------------------------------------------------------------------

def last_level_cache_bytes() -> int:
    """Largest cache sysfs reports for cpu0 (0 when unknown)."""
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1])
        sizes.append(int(text[:-1]) * scale if scale else int(text))
    return max(sizes, default=0)


def mem_available_bytes() -> int:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) * 1024
    return 0


def host_triad() -> dict:
    """numpy triad ``a = b + s*c`` on arrays of 4x the last-level cache.

    numpy has no fused triad, so the two passes (``a = s*c``, then
    ``a += b``) stream five arrays of the stated size; the rate counts
    those five. The three arrays are capped at a quarter of available
    memory, and both sizes are reported so a capped run is visible.
    """
    llc = last_level_cache_bytes()
    want = 4 * max(llc, 8 << 20)
    cap = mem_available_bytes() // 12 or want
    n = min(want, cap) // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    seconds = median_seconds(triad, reps=3)
    return {"host.triad_gbps": 5 * n * 8 / seconds / 1e9,
            "host.triad_array_mb": n * 8 / 1e6,
            "host.llc_mb": llc / 1e6}
