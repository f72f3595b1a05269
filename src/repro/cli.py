"""Command-line interface: ``python -m repro.cli <command>``.

Exposes the library's headline workflows without writing a script:

``compressor``
    Run the coupled mini-Rig250 and print the Fig-10-style report.
``scaling``
    Evaluate the calibrated performance model for a problem/machine/
    node-count combination.
``tables``
    Regenerate the paper's Tables II-IV.
``codegen``
    Print the generated source variants for mini-Hydra's flux kernel.
``report``
    Verify every headline paper claim against the calibrated model.
``sanitize``
    Demonstrate the concurrency-correctness tooling: race-sanitizer
    backend, wait-for deadlock detector, deterministic schedule sweep.
``trace``
    Run a small coupled case with telemetry enabled and write a
    Chrome-trace JSON (load it in Perfetto / ``chrome://tracing``) plus
    a machine-readable metrics summary.
``bench``
    Time the airfoil iteration per kernel under one or more backends
    (``--backend native`` exercises the compiled path end to end) and
    optionally write a bench-schema JSON.
``submit``
    Submit one or more jobs to an in-process simulation service and
    stream their progress events; comma-separated ``--tenant`` values
    demo cross-tenant problem-setup dedup.
``serve``
    Drive the service under a seeded offered-load sweep and print
    throughput plus p50/p99 latency per load (the CI smoke entry
    point; ``--out`` writes BENCH_service.json).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np


def _case_args(p, *, p_out, rows=2, nt=12, steps_per_rev=64,
               layout=True, search=True):
    """Declare the engine-case flags with one subcommand's defaults
    (the service subcommands take no execution-layout flags). Each
    ``dest`` is the :class:`~repro.service.EngineCase` field it sets."""
    p.add_argument("--rows", type=int, default=rows)
    p.add_argument("--nr", type=int, default=3)
    p.add_argument("--nt", type=int, default=nt)
    p.add_argument("--nx", type=int, default=4)
    p.add_argument("--steps-per-rev", type=int, default=steps_per_rev,
                   dest="steps_per_revolution")
    p.add_argument("--inner", type=int, default=4, dest="inner_iters")
    p.add_argument("--p-out", type=float, default=p_out)
    if layout:
        p.add_argument("--ranks-per-row", type=int, default=1)
        p.add_argument("--cus", type=int, default=1,
                       dest="cus_per_interface")
    if search:  # the subcommands that also choose the transfer
        p.add_argument("--search", choices=["adt", "bruteforce"],
                       default="adt")
        p.add_argument("--interp", choices=["bilinear", "biquadratic"],
                       default="bilinear",
                       help="interface interpolation: bilinear (default) "
                            "or biquadratic (conservative high-order)")
        p.add_argument("--no-incremental", action="store_true",
                       help="disable the cross-round donor cache (re-search "
                            "every target every round)")


def _engine_case(args: argparse.Namespace):
    """The case a subcommand's flags describe; a field it declares no
    flag for keeps the EngineCase default."""
    from repro.service import EngineCase

    given = vars(args)
    return EngineCase(**{f.name: given[f.name]
                         for f in dataclasses.fields(EngineCase)
                         if f.name in given})


def _run_config(args: argparse.Namespace, **run_time_overrides):
    """The coupled-run config of any subcommand: its case flags through
    :class:`~repro.service.EngineCase`, everything else as overrides."""
    return _engine_case(args).run_config(**run_time_overrides)


def _cmd_compressor(args: argparse.Namespace) -> int:
    from repro.resilience import resume_coupled
    from repro.util.ascii_plot import render_field

    for flag, needs_dir in (("--checkpoint-every", args.checkpoint_every),
                            ("--resume without a STEP_DIR",
                             args.resume == "latest")):
        if needs_dir and not args.checkpoint_dir:
            print(f"{flag} requires --checkpoint-dir", file=sys.stderr)
            return 2
    cfg = _run_config(
        args, incremental=not args.no_incremental,
        interp=args.interp, interp_native=args.interp_native,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        transport=args.transport)
    # --resume absent = None = a cold start
    result = resume_coupled(cfg, args.steps, resume_from=args.resume)
    print(f"rows: {cfg.rig.n_rows}, interfaces: {cfg.rig.n_interfaces}, "
          f"steps: {args.steps}")
    if result.resumed_from:
        print(f"resumed from checkpoint step {result.resumed_from}")
    print(f"pressure ratio: {result.pressure_ratio():.3f}")
    print(f"interface wiggle: {result.interface_wiggle():.4f}")
    print(f"coupler wait fraction: {result.coupler_wait_fraction():.3f}")
    stats = result.total_search_stats()
    if stats.comparisons_saved:
        print(f"incremental search: {stats.cache_hits} donor cache hits, "
              f"{stats.researched} re-searched, "
              f"{stats.comparisons_saved} comparisons saved")
    if args.interp == "biquadratic":
        print(f"interface flux error: {result.interface_flux_error():.3e}")
    if args.checkpoint_every:
        print(f"checkpoint overhead: {result.checkpoint_overhead():.3f}")
    if args.contour:
        field, marks = result.mid_cut()
        print(render_field(field, width=100, height=16,
                           title="mid-radius static pressure",
                           column_marks=marks))
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    """Fault-matrix smoke: inject faults, prove recovery is bitwise."""
    import json
    import pathlib
    import tempfile

    from repro.coupler import CoupledDriver, build_driver_setup
    from repro.hydra import Numerics
    from repro.resilience import (
        FaultPlan,
        RecoveryPolicy,
        latest_valid_checkpoint,
        run_resilient,
    )

    say = (lambda *_a, **_k: None) if args.json else print

    def make_cfg(ckpt_dir, plan=None, transport=None):
        return _run_config(
            args, numerics=Numerics(inner_iters=args.inner_iters, guard=True),
            checkpoint_every=args.checkpoint_every if ckpt_dir else 0,
            checkpoint_dir=ckpt_dir, fault_plan=plan,
            cu_request_timeout=10.0, transport=transport)

    setup = build_driver_setup(make_cfg(None))
    n_hs = sum(len(r) for r in setup.row_ranks)
    cu_rank = setup.cu_ranks[0][0]
    donor_tag = setup.directions[0].donor_tag
    mid = max(1, args.steps // 2)

    # the truth every recovered run must reproduce — always the
    # thread transport: recovered process runs must match it bitwise
    truth = CoupledDriver(make_cfg(None, transport="thread"),
                          shared=setup).run(args.steps).monitor_payload()

    scenarios = [
        ("crash-hs", lambda: FaultPlan(seed=7).crash(rank=0, step=mid)),
        ("crash-cu", lambda: FaultPlan(seed=7).crash(rank=cu_rank,
                                                     step=mid)),
        ("drop-donor", lambda: FaultPlan(seed=7).drop(
            src=0, dst=cu_rank, tag=donor_tag)),
        ("corrupt-donor", lambda: FaultPlan(seed=7).corrupt(
            src=0, dst=cu_rank, tag=donor_tag, mode="nan")),
    ]
    if args.transport == "process":
        # real node death: only an OS process can be SIGKILLed
        scenarios.append(
            ("crash-hard",
             lambda: FaultPlan(seed=7).crash_hard(rank=0, step=mid)))
    # keep CFL untouched on divergence retries so the recovered
    # trajectory stays comparable to the fault-free baseline
    policy = RecoveryPolicy(max_retries=3, cfl_backoff=1.0)

    report = {"world_ranks": setup.n_world, "hs_ranks": n_hs,
              "cu_ranks": setup.n_world - n_hs, "steps": args.steps,
              "checkpoint_every": args.checkpoint_every,
              "transport": args.transport or "thread",
              "scenarios": []}
    failed = False
    for name, make_plan in scenarios:
        with tempfile.TemporaryDirectory() as d:
            cfg = make_cfg(d, make_plan(), transport=args.transport)
            try:
                result = run_resilient(cfg, args.steps, policy=policy)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                say(f"{name:14s} FAILED: {type(exc).__name__}: {exc}")
                report["scenarios"].append(
                    {"name": name, "ok": False,
                     "error": f"{type(exc).__name__}: {exc}"})
                failed = True
                continue
            log = result.recovery
            identical = result.monitor_payload() == truth
            # corruption may miss the serving CU's donor window — then
            # it is *harmless* (bitwise-equal with zero recoveries),
            # which is the same contract the hypothesis test enforces;
            # every other fault must actually trigger a recovery
            need_recovery = not name.startswith("corrupt")
            ok = identical and (log.recoveries >= 1 or not need_recovery)
            failed |= not ok
            say(f"{name:14s} recoveries={log.recoveries} "
                f"attempts={log.attempts} bitwise={identical}")
            report["scenarios"].append({
                "name": name, "ok": ok, "bitwise_identical": identical,
                "recovery": log.as_dict()})

    # torn-checkpoint case: damage the newest set; recovery must fall
    # back to the previous intact one and still finish bitwise-equal
    with tempfile.TemporaryDirectory() as d:
        CoupledDriver(make_cfg(d, transport=args.transport)).run(args.steps)
        newest = latest_valid_checkpoint(d)
        member = newest.member(0)
        member.write_bytes(member.read_bytes()[:-7])  # truncate = torn
        fallback = latest_valid_checkpoint(d)
        resumed = CoupledDriver(make_cfg(d, transport=args.transport)).run(
            args.steps, resume_from=fallback)
        identical = resumed.monitor_payload() == truth
        fell_back = fallback is not None and fallback.step < newest.step
        ok = identical and fell_back
        failed |= not ok
        say(f"{'torn-ckpt':14s} newest={newest.step} "
            f"fallback={fallback.step if fallback else None} "
            f"bitwise={identical}")
        report["scenarios"].append({
            "name": "torn-checkpoint", "ok": ok,
            "bitwise_identical": identical,
            "newest_step": newest.step,
            "fallback_step": fallback.step if fallback else None})

    report["ok"] = not failed
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        say(f"wrote {out}")
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print("fault matrix:", "FAILED" if failed else "all recovered")
    return 1 if failed else 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.perf import MACHINES, PROBLEMS, PerfModel, RunOptions

    try:
        problem = PROBLEMS[args.problem]
        machine = MACHINES[args.machine]
    except KeyError as exc:
        print(f"unknown name {exc}; problems: {sorted(PROBLEMS)}, "
              f"machines: {sorted(MACHINES)}", file=sys.stderr)
        return 2
    model = PerfModel()
    opts = RunOptions(mode=args.mode)
    bd = model.breakdown(problem, machine, args.nodes, opts)
    hours = model.hours_per_revolution(problem, machine, args.nodes, opts)
    print(f"{problem.name} on {args.nodes}x {machine.name} ({args.mode}):")
    print(f"  time/step : {bd.total:10.2f} s "
          f"(compute {bd.compute:.2f}, halo {bd.halo:.2f}, "
          f"wait {bd.wait:.2f})")
    print(f"  1 rev     : {hours:10.2f} h  "
          f"({problem.steps_per_rev} outer steps)")
    print(f"  wait frac : {bd.wait_fraction:10.1%}")
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    from repro.perf.tables import (
        power_model_table,
        table2_search,
        table3_comm_optimizations,
        table4_time_to_solution,
    )
    from repro.util.tables import format_table

    for table in (table2_search(), table3_comm_optimizations(),
                  table4_time_to_solution(), power_model_table()):
        print(format_table(table.headers, table.rows, title=table.caption,
                           floatfmt=".2f"))
        print()
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro import op2
    from repro.hydra.kernels import KERNELS
    from repro.op2.codegen.seq import generate_sequential
    from repro.op2.codegen.vector import generate_vectorized

    kernel = KERNELS["flux_edge"]
    signature = (
        ("dat", op2.READ, "idx", 5, 2), ("dat", op2.READ, "idx", 5, 2),
        ("dat", op2.READ, "direct", 3, 0),
        ("dat", op2.INC, "idx", 5, 2), ("dat", op2.INC, "idx", 5, 2),
        ("gbl", op2.READ, 1),
    )
    if args.backend == "sequential":
        print(generate_sequential(kernel.name, signature))
    else:
        scatter = "colored" if args.backend == "coloring" else "atomic"
        print(generate_vectorized(kernel, signature, scatter))
    return 0


def _sanitize_races() -> None:
    from repro import op2
    from repro.sanitize import RaceError

    print("== race sanitizer ==")
    n = 8
    nodes = op2.Set(n, "nodes")
    edges = op2.Set(n, "edges")
    table = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    pedge = op2.Map(edges, nodes, 2, table, "pedge")
    acc = op2.Dat(nodes, 1, name="acc")

    def scatter(a):
        a[0, 0] += 1.0
        a[1, 0] += 1.0

    kernel = op2.Kernel(scatter)
    arg = acc.arg(op2.INC, pedge, op2.ALL)
    op2.par_loop(kernel, edges, arg, backend="sanitizer")
    plan = op2.build_plan([arg], n)
    print(f"ring of {n} edges: plan has {plan.ncolors} colors — clean")

    # corrupt the cached plan: force two adjacent edges into one color
    victim = plan.color_groups[1][0]
    plan.colors[victim] = 0
    plan.color_groups[0] = np.sort(np.append(plan.color_groups[0], victim))
    plan.color_groups[1] = plan.color_groups[1][1:]
    try:
        op2.par_loop(kernel, edges, arg, backend="sanitizer")
    except RaceError as exc:
        print(f"mutated plan (edge {victim} forced into color 0):")
        print(exc)
    finally:
        op2.clear_plan_cache()


def _sanitize_deadlock() -> None:
    from repro.smpi import DeadlockError, run_ranks

    print("== wait-for deadlock detector ==")

    def fn(comm):
        # classic head-on recv/recv cycle: both wait, nobody sends
        comm.recv(source=1 - comm.rank)

    try:
        run_ranks(2, fn, timeout=30.0)
    except DeadlockError as exc:
        print(exc)


def _sanitize_schedules(nschedules: int) -> None:
    from repro.smpi import sweep_schedules

    print("== deterministic schedule sweep ==")

    def fn(comm):
        if comm.rank == 0:
            _, src1, _ = comm.recv_status()
            _, src2, _ = comm.recv_status()
            return (src1, src2)
        comm.send(comm.rank, dest=0)
        return None

    runs = sweep_schedules(3, fn, nschedules=nschedules, timeout=30.0)
    for run in runs:
        print(f"seed {run.seed}: rank 0 received from {run.results[0]}  "
              f"ledger {run.fingerprint[:16]}")
    print(f"{len({r.fingerprint for r in runs})} distinct message "
          f"schedules across {len(runs)} seeds")


def _cmd_sanitize(args: argparse.Namespace) -> int:
    if args.what in ("races", "all"):
        _sanitize_races()
    if args.what in ("deadlock", "all"):
        _sanitize_deadlock()
    if args.what in ("schedules", "all"):
        _sanitize_schedules(args.nschedules)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import pathlib

    from repro.coupler import CoupledDriver
    from repro.telemetry import (chrome_trace, metrics_summary,
                                 write_chrome_trace, write_metrics)

    cfg = _run_config(
        args, incremental=not args.no_incremental, interp=args.interp,
        schedule_seed=args.seed, lazy=args.lazy, trace=True)
    driver = CoupledDriver(cfg)
    result = driver.run(args.steps)
    timeline = result.timeline
    assert timeline is not None

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    metrics_path = out / "metrics.json"
    write_chrome_trace(trace_path, chrome_trace(timeline))
    meta = {"case": "coupled-rig250", "rows": cfg.rig.n_rows,
            "steps": args.steps, "world_ranks": driver.n_world,
            "search": args.search,
            "incremental": not args.no_incremental,
            "interp": args.interp,
            "schedule_seed": args.seed}
    write_metrics(metrics_path,
                  metrics_summary(timeline, traffic=result.traffic,
                                  meta=meta))

    bd = timeline.breakdown()
    print(f"traced {driver.n_world} ranks over {args.steps} steps: "
          f"{len(timeline.spans)} spans")
    print(f"breakdown [s]: compute {bd['compute']:.4f}  "
          f"halo {bd['halo']:.4f}  coupler {bd['coupler']:.4f}")
    if "halo_elided" in bd:
        print(f"loop chains: halo exchanges elided {bd['halo_elided']:.0f}  "
              f"messages saved {bd['messages_saved']:.0f}")
    print(f"wrote {trace_path} (open in https://ui.perfetto.dev "
          f"or chrome://tracing)")
    print(f"wrote {metrics_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import time

    from repro import op2
    from repro.apps import AirfoilApp, make_airfoil_mesh
    from repro.telemetry import bench_summary, tracing, validate_bench
    from repro.util.tables import format_table

    backends = args.backend or ["vectorized", "native"]
    mesh = make_airfoil_mesh(ni=args.ni, nj=args.nj)
    runs: dict[str, dict] = {}
    ref = None
    for backend in backends:
        with op2.configure(backend=backend, native_threads=args.threads,
                           lazy=args.lazy):
            app = AirfoilApp(mesh, mach=0.4)
            app.iterate(2)  # warm wrapper/plan/compile caches
            op2.flush_chain()
            with tracing() as rec:
                t0 = time.perf_counter()
                app.iterate(args.iters)
                op2.flush_chain()
                wall = time.perf_counter() - t0
        runs[backend] = {
            "wall": wall,
            "kernels": {k: st.compute_seconds
                        for k, st in rec.loop_stats.items()},
        }
        if ref is None:
            ref = app.q.data_ro.copy()
        elif not np.allclose(app.q.data_ro, ref, rtol=1e-9, atol=1e-12):
            print(f"backend {backend!r} diverged from {backends[0]!r}",
                  file=sys.stderr)
            return 1

    base = backends[0]
    rows = []
    # under --lazy, fused groups trace under joined names ("a+b")
    # that can differ per backend (fusability differs) — only rows
    # present on every backend are tabulated; wall always is
    common = sorted(set(runs[base]["kernels"]).intersection(
        *(set(runs[b]["kernels"]) for b in backends[1:])))
    for name in common:
        row = [name]
        for b in backends:
            row.append(runs[b]["kernels"][name] * 1e3)
        if len(backends) > 1:
            row.append(runs[base]["kernels"][name]
                       / runs[backends[-1]]["kernels"][name])
        rows.append(row)
    total = ["TOTAL (wall)"] + [runs[b]["wall"] * 1e3 for b in backends]
    if len(backends) > 1:
        total.append(runs[base]["wall"] / runs[backends[-1]]["wall"])
    rows.append(total)
    headers = ["kernel"] + [f"{b} ms" for b in backends]
    if len(backends) > 1:
        headers.append(f"{base}/{backends[-1]}")
    mode = "lazy fused chain" if args.lazy else "eager"
    print(format_table(
        headers, rows,
        title=f"airfoil {mesh.ncell} cells, {args.iters} iterations "
              f"({mode})",
        floatfmt=".2f"))

    if args.json:
        metrics = {}
        for b in backends:
            metrics[f"wall_{b}"] = {"value": runs[b]["wall"], "unit": "s"}
            for k, v in runs[b]["kernels"].items():
                metrics[f"kernel_{k}_{b}"] = {"value": v, "unit": "s"}
        doc = bench_summary("cli", metrics, meta={
            "cells": mesh.ncell, "edges": mesh.nedge,
            "iterations": args.iters, "backends": ",".join(backends),
            "native_threads": args.threads, "lazy": args.lazy})
        validate_bench(doc)
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"wrote {path}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """One-shot client: spin up an in-process service, submit, stream."""
    import asyncio
    import json
    import tempfile

    from repro.service import JobRequest, JobScheduler

    case = _engine_case(args)

    async def run() -> list:
        tenants = args.tenant.split(",")
        async with JobScheduler(slots=args.slots,
                                checkpoint_root=args.checkpoint_root) \
                as sched:
            # SIGINT/SIGTERM: checkpoint-and-suspend, then report
            sched.install_signal_handlers()
            handles = [await sched.submit(JobRequest(
                tenant=tenant, case=case, nsteps=args.steps,
                priority=args.priority, deadline_s=args.deadline,
                transport=args.transport,
                job_id=args.job_id if len(tenants) == 1 else None))
                for tenant in tenants]

            async def stream(handle):
                async for ev in handle.stream():
                    if not args.json:
                        extra = (f" {ev.detail}" if ev.detail else "")
                        print(f"[{handle.job_id}] {ev.kind:>10} "
                              f"step {ev.step}/{ev.nsteps} "
                              f"t={ev.t:.2f}s{extra}")

            results, *_ = await asyncio.gather(
                asyncio.gather(*(h.result() for h in handles)),
                *(stream(h) for h in handles))
            if len(tenants) > 1:
                stats = sched.setup_cache.stats
                if not args.json:
                    print(f"setup cache: {stats.misses} build(s), "
                          f"{stats.hits} adoption(s)")
            return results

    if args.checkpoint_root is None:
        args.checkpoint_root = tempfile.mkdtemp(prefix="repro-service-")
    results = asyncio.run(run())
    for result in results:
        if args.json:
            print(json.dumps({
                "job_id": result.job_id, "tenant": result.tenant,
                "status": result.status.value, "digest": result.digest,
                "metrics": result.metrics, "timings": result.timings,
                "recovery": result.recovery,
                "error": result.error}, sort_keys=True))
        elif result.ok:
            print(f"[{result.job_id}] completed: pressure ratio "
                  f"{result.metrics['pressure_ratio']:.3f}, "
                  f"digest {result.digest[:12]}…")
        elif result.status.value == "suspended":
            print(f"[{result.job_id}] suspended at step "
                  f"{result.timings.get('last_step', 0)} — rerun with "
                  f"--job-id {result.job_id} and the same "
                  f"--checkpoint-root to resume")
        else:
            print(f"[{result.job_id}] {result.status.value}: "
                  f"{result.error}")
    return 0 if all(r.status.value in ("completed", "suspended")
                    for r in results) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Load-mode service demo: offered-load sweep over worker slots."""
    import asyncio
    import pathlib
    import tempfile

    from repro.service import LoadSweepConfig, run_load_sweep, sweep_metrics
    from repro.telemetry import write_bench_summary
    from repro.util.tables import format_table

    case = _engine_case(args)
    loads = tuple(float(x) for x in args.loads.split(","))
    root = args.checkpoint_root or tempfile.mkdtemp(prefix="repro-serve-")
    sweep = asyncio.run(run_load_sweep(
        LoadSweepConfig(case=case, nsteps=args.steps, offered_loads=loads,
                        jobs_per_load=args.jobs_per_load,
                        tenants=args.tenants, slots=args.slots,
                        seed=args.seed), root))
    rows = [[f"{p['rho']:.2f}", f"{p['offered_rate_jobs_s']:.2f}",
             f"{p['throughput_jobs_s']:.2f}", f"{p['latency_p50_s']:.3f}",
             f"{p['latency_p99_s']:.3f}", f"{p['rejected']}/{p['submitted']}"]
            for p in sweep["points"]]
    print(f"service: {args.slots} slots, {args.tenants} tenants, "
          f"{args.steps}-step cases "
          f"(calibrated service time {sweep['service_time_s']:.2f}s)")
    print(format_table(["rho", "offered [jobs/s]", "done [jobs/s]",
                        "p50 [s]", "p99 [s]", "rejected"], rows))
    cache = sweep["service"]["setup_cache"]
    print(f"setup cache: {cache['misses']} build(s), {cache['hits']} "
          f"adoption(s); model unit_seconds "
          f"{sweep['service']['unit_seconds']:.3g}")
    if args.out:
        path = write_bench_summary(
            pathlib.Path(args.out), "service", sweep_metrics(sweep),
            meta={"slots": args.slots, "tenants": args.tenants,
                  "jobs_per_load": args.jobs_per_load,
                  "nsteps": args.steps, "offered_loads": list(loads),
                  "source": "repro.cli serve"})
        print(f"wrote {path}")
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    from repro.perf.report import build_report, render_report

    claims = build_report()
    print(render_report(claims))
    return 0 if all(c.passed for c in claims) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compressor", help="run the coupled mini-Rig250")
    _case_args(p, rows=10, nt=16, steps_per_rev=128, p_out=1.05)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--interp-native", action="store_true",
                   help="route the interpolation gather-apply through "
                        "the compiled native kernel when available")
    p.add_argument("--contour", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="write a coordinated checkpoint set every N "
                        "physical steps (needs --checkpoint-dir)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for checkpoint sets")
    p.add_argument("--resume", nargs="?", const="latest", default=None,
                   metavar="STEP_DIR",
                   help="restart from a checkpoint: a step-NNNNNN "
                        "directory, or the newest intact set under "
                        "--checkpoint-dir when given without a value")
    p.add_argument("--transport", choices=["thread", "process"],
                   default=None,
                   help="smpi transport: thread (deterministic, default) "
                        "or process (forked ranks, true multi-core); "
                        "default honours $REPRO_SMPI_TRANSPORT")
    p.set_defaults(fn=_cmd_compressor)

    p = sub.add_parser("resilience",
                       help="fault-matrix smoke: inject crashes and "
                            "message faults into a coupled run, prove "
                            "supervised recovery is bitwise-identical")
    _case_args(p, p_out=1.02, search=False)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--checkpoint-every", type=int, default=2)
    p.add_argument("--transport", choices=["thread", "process"],
                   default=None,
                   help="smpi transport to inject faults on; process "
                        "adds a crash-hard (SIGKILL) scenario; the "
                        "bitwise truth is always the thread run")
    p.add_argument("--json", action="store_true",
                   help="print the full report (recovery timelines "
                        "included) as JSON instead of the summary lines")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the recovery-timeline JSON artifact here")
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser("scaling", help="evaluate the performance model")
    p.add_argument("--problem", default="1-10_4.58B")
    p.add_argument("--machine", default="ARCHER2")
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--mode", choices=["coupled", "monolithic"],
                   default="coupled")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("report", help="verify paper claims vs the model")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("sanitize",
                       help="demo the concurrency-correctness tooling")
    p.add_argument("what", nargs="?", default="all",
                   choices=["races", "deadlock", "schedules", "all"])
    p.add_argument("--nschedules", type=int, default=6)
    p.set_defaults(fn=_cmd_sanitize)

    p = sub.add_parser("trace",
                       help="run a small coupled case with telemetry on; "
                            "write Chrome-trace + metrics JSON")
    _case_args(p, p_out=1.02)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--seed", type=int, default=None,
                   help="deterministic schedule seed (replayable trace)")
    p.add_argument("--lazy", action="store_true",
                   help="lazy loop-chain execution in the Hydra Sessions "
                        "(bitwise-equal; breakdown gains elision columns)")
    p.add_argument("--out", default="trace_out",
                   help="output directory for trace.json / metrics.json")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("codegen", help="show generated kernel source")
    p.add_argument("--backend",
                   choices=["sequential", "vectorized", "coloring"],
                   default="vectorized")
    p.set_defaults(fn=_cmd_codegen)

    p = sub.add_parser("submit",
                       help="submit job(s) to an in-process simulation "
                            "service and stream progress")
    _case_args(p, p_out=1.0, layout=False, search=False)
    p.add_argument("--tenant", default="cli",
                   help="tenant name, or comma-separated list to demo "
                        "cross-tenant setup dedup")
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--deadline", type=float, default=None,
                   help="seconds from submission; infeasible deadlines "
                        "are rejected at admission")
    p.add_argument("--job-id", default=None,
                   help="resume identity: reuse a suspended job's id "
                        "with the same --checkpoint-root to continue it")
    p.add_argument("--slots", type=int, default=2)
    p.add_argument("--transport", choices=["thread", "process"],
                   default=None,
                   help="per-job smpi transport override forwarded in "
                        "the JobRequest (digests are transport-invariant)")
    p.add_argument("--checkpoint-root", default=None,
                   help="service checkpoint namespace "
                        "(default: a fresh temp dir)")
    p.add_argument("--json", action="store_true",
                   help="print one JSON result per job instead of text")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("serve",
                       help="run the service under a seeded offered-load "
                            "sweep; print throughput + p50/p99 latency")
    _case_args(p, p_out=1.0, layout=False, search=False)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--slots", type=int, default=2)
    p.add_argument("--tenants", type=int, default=4)
    p.add_argument("--loads", default="0.5,1.0,2.0",
                   help="comma-separated utilization factors rho")
    p.add_argument("--jobs-per-load", type=int, default=12)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--checkpoint-root", default=None)
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write BENCH_service.json under DIR")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("bench",
                       help="per-kernel airfoil timings under one or "
                            "more backends")
    p.add_argument("--backend", action="append", default=None,
                   metavar="NAME",
                   help="repeatable; any of sequential, vectorized, "
                        "atomics, blockcolor, native, native-atomics; "
                        "default: vectorized + native (the native "
                        "backends fall back to their numpy twins "
                        "without a C toolchain)")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--ni", type=int, default=64)
    p.add_argument("--nj", type=int, default=16)
    p.add_argument("--threads", type=int, default=0,
                   help="native OpenMP threads (0 = all cores)")
    p.add_argument("--lazy", action="store_true",
                   help="run every iteration through the lazy loop "
                        "chain: fusable groups execute as single "
                        "(compiled, for the native backends) fused "
                        "wrappers")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write a bench-schema JSON summary")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
