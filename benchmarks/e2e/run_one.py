"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition so that caches, RSS and
forked ranks do not leak between repetitions, and reads the one JSON
object it prints as its last line of standard output. Modes:

* ``run --steps N``  the user's public call with N steps, timed from
  outside (N=0 is the set-up measurement);
* ``trace``          the traced pass: spans around construction, the
  zero-step run, the full run and every layer probe;
* ``coldstart``      first-kernel cost with an empty wrapper cache;
* ``warm``           compile every native wrapper from one process;
* ``reference``      the independent configuration ``expected.json``
  is recorded from.

Needs ``PYTHONPATH`` to hold the repository's ``src``; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probes
import workloads
from repro.coupler import CoupledDriver
from spans import SpanRecorder, child_coverage, duration


def _phase_sum(phases: dict, prefix: str, key: str) -> int:
    return sum(v[key] for name, v in phases.items()
               if name.startswith(prefix))


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _rss_mb() -> dict:
    """Peak RSS of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"host.parent_rss_mb": own / 1024,
            "host.max_rank_rss_mb": (ranks or own) / 1024}


def result_fields(result, cfg, nsteps: int, ckpt_dir) -> dict:
    """Public result fields of a finished run, as checks and metrics.

    ``counts`` must repeat exactly between runs of one commit;
    ``timers`` are the program's own phase timers (under ``lazy=True``
    ``physical_step`` under-reports, see README.md).
    """
    stats = result.total_search_stats()
    phases = result.traffic.by_phase()
    executed = nsteps - result.resumed_from
    step_times = [row["timers"].get("physical_step", 0.0)
                  for row in result.rows]
    serve = sum(cu["serve_seconds"] for cu in result.cus)
    serve_compute = sum(cu["serve_compute_seconds"] for cu in result.cus)
    recovery = result.recovery
    return {
        "pressure_ratio": result.pressure_ratio(),
        "digest": workloads.monitor_digest(result),
        "total_nodes": cfg.rig.total_nodes,
        "counts": {
            "op2.halo.messages": _phase_sum(phases, "halo", "messages"),
            "op2.halo.nbytes": _phase_sum(phases, "halo", "nbytes"),
            "smpi.messages": result.traffic.total_messages(),
            "smpi.nbytes": result.traffic.total_nbytes(),
            "coupler.comparisons_per_query":
                stats.comparisons / stats.queries,
            "coupler.cache_hit_ratio": stats.cache_hits / stats.queries,
            "coupler.gather_nbytes":
                _phase_sum(phases, "coupler.gather", "nbytes"),
            "coupler.scatter_nbytes":
                _phase_sum(phases, "coupler.scatter", "nbytes"),
            "resilience.ckpt_nbytes": _dir_bytes(ckpt_dir),
            "resilience.recoveries":
                recovery.recoveries if recovery is not None else 0,
        },
        "timers": {
            "hydra.step_s": max(step_times) / executed,
            "hydra.step_imbalance":
                max(step_times) * len(step_times) / sum(step_times),
            "coupler.wait_fraction": result.coupler_wait_fraction(),
            "coupler.serve_compute_s": serve_compute,
            "coupler.serve_idle_s": serve - serve_compute,
            "resilience.ckpt_write_s": max(
                row["timers"].get("checkpoint_write", 0.0)
                for row in result.rows),
            "resilience.ckpt_overhead_fraction":
                result.checkpoint_overhead(),
        },
    }


def timed_run(w, seed: int, nsteps: int, workdir: Path,
              faulted: bool = True, reference: bool = False,
              trace: bool = False) -> tuple[dict, object]:
    """Wall of the one public call, launch to merged result."""
    with tempfile.TemporaryDirectory(dir=workdir, prefix="ckpt-") as ckpt:
        cfg = workloads.build_config(w, seed, checkpoint_dir=ckpt,
                                     faulted=faulted, reference=reference,
                                     trace=trace)
        t0 = time.perf_counter()
        result = workloads.run(cfg, nsteps)
        out = {"wall_s": time.perf_counter() - t0, "nsteps": nsteps}
        if nsteps:
            out.update(result_fields(result, cfg, nsteps, ckpt))
    out.update(_rss_mb())
    return out, result


def traced_pass(w, seed: int, workdir: Path, quick: bool) -> dict:
    """The workload once more under spans, then every layer probe."""
    rec = SpanRecorder(w.name)
    metrics: dict = {}
    extra: dict = {}
    cfg = workloads.build_config(w, seed)    # probes: no checkpoints, faults
    with rec.span("workload"):
        with rec.span("driver.construct"):
            driver = CoupledDriver(cfg)
        with rec.span("driver.run0"):
            driver.run(0)
        with rec.span("user_call") as call:
            fields, _ = timed_run(w, seed, w.nsteps, workdir)
        metrics.update(fields["counts"])
        metrics.update(fields["timers"])
        # peak RSS now, before the probes allocate their own arrays
        metrics.update({k: v for k, v in fields.items()
                        if k.startswith("host.")})
        extra.update({k: fields[k] for k in
                      ("pressure_ratio", "digest", "counts")})

        if w.transport == "thread":
            # program-side telemetry is thread-only (ROADMAP item 5)
            with rec.span("telemetry.traced_run"):
                traced, result = timed_run(w, seed, w.nsteps, workdir,
                                           trace=True)
            extra["telemetry_wall_s"] = traced["wall_s"]
            extra["timeline_by_category"] = result.timeline.by_category()
        if w.checkpoint_every:
            with rec.span("resilience.quiet_run"):
                quiet, _ = timed_run(w, seed, w.nsteps, workdir,
                                     faulted=False)
            extra["quiet_wall_s"] = quiet["wall_s"]

        with rec.span("probe.setup_layers"):
            metrics.update(probes.setup_layers(cfg))
        with rec.span("probe.smpi.launch"):
            metrics.update(probes.launch(driver.n_world))
        with rec.span("probe.host.triad"):
            triad = probes.host_triad()
            metrics.update(triad)
        with rec.span("probe.op2.compute"):
            metrics.update(probes.compute_layers(
                cfg, w.backend, triad["host.triad_gbps"]))
        with rec.span("probe.op2.two_rank"):
            metrics.update(probes.two_rank_layers(cfg, w.backend))
        with rec.span("probe.smpi"):
            metrics.update(probes.smpi_layers(seed))
        with rec.span("probe.coupler.engine"):
            metrics.update(probes.coupler_engine(driver, w.nsteps, seed))
        with rec.span("probe.resilience.checkpoint_io"):
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                metrics.update(probes.checkpoint_io(cfg, Path(tmp), seed))
        with rec.span("probe.op2.native.cold_start"):
            metrics["op2.native.cold_start_s"] = _cold_start_child(
                w, seed, workdir, quick)
    metrics["host.nproc"] = os.cpu_count() or 1
    metrics["bench.span_coverage"] = child_coverage(rec.spans)
    extra["user_call_s"] = duration(call)
    return {"metrics": metrics, "spans": rec.spans, **extra}


def _cold_start_child(w, seed: int, workdir: Path, quick: bool) -> float:
    """Run ``coldstart`` in a fresh process with an empty wrapper cache."""
    with tempfile.TemporaryDirectory(dir=workdir, prefix="cold-") as cache:
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        cmd = [sys.executable, __file__, "coldstart", "--workload", w.name,
               "--seed", str(seed), "--workdir", str(workdir)]
        proc = subprocess.run(cmd + (["--quick"] if quick else []), env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
    return json.loads(proc.stdout.splitlines()[-1])["cold_start_s"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["run", "trace", "coldstart",
                                         "warm", "reference"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    w = workloads.get(args.workload, args.quick)
    nsteps = w.nsteps if args.steps is None else args.steps

    if args.mode == "run":
        out, _ = timed_run(w, args.seed, nsteps, args.workdir)
    elif args.mode == "reference":
        out, _ = timed_run(w, args.seed, nsteps, args.workdir,
                           reference=True)
    elif args.mode == "trace":
        out = traced_pass(w, args.seed, args.workdir, args.quick)
    elif args.mode == "coldstart":
        out = {"cold_start_s": probes.cold_start(
            workloads.build_config(w, args.seed), w.backend)}
    else:  # warm: one serial step compiles and caches every kernel
        probes.serial_solver(workloads.build_config(w, args.seed),
                             "native", minimal=True).advance_physical()
        out = {"warm": True}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
