"""End-to-end, layered benchmark of the coupled Rig250 run.

Two ways to run, one set of code:

* the full protocol, ``python benchmarks/e2e/run.py [--seed S] [--reps 5]
  [--quick] [--out FILE]``: per workload one discarded warm-up, ``reps``
  timed and ``reps`` zero-step runs, then one traced pass; prints every
  metric by name with its unit and writes ``out/BENCH_e2e.json``;
* one measurement for the benchmark driver, ``python
  benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``:
  prints one JSON object as the last line of standard output, with the
  end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``) named in ``BENCHMARK.json``.

Every repetition is a fresh ``run_one.py`` process. This parent imports
neither numpy nor the program; it starts children, counts failures,
checks results against ``expected.json`` and does the statistics.
README.md has the metric and workload tables.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CACHE = HERE / ".cache"          # private REPRO_CACHE_DIR and pyc prefix
WORK = HERE / ".work"            # per-child scratch; must end up empty
BASELINE = HERE / "out" / "BENCH_e2e.json"
EXPECTED = HERE / "expected.json"

#: per-run timeout; a run past it counts as failed
RUN_TIMEOUT = 180.0
#: one driver invocation must exit well within the driver's 180 s
DRIVER_BUDGET = 165.0
REL_TOL = 1e-9

#: per-layer metrics that are counts of the program and must repeat exactly
EXACT = frozenset({
    "op2.chain.fused", "op2.chain.halo_elided", "op2.chain.flushes",
    "op2.halo.messages", "op2.halo.nbytes", "smpi.messages", "smpi.nbytes",
    "coupler.comparisons_per_query", "coupler.cache_hit_ratio",
    "coupler.gather_nbytes", "coupler.scatter_nbytes",
    "resilience.ckpt_nbytes", "resilience.recoveries",
})


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- children ----------------------------------------------------------------

def child_env() -> dict:
    """Environment of every child.

    ``OMP_NUM_THREADS=1``: ranks are the only parallelism, as in the
    paper's MPI-only CPU runs (README.md, caveats). The wrapper cache
    and the bytecode cache are private to the benchmark so a run
    neither depends on nor touches the user's ``~/.cache``.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_SMPI_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        OMP_NUM_THREADS="1",
        REPRO_CACHE_DIR=str(CACHE / "native"),
        PYTHONPYCACHEPREFIX=str(CACHE / "pyc"),
        TMPDIR=str(WORK),            # the compiler's temporaries too
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep))
    return env


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psmpi*"))


def spawn(mode: str, workload: str, seed: int, quick: bool, timeout: float,
          steps: int | None = None) -> tuple[dict | None, str | None]:
    """Run one ``run_one.py`` child to the end; ``(payload, error)``.

    A child fails when it raises, outlives ``timeout``, falls back
    from the native backend, or leaves a ``/dev/shm/psmpi*`` segment
    or anything in its scratch directory behind. Leftovers are removed
    either way so one failure does not poison the next run.
    """
    workdir = WORK / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    shm_before = _shm_segments()
    cmd = [sys.executable, str(HERE / "run_one.py"), mode,
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if steps is not None:
        cmd += ["--steps", str(steps)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    errors = []
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        errors.append(f"timed out after {timeout:.0f} s")
        out = err = ""
    finally:
        try:  # the child leads its own session: reap stray ranks with it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    leaked = _shm_segments() - shm_before
    for segment in leaked:
        os.unlink(segment)
    if leaked:
        errors.append(f"leaked {len(leaked)} /dev/shm segment(s)")
    if any(workdir.iterdir()):
        errors.append("left files in its scratch directory")
    shutil.rmtree(workdir)

    if not errors and proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        errors.append(f"exit code {proc.returncode}: {tail}")
    if "falling back" in err:
        errors.append("native backend fell back: "
                      + err.strip().splitlines()[0])
    if errors:
        return None, "; ".join(errors)
    try:
        return json.loads(out.splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "printed no result"


@dataclass
class Tally:
    """Runs attempted and failed for one workload."""

    workload: str
    seed: int
    quick: bool
    expected: dict | None
    deadline: float = float("inf")
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rel_err: float = 0.0
    #: monitor digest and exact counts of the first run that stepped
    digest: str | None = None
    counts: dict | None = None

    def run(self, mode: str, steps: int | None = None) -> dict | None:
        """One counted child; its payload, or None when it failed."""
        timeout = min(RUN_TIMEOUT, self.deadline - time.monotonic())
        if timeout < 5.0:
            return None
        self.attempted += 1
        payload, error = spawn(mode, self.workload, self.seed, self.quick,
                               timeout, steps)
        if error is None:
            error = self._check(payload)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{mode}: {error}")
            print(f"[bench] {self.workload} {mode} FAILED: {error}",
                  file=sys.stderr)
            return None
        return payload

    def _check(self, result: dict) -> str | None:
        """Result check of a run that stepped: value, digest, counts."""
        if "pressure_ratio" not in result:
            return None
        if self.expected is None:
            return "no entry in expected.json (run --record-expected)"
        want = self.expected["pressure_ratio"]
        rel = abs(result["pressure_ratio"] - want) / want
        self.rel_err = max(self.rel_err, rel)
        if rel > REL_TOL:
            return (f"pressure_ratio {result['pressure_ratio']!r} is "
                    f"{rel:.2e} off the expected {want!r}")
        if self.digest is None:
            self.digest, self.counts = result["digest"], result["counts"]
        elif result["digest"] != self.digest:
            return "monitor digest differs from the previous repetition"
        elif result["counts"] != self.counts:
            return "exact counts differ from the previous repetition"
        return None

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def ensure_warm(seed: int) -> None:
    """Fill the private wrapper cache from one process, once per checkout.

    Ranks that find the cache empty all compile the same kernels at
    once, race on the cache files and fall back to numpy; compiling
    from a single process first avoids that (README.md, caveats).
    """
    marker = CACHE / "warm.ok"
    if marker.exists():
        return
    _payload, error = spawn("warm", "rig250_full", seed, True, RUN_TIMEOUT)
    if error is not None:
        sys.exit(f"[bench] warm-up failed: {error}")
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("native wrapper cache filled\n")


# -- measuring ---------------------------------------------------------------

def measure(tally: Tally, reps: int | None, seconds: float | None
            ) -> tuple[list[dict], list[dict]]:
    """Untraced repetitions: ``(timed payloads, zero-step payloads)``.

    With ``reps`` one zero-step and one timed run alternate that often.
    With ``seconds`` (driver form) one zero-step and two timed runs
    alternate for that long: once there is one of each kind, a run
    starts only while the time used plus the quickest timed run so far
    still fits. Alternating lets slow drift of the host hit both kinds.
    """
    timed: list[dict] = []
    zero: list[dict] = []
    pattern = (0, None) if reps is not None else (0, None, None)
    start, quickest, rounds = time.monotonic(), float("inf"), 0
    while tally.failed < 2 and time.monotonic() < tally.deadline - 5.0:
        for steps in pattern:
            began = time.monotonic()
            if (reps is None and timed and zero
                    and began - start + quickest > seconds):
                return timed, zero
            payload = tally.run("run", steps=steps)
            if payload is not None and steps == 0:
                zero.append(payload)
            elif payload is not None:
                timed.append(payload)
                quickest = min(quickest, time.monotonic() - began)
        rounds += 1
        if rounds == reps:
            break
    return timed, zero


def end_to_end(timed: list[dict], zero: list[dict]) -> dict[str, list[float]]:
    """Per-repetition values of the timing metrics (full protocol)."""
    nsteps, nodes = timed[0]["nsteps"], timed[0]["total_nodes"]
    setup = statistics.median(p["wall_s"] for p in zero)
    walls = [p["wall_s"] for p in timed]
    return {
        "node_updates_per_s": [nodes * nsteps / w for w in walls],
        "wall_s": walls,
        "step_s": [(w - setup) / nsteps for w in walls],
        "setup_s": [p["wall_s"] for p in zero],
    }


def best_of(timed: list[dict], zero: list[dict]) -> dict[str, float]:
    """The timing metrics of the fastest runs (driver form).

    A co-tenant of the shared host only ever slows a run down, for
    seconds to minutes at a time, so the fastest of the runs of one
    invocation repeats where their median does not (README.md, bounds).
    """
    nsteps, nodes = timed[0]["nsteps"], timed[0]["total_nodes"]
    wall = min(p["wall_s"] for p in timed)
    setup = min(p["wall_s"] for p in zero)
    return {"node_updates_per_s": nodes * nsteps / wall, "wall_s": wall,
            "step_s": (wall - setup) / nsteps, "setup_s": setup}


def per_layer(trace: dict, wall_s: float, names: list[str]) -> dict:
    """The traced pass's metrics plus the ratios against untraced wall."""
    metrics = dict(trace["metrics"])
    metrics["bench.span_overhead_ratio"] = trace["user_call_s"] / wall_s
    metrics["telemetry.trace_overhead_ratio"] = \
        trace.get("telemetry_wall_s", 0.0) / wall_s
    quiet = trace.get("quiet_wall_s")
    metrics["resilience.recovery_wall_ratio"] = wall_s / quiet if quiet else 0.0
    return {name: metrics[name] for name in names}


def summary(values: list[float], unit: str) -> dict:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"unit": unit, "median": statistics.median(ordered), "q1": q1,
            "q3": q3, "min": ordered[0], "max": ordered[-1],
            "n": len(ordered)}


def load_expected(workload: str, quick: bool) -> dict | None:
    if not EXPECTED.exists():
        return None
    section = json.loads(EXPECTED.read_text())["quick" if quick else "full"]
    return section.get(workload)


# -- driver mode -------------------------------------------------------------

def driver_run(args, spec: dict) -> int:
    """One measurement; the contract's one-line JSON result."""
    ensure_warm(args.seed)
    tally = Tally(args.workload, args.seed, args.quick,
                  load_expected(args.workload, args.quick),
                  deadline=time.monotonic() + DRIVER_BUDGET)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        baseline, trace = tally.run("run"), tally.run("trace")
        if baseline is None or trace is None:
            return 1
        values = per_layer(trace, baseline["wall_s"], list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        timed, zero = measure(tally, None, args.seconds)
        if not timed or not zero:
            return 1
        values = best_of(timed, zero)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


# -- full protocol -----------------------------------------------------------

def _first_line(cmd: list[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def meta(args) -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "seed": args.seed, "reps": args.reps, "quick": args.quick,
        "omp_num_threads": child_env()["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cc": _first_line(["cc", "--version"]),
        "git_sha": _first_line(["git", "rev-parse", "HEAD"]),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_workload(name: str, why: str, args, spec: dict) -> tuple[dict, list]:
    """Warm-up, untraced repetitions, traced pass of one workload."""
    tally = Tally(name, args.seed, args.quick, load_expected(name, args.quick))
    print(f"[bench] {name}: warm-up", file=sys.stderr)
    spawn("run", name, args.seed, args.quick, RUN_TIMEOUT)   # discarded
    print(f"[bench] {name}: {args.reps} timed + {args.reps} zero-step runs",
          file=sys.stderr)
    timed, zero = measure(tally, args.reps, None)
    record: dict = {"why": why, "end_to_end": {}, "per_layer": {}}
    spans: list = []
    if timed and zero:
        series = end_to_end(timed, zero)
        for m in spec["end_to_end"]:
            record["end_to_end"][m["name"]] = summary(series[m["name"]],
                                                      m["unit"])
        record["nsteps"] = timed[0]["nsteps"]
        record["total_nodes"] = timed[0]["total_nodes"]
        print(f"[bench] {name}: traced pass", file=sys.stderr)
        trace = tally.run("trace")
        if trace is not None:
            names = [m["name"] for m in spec["per_layer"]]
            wall = record["end_to_end"]["wall_s"]["median"]
            values = per_layer(trace, wall, names)
            for m in spec["per_layer"]:
                record["per_layer"][m["name"]] = {
                    "unit": m["unit"], "value": values[m["name"]],
                    "exact": m["name"] in EXACT}
            if "timeline_by_category" in trace:
                record["timeline_by_category"] = trace["timeline_by_category"]
            spans = trace["spans"]
    record["end_to_end"]["failed_fraction"] = {
        "unit": "ratio", "value": tally.failed_fraction,
        "attempted": tally.attempted, "failed": tally.failed}
    record["end_to_end"]["result_rel_err"] = {
        "unit": "ratio", "value": tally.rel_err, "tolerance": REL_TOL}
    record["digest"] = tally.digest
    record["errors"] = tally.errors
    return record, spans


def print_report(report: dict) -> None:
    for name, record in report["workloads"].items():
        print(f"\n== {name}: {record.get('total_nodes', '?')} nodes x "
              f"{record.get('nsteps', '?')} steps")
        for metric, s in record["end_to_end"].items():
            if "median" in s:
                print(f"  {metric:<34} {s['median']:>14.6g} {s['unit']:<7}"
                      f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                      f"min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
            else:
                print(f"  {metric:<34} {s['value']:>14.6g} {s['unit']}")
        for metric, s in record["per_layer"].items():
            print(f"  {metric:<34} {s['value']:>14.6g} {s['unit']:<7}"
                  f"{' exact' if s['exact'] else ''}")
        for error in record["errors"]:
            print(f"  FAILED {error}")


def full_run(args, spec: dict) -> int:
    if args.quick and args.out is None:
        out_path = None      # quick numbers never reach the baseline
    else:
        out_path = Path(args.out) if args.out else BASELINE
    ensure_warm(args.seed)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = args.only.split(",") if args.only else list(whys)
    report = {"schema": "repro-bench-e2e-v1", "meta": meta(args),
              "workloads": {}, "trace": []}
    for name in names:
        record, spans = run_workload(name, whys.get(name, "self-test"),
                                     args, spec)
        report["workloads"][name] = record
        report["trace"].extend(spans)
    print_report(report)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {out_path}")
    failed = any(r["end_to_end"]["failed_fraction"]["value"] > 0
                 for r in report["workloads"].values())
    return 1 if failed else 0


def record_expected(args, spec: dict) -> int:
    """Write ``expected.json`` from the independent reference runs."""
    ensure_warm(args.seed)
    expected: dict = {"note": "pressure_ratio of the vectorized / thread / "
                      "eager run of the same rig; see README.md",
                      "full": {}, "quick": {}}
    for section, quick in (("full", False), ("quick", True)):
        for w in spec["workloads"]:
            print(f"[bench] reference run: {w['name']} ({section})",
                  file=sys.stderr)
            payload, error = spawn("reference", w["name"], args.seed, quick,
                                   timeout=3600.0)
            if error is not None:
                sys.exit(f"[bench] reference run failed: {error}")
            expected[section][w["name"]] = {
                key: payload[key]
                for key in ("nsteps", "pressure_ratio", "digest")}
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the benchmark-side generated inputs")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes: <= 2k nodes, 3 steps")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", help="result file "
                        f"(default {BASELINE.relative_to(ROOT)})")
    parser.add_argument("--only", help="comma-separated workloads "
                        "(full protocol; self-test)")
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record expected.json and exit")
    parser.add_argument("--workload", help="driver mode: measure this one")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"[bench] no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.record_expected:
        return record_expected(args, spec)
    if args.workload:
        return driver_run(args, spec)
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
