"""Self-test of the end-to-end benchmark.

Run explicitly (``python -m pytest benchmarks/e2e/test_bench_e2e.py``,
about 3 minutes); ``testpaths`` keeps it out of tier-1. It checks the
harness at ``--quick`` sizes and the predicted dominance of each
workload on the committed full-size baseline.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run as harness  # noqa: E402


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    """Two complete ``--quick`` runs of the full protocol."""
    out = tmp_path_factory.mktemp("bench")
    reports = []
    for label in "ab":
        path = out / f"{label}.json"
        proc = _run("--quick", "--reps", "2", "--seed", "5", "--out", str(path))
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports.append((json.loads(path.read_text()), proc.stdout))
    return reports


def test_spec_is_wellformed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert harness.EXACT <= {m["name"] for m in SPEC["per_layer"]}
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_quick_output_has_every_named_metric(quick_reports):
    report, stdout = quick_reports[0]
    assert set(report["workloads"]) == set(WORKLOADS)
    assert report["meta"]["omp_num_threads"] == "1"
    for name, record in report["workloads"].items():
        e2e = record["end_to_end"]
        assert e2e["failed_fraction"]["value"] == 0.0, record["errors"]
        assert e2e["result_rel_err"]["value"] <= harness.REL_TOL
        for m in SPEC["end_to_end"]:
            s = e2e[m["name"]]
            assert s["unit"] == m["unit"] and s["n"] == 2
            assert s["q1"] <= s["median"] <= s["q3"] and s["median"] > 0
            assert m["name"] in stdout
        for m in SPEC["per_layer"]:
            assert record["per_layer"][m["name"]]["unit"] == m["unit"]
            assert m["name"] in stdout
    # the traced pass: one root per workload, children cover it
    roots = [s for s in report["trace"] if s["parent"] is None]
    assert sorted(s["workload"] for s in roots) == sorted(WORKLOADS)
    for record in report["workloads"].values():
        assert record["per_layer"]["bench.span_coverage"]["value"] >= 0.95


def test_exact_counts_repeat(quick_reports):
    (a, _), (b, _) = quick_reports
    for name in WORKLOADS:
        pa, pb = (r["workloads"][name]["per_layer"] for r in (a, b))
        for metric in harness.EXACT:
            assert pa[metric]["value"] == pb[metric]["value"], (name, metric)
        assert a["workloads"][name]["digest"] == b["workloads"][name]["digest"]


def test_compare_flags_regressions_and_exact_counts(quick_reports):
    base = copy.deepcopy(quick_reports[0][0])
    for record in base["workloads"].values():     # quick timings are noisy:
        for s in record["end_to_end"].values():   # collapse their spread
            if "median" in s:
                s["q1"] = s["q3"] = s["min"] = s["max"] = s["median"]
    assert compare.compare(base, base, SPEC)[1:] == ([], [])

    slower = copy.deepcopy(base)
    wall = slower["workloads"]["rig250_full"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3", "min", "max"):
        wall[key] *= 1.5
    assert compare.compare(base, slower, SPEC)[1] == \
        ["rig250_full wall_s: regression"]

    noisy = copy.deepcopy(base)
    wall = noisy["workloads"]["rig250_full"]["end_to_end"]["wall_s"]
    wall["q1"], wall["q3"] = 0.5 * wall["median"], 1.5 * wall["median"]
    assert compare.compare(base, noisy, SPEC)[1:] == \
        ([], ["rig250_full wall_s"])

    recount = copy.deepcopy(base)
    recount["workloads"]["ckpt_recover"]["per_layer"][
        "smpi.messages"]["value"] += 1
    recount["workloads"]["ckpt_recover"]["end_to_end"][
        "failed_fraction"]["value"] = 0.5
    problems = compare.compare(base, recount, SPEC)[1]
    assert any("exact count differs" in p for p in problems)
    assert any("failed_fraction rose" in p for p in problems)


def test_broken_workload_is_counted_not_fatal(tmp_path):
    path = tmp_path / "broken.json"
    proc = _run("--quick", "--reps", "1", "--only", "broken",
                "--out", str(path))
    assert proc.returncode == 1
    failed = json.loads(path.read_text())["workloads"]["broken"][
        "end_to_end"]["failed_fraction"]
    assert failed["value"] == 1.0 and failed["attempted"] >= 1


def test_driver_mode_prints_the_contract_line():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "rows2_halo_thread", "--quick", "--seed",
                    "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in SPEC[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", ".work",
                                                  "__pycache__"))
    proc = _run("--workload", "rig250_full", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""


def test_baseline_shows_the_predicted_dominance():
    """Each workload is dominated by the layer it was chosen for."""
    baseline = json.loads((HERE / "out" / "BENCH_e2e.json").read_text())
    assert not baseline["meta"]["quick"]

    def layer(workload, metric):
        return baseline["workloads"][workload]["per_layer"][metric]["value"]

    assert layer("sliding_coupler", "coupler.wait_fraction") >= 0.40
    assert layer("rig250_full", "coupler.wait_fraction") <= 0.25
    assert layer("sliding_coupler", "coupler.cache_hit_ratio") == 0
    assert layer("rig250_full", "coupler.cache_hit_ratio") > 0.5
    for name in WORKLOADS:
        halo = name in ("rows2_halo_thread", "ckpt_recover")
        assert (layer(name, "op2.halo.messages") > 0) == halo
        recovers = name == "ckpt_recover"
        assert layer(name, "resilience.recoveries") == int(recovers)
        assert (layer(name, "resilience.ckpt_nbytes") > 0) == recovers
        assert layer(name, "bench.span_overhead_ratio") <= 1.05
        assert layer(name, "bench.span_coverage") >= 0.95
        record = baseline["workloads"][name]["end_to_end"]
        assert record["failed_fraction"]["value"] == 0
        assert record["result_rel_err"]["value"] <= harness.REL_TOL
