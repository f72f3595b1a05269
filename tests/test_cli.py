"""Command-line interface: every subcommand runs and reports."""

import pytest

from repro.cli import main


def test_scaling_headline(capsys):
    assert main(["scaling", "--problem", "1-10_4.58B", "--machine",
                 "ARCHER2", "--nodes", "512"]) == 0
    out = capsys.readouterr().out
    assert "1 rev" in out
    # headline: under 6 hours
    hours = float([line for line in out.splitlines() if "1 rev" in line][0]
                  .split(":")[1].split("h")[0])
    assert hours < 6.0


def test_scaling_monolithic_mode(capsys):
    assert main(["scaling", "--mode", "monolithic", "--machine",
                 "Haswell-prod", "--nodes", "333"]) == 0
    assert "monolithic" in capsys.readouterr().out


def test_scaling_unknown_problem(capsys):
    assert main(["scaling", "--problem", "nope"]) == 2
    assert "unknown name" in capsys.readouterr().err


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "Table III" in out
    assert "Table IV" in out
    assert "1.36" in out  # power ratio


def test_codegen_variants(capsys):
    for backend, marker in [("sequential", "_seq_wrapper"),
                            ("vectorized", "add.at"),
                            ("native", "#pragma omp for")]:
        assert main(["codegen", "--backend", backend]) == 0
        assert marker in capsys.readouterr().out
    # the atomics strategy is a test oracle, not a src/ backend
    with pytest.raises(SystemExit) as exc:
        main(["codegen", "--backend", "native-atomics"])
    assert exc.value.code == 2


def test_codegen_prints_the_hoisted_wrapper(capsys, monkeypatch):
    """What ``codegen`` prints is what the native backend compiles: the
    signature comes from a bound loop, so ``q1``/``q2`` share a dat
    and their per-node work is hoisted — by the atomics oracle's
    wrapper too, handed the same signature."""
    from repro.op2 import codegen
    from tests.oracles.compiled import generate_oracle

    for generate in (codegen.generate_native, generate_oracle):
        monkeypatch.setattr(codegen, "generate_native", generate)
        assert main(["codegen", "--backend", "native"]) == 0
        out = capsys.readouterr().out
        assert "// hoisted on q: ul vl sl pl cl" in out
        assert "_hs0_f0 + m1_f0[n * 2 + 1] * 5" in out
    assert "#pragma omp atomic" in out


def test_compressor_small_run(capsys):
    assert main(["compressor", "--rows", "2", "--steps", "2", "--nt", "12",
                 "--contour"]) == 0
    out = capsys.readouterr().out
    assert "pressure ratio" in out
    assert "mid-radius" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_trace_writes_artifacts(tmp_path, capsys):
    import json

    from repro.telemetry import validate_chrome_trace, validate_metrics

    out = tmp_path / "trace_out"
    assert main(["trace", "--rows", "2", "--steps", "2", "--nt", "12",
                 "--seed", "11", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trace.json" in stdout and "metrics.json" in stdout

    trace_doc = json.loads((out / "trace.json").read_text())
    validate_chrome_trace(trace_doc)
    assert any(e["ph"] == "X" for e in trace_doc["traceEvents"])

    metrics = json.loads((out / "metrics.json").read_text())
    validate_metrics(metrics)
    assert metrics["breakdown"]["compute"] > 0
    assert metrics["breakdown"]["coupler"] > 0
    assert metrics["meta"]["case"] == "coupled-rig250"
    # breakdown must reproduce the per-kernel (loop_stats) totals
    assert metrics["breakdown"]["compute"] == pytest.approx(sum(
        k["compute_seconds"] for k in metrics["kernels"].values()))
    assert metrics["traffic"]  # per-phase message accounting included


def test_report_all_claims_pass(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "20/20 claims reproduced" in out
    assert "FAIL" not in out

def test_bench_writes_valid_summary(tmp_path, capsys):
    import json

    from repro.telemetry import validate_bench

    out = tmp_path / "bench.json"
    assert main(["bench", "--ni", "16", "--nj", "8", "--iters", "2",
                 "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "res_calc" in stdout and "TOTAL" in stdout
    doc = json.loads(out.read_text())
    validate_bench(doc)
    assert "wall_vectorized" in doc["metrics"]
    # native always present: it falls back to vectorized without a
    # toolchain, so the CLI works on a compiler-less machine too
    assert "wall_native" in doc["metrics"]


def test_bench_single_backend(capsys):
    assert main(["bench", "--backend", "blockcolor", "--ni", "16",
                 "--nj", "8", "--iters", "1"]) == 0
    out = capsys.readouterr().out
    assert "blockcolor ms" in out
    assert "speedup" not in out


def test_bench_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--backend", "bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err and "usage:" in err


def test_resume_latest_needs_a_checkpoint_dir(capsys):
    assert main(["compressor", "--rows", "2", "--steps", "2", "--nt", "12",
                 "--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "--resume without a STEP_DIR requires --checkpoint-dir"]
    assert "Traceback" not in captured.err and captured.out == ""


_COMMON = {"nr": 3, "nx": 4, "inner_iters": 4}
_LAYOUT = {"ranks_per_row": 1, "cus_per_interface": 1}


@pytest.mark.parametrize("command, case_flags", [
    ("compressor", {**_COMMON, **_LAYOUT, "rows": 10, "nt": 16,
                    "steps_per_revolution": 128, "p_out": 1.05, "search": "adt",
                    "steps": 24}),
    ("resilience", {**_COMMON, **_LAYOUT, "rows": 2, "nt": 12,
                    "steps_per_revolution": 64, "p_out": 1.02, "steps": 6,
                    "checkpoint_every": 2}),
    ("trace", {**_COMMON, **_LAYOUT, "rows": 2, "nt": 12,
               "steps_per_revolution": 64, "p_out": 1.02, "search": "adt",
               "steps": 3}),
    ("submit", {**_COMMON, "rows": 2, "nt": 12, "steps_per_revolution": 64,
                "p_out": 1.0, "steps": 6}),
    ("serve", {**_COMMON, "rows": 2, "nt": 12, "steps_per_revolution": 64,
               "p_out": 1.0, "steps": 4}),
])
def test_case_flags_and_defaults_per_subcommand(command, case_flags):
    """Every subcommand declares its case through the one helper, with
    the defaults it has always had; the service subcommands take no
    execution-layout flags."""
    import dataclasses

    from repro.cli import build_parser
    from repro.service import EngineCase

    args = vars(build_parser().parse_args([command]))
    assert {k: args[k] for k in case_flags} == case_flags
    fields = {f.name for f in dataclasses.fields(EngineCase)}
    assert fields & set(args) == fields & set(case_flags)
    if command in ("submit", "serve"):
        for flag in ("--ranks-per-row", "--cus"):
            with pytest.raises(SystemExit):  # argparse: unknown flag
                build_parser().parse_args([command, flag, "2"])


def test_compressor_is_the_engine_case_run(capsys):
    """The CLI's case -> config path is EngineCase.run_config."""
    from repro.coupler import CoupledDriver
    from repro.service import EngineCase

    assert main(["compressor", "--rows", "2", "--steps", "2",
                 "--nt", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    case = EngineCase(rows=2, nt=12, steps_per_revolution=128, p_out=1.05)
    result = CoupledDriver(case.run_config()).run(2)
    assert f"pressure ratio: {result.pressure_ratio():.3f}" in out
    assert f"interface wiggle: {result.interface_wiggle():.4f}" in out
