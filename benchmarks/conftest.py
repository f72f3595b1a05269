"""Shared benchmark fixtures and report sink.

Every benchmark prints the regenerated table/figure rows (the same
rows/series the paper reports) and appends them to
``benchmarks/out/report.txt`` so the output survives pytest's capture.

On top of the human-readable report, the session-finish hook exports
every pytest-benchmark measurement as a machine-readable
``benchmarks/out/BENCH_<module>.json`` (the telemetry bench schema,
``repro-telemetry-bench-v1``) so the repo keeps a diffable perf
trajectory across commits.
"""

import os
import pathlib
import warnings

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report():
    """Callable that prints AND persists a report block."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "report.txt"
    if path.exists():
        path.unlink()

    def emit(text: str) -> None:
        print("\n" + text)
        with open(path, "a") as fh:
            fh.write(text + "\n\n")

    return emit


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="shrink benchmark problem sizes/reps to a CI-friendly "
             "smoke run (artifacts still written, perf bars relaxed)")


@pytest.fixture(scope="session")
def smoke(request):
    """True when the run is a CI smoke (small sizes, no perf bars)."""
    return request.config.getoption("--smoke")


def pytest_report_header(config):
    return "repro paper-reproduction benchmarks (tables II-IV, figures 7-10)"


def _bench_json_summaries(config) -> None:
    """Write one BENCH_<module>.json per benchmark module that ran."""
    from repro.telemetry import write_bench_summary

    session = getattr(config, "_benchmarksession", None)
    if session is None or not session.benchmarks:
        return
    by_module: dict[str, dict] = {}
    for bench in session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None or not getattr(stats, "rounds", 0):
            continue
        module = bench.fullname.split("::")[0]
        stem = pathlib.Path(module).stem
        name = stem[len("bench_"):] if stem.startswith("bench_") else stem
        entry = {
            "value": float(stats.mean),
            "unit": "s",
            "min": float(stats.min),
            "rounds": int(stats.rounds),
        }
        for k, v in (bench.extra_info or {}).items():
            if isinstance(v, (int, float, str, bool)):
                entry.setdefault(k, v)
        by_module.setdefault(name, {})[bench.name] = entry
    for name, metrics in by_module.items():
        write_bench_summary(OUT_DIR, name, metrics,
                            meta={"source": "pytest-benchmark"})


def pytest_sessionfinish(session, exitstatus):
    try:
        _bench_json_summaries(session.config)
    except Exception as exc:  # perf artifacts must never fail the suite
        warnings.warn(f"bench JSON export failed: {exc}")
