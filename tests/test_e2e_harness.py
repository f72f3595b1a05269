"""The interface the end-to-end benchmark harness uses, pinned in tier-1.

``benchmarks/e2e/`` (run by ``BENCHMARK.json``) is changed only by
benchmark changes, so a program change that breaks the names, options
or results it relies on would otherwise show only when the benchmark
runs. These tests import the harness's ``workloads.py`` and
``probes.py`` as they are and drive them at ``quick`` size: every
workload's config (and its reference config) builds, the probes' calls
into ``repro`` run, including the ``lazy=`` option and the
``flush_chain``/``reset_chain_stats``/``chain_stats`` names it still
passes and calls, and the ``rows2_halo_thread`` run reproduces the
harness's recorded monitor digest.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro import op2
from repro.coupler import CoupledDriver

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name: str):
    """Import ``benchmarks/e2e/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_e2e_{name}",
                                                  E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve it there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
probes = _load("probes")
EXPECTED = json.loads((E2E / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_every_workload_config_builds(name, quick):
    w = workloads.get(name, quick)
    for reference in (False, True):
        cfg = workloads.build_config(w, seed=7, reference=reference)
        assert cfg.numerics.backend == ("vectorized" if reference
                                        else w.backend)
        assert cfg.rig.n_rows == w.rig["rows"]


def test_probe_calls_resolve():
    """The exact ``op2`` calls of ``probes.compute_layers`` and
    ``probes._two_rank_probe``; the chain counters read zero."""
    with op2.configure():
        with op2.configure(lazy=False, partial_halos=True,
                           grouped_halos=True):
            pass
        with op2.configure(lazy=True, partial_halos=True,
                           grouped_halos=True):
            op2.flush_chain()
        op2.flush_chain()
        op2.set_config(partial_halos=True, grouped_halos=True, lazy=False)
        op2.set_config(lazy=True)
        op2.reset_chain_stats()
        op2.flush_chain()
        stats = op2.chain_stats().as_dict()
        op2.set_config(lazy=False)
        op2.flush_chain()
    assert [stats[k] for k in ("fused", "halo_elided", "flushes")] \
        == [0, 0, 0]


def test_probes_run_at_quick_size():
    """``compute_layers``, ``two_rank_layers`` and ``coupler_engine`` (the
    ``CUTransferEngine(..., search_kind=, incremental=, interp=,
    native=)`` call) on the ``rows2_halo_thread`` quick rig."""
    w = workloads.get("rows2_halo_thread", quick=True)
    cfg = workloads.build_config(w, seed=7)
    compute = probes.compute_layers(cfg, w.backend, triad_gbps=1.0)
    assert compute["op2.inner_iter_s"] > 0
    assert compute["op2.chain.lazy_over_eager"] > 0
    two_rank = probes.two_rank_layers(cfg, w.backend)
    assert [two_rank[f"op2.chain.{k}"]
            for k in ("fused", "halo_elided", "flushes")] == [0, 0, 0]
    engine = probes.coupler_engine(CoupledDriver(cfg), nsteps=2, seed=7)
    assert engine["coupler.targets_per_s"] > 0


def test_rows2_halo_thread_reproduces_its_recorded_digest():
    w = workloads.get("rows2_halo_thread", quick=True)
    assert w.lazy
    result = workloads.run(workloads.build_config(w, seed=7), w.nsteps)
    want = EXPECTED["quick"]["rows2_halo_thread"]
    assert w.nsteps == want["nsteps"]
    assert workloads.monitor_digest(result) == want["digest"]
    assert result.pressure_ratio() == pytest.approx(want["pressure_ratio"],
                                                    rel=1e-12)
