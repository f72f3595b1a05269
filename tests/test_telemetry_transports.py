"""Traced coupled runs are one program on both smpi transports.

Every rank binds its own :class:`~repro.telemetry.RankRecorder` and
returns it with its report, so a traced run takes the same path on rank
threads and on forked rank processes: the merged timeline's structure
and counters and the monitors agree across transports, a traced run
context pickles, and a coordinated checkpoint is exactly one span per
rank.
"""

import dataclasses
import pickle

import pytest

import repro.op2.config as op2_config
from repro import op2
from repro.coupler import CoupledDriver, CoupledRunConfig, build_driver_setup
from repro.coupler.ranks import RunContext
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.op2.backends.native import toolchain
from repro.service import EngineCase
from repro.telemetry import Timeline


def run_config(**kw):
    base = dict(
        rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                          steps_per_revolution=64),
        numerics=Numerics(inner_iters=2),
        inlet=FlowState(ux=0.5),
        p_out=1.0,
        timeout=60.0,
        trace=True,
    )
    base.update(kw)
    return CoupledRunConfig(**base)


@pytest.fixture
def one_omp_thread(monkeypatch):
    """Pin ``native_threads=1`` for rank threads (the module default)
    and forked ranks (they inherit the caller's config): a fork after a
    multi-threaded OpenMP region hangs in libgomp."""
    monkeypatch.setattr(op2_config, "_default", dataclasses.replace(
        op2_config._default, native_threads=1))
    with op2.configure(native_threads=1):
        yield


def _without_native(tl: Timeline) -> Timeline:
    """Drop what each process's own wrapper loading records."""
    return Timeline(
        spans=[s for s in tl.spans if s.cat != "op2.native"],
        counters={k: v for k, v in tl.counters.items()
                  if not k.startswith("op2.native.")},
        ranks=tl.ranks)


@pytest.mark.parametrize("backend,lazy", [
    ("vectorized", False),
    ("vectorized", True),
    pytest.param("native", False, marks=pytest.mark.skipif(
        toolchain() is None, reason="no C toolchain")),
])
def test_thread_and_process_trace_the_same_run(backend, lazy,
                                               one_omp_thread):
    seen = {}
    for transport in ("thread", "process"):
        driver = CoupledDriver(run_config(
            ranks_per_row=2, cus_per_interface=2,
            numerics=Numerics(inner_iters=2, backend=backend),
            partial_halos=True, grouped_halos=True, lazy=lazy,
            transport=transport))
        result = driver.run(2)
        tl = result.timeline
        assert tl.ranks == tuple(range(driver.n_world))
        assert set(tl.by_rank()) == set(tl.ranks)
        assert all(s.t1 >= s.t0 for s in tl.spans)
        # the recorders left the reports; rows and cus keep their keys
        assert not any("recorder" in r for r in result.rows + result.cus)
        if backend == "native":
            native = {k for k in tl.counters if k.startswith("op2.native.")}
            assert native and "op2.native.fallback" not in native
            tl = _without_native(tl)
        seen[transport] = (tl.structure(), tl.counters,
                           result.monitor_payload())
    thread, process = seen["thread"], seen["process"]
    assert thread[0] == process[0]
    assert thread[1] == process[1]
    assert thread[2] == process[2]


def test_one_span_per_coordinated_checkpoint(smpi_transport, tmp_path):
    """The ``checkpoint_write`` timer feeds the report only; the set's
    own stepped span is the one trace event per rank and set."""
    driver = CoupledDriver(run_config(checkpoint_every=2,
                                      checkpoint_dir=tmp_path))
    result = driver.run(4)
    tl = result.timeline
    cat = "resilience.checkpoint_write"
    assert tl.by_category()[cat]["count"] == driver.n_world * 2
    for rank in tl.ranks:
        spans = sorted((s for s in tl.spans
                        if s.cat == cat and s.rank == rank),
                       key=lambda s: s.t0)
        assert [s.args["step"] for s in spans] == [2, 4]
        for a, b in zip(spans, spans[1:]):
            assert a.t1 <= b.t0, f"rank {rank}: overlapping {cat} spans"
    assert all(row["timers"]["checkpoint_write"] > 0 for row in result.rows)


def test_traced_run_context_pickles():
    cfg = EngineCase(rows=2, ranks_per_row=2).run_config(trace=True)
    ctx = RunContext(setup=build_driver_setup(cfg), cfg=cfg, nsteps=2)
    back = pickle.loads(pickle.dumps(ctx))
    assert back.cfg.trace and back.nsteps == 2
    assert back.setup.fingerprint == ctx.setup.fingerprint
