"""A rank's phase totals and its trace come from one timing record.

``HydraSolver.timers`` and a CU's serve / checkpoint seconds are plain
dicts fed by :func:`repro.telemetry.timed`, which records the span from
the same clock readings when a recorder is bound. Pinned here: the
result fields the end-to-end benchmark turns into metrics (on both
transports, traced or not), the monolithic baseline's inline coupling
round showing up on its trace as coupler work, and forked ranks not
tracing into a copy of the launching thread's recorder.
"""

import pytest

from repro import telemetry
from repro.coupler import CoupledDriver
from repro.coupler.monolithic import MonolithicDriver
from repro.service import EngineCase
from repro.smpi import run_ranks

ROW_TIMERS = {"physical_step", "coupler_wait", "checkpoint_write"}


def _run_with_checkpoints(tmp_path, transport, trace):
    cfg = EngineCase(rows=2, ranks_per_row=2, cus_per_interface=2,
                     inner_iters=2).run_config(
        transport=transport, trace=trace, checkpoint_every=2,
        checkpoint_dir=tmp_path / f"{transport}-{trace}", timeout=60.0)
    return CoupledDriver(cfg).run(4)


def test_reported_timing_fields_on_both_transports(tmp_path):
    keys = set()
    for transport in ("thread", "process"):
        for trace in (False, True):
            result = _run_with_checkpoints(tmp_path, transport, trace)
            assert (result.timeline is not None) == trace
            assert len(result.rows) == 2 and len(result.cus) == 2
            for row in result.rows:
                assert set(row["timers"]) == ROW_TIMERS
                assert row["timers"]["physical_step"] > 0
            for cu in result.cus:
                assert cu["serve_seconds"] >= cu["serve_compute_seconds"] > 0
                assert cu["checkpoint_seconds"] > 0
            assert 0 < result.coupler_wait_fraction() < 1
            assert 0 < result.checkpoint_overhead() < 1
            keys.add((tuple(tuple(sorted(r)) for r in result.rows),
                      tuple(tuple(sorted(c)) for c in result.cus)))
    assert len(keys) == 1, keys


def test_monolithic_coupling_round_is_coupler_work_on_the_trace():
    cfg = EngineCase(rows=2, ranks_per_row=2).run_config(
        trace=True, transport="thread")
    driver = MonolithicDriver(cfg)
    result = driver.run(2)
    tl = result.timeline
    inline = 0.0
    for row in result.rows:
        reporter = min(driver.setup.row_ranks[row["row"]])
        spans = [s for s in tl.spans
                 if s.rank == reporter and s.cat == "coupler.serve"]
        assert spans and {s.name for s in spans} == {"coupler_inline"}
        total = row["timers"]["coupler_inline"]
        assert sum(s.duration for s in spans) == total
        inline += total
    assert tl.breakdown()["coupler"] >= inline > 0


def _is_traced(comm):
    return telemetry.active_recorder() is not None


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_ranks_do_not_inherit_the_launching_threads_recorder(transport):
    with telemetry.tracing() as rec:
        rec.instant("before", "test.launch")
        with telemetry.span("launch", "test.launch"):
            traced = run_ranks(2, _is_traced, transport=transport)
        assert telemetry.active_recorder() is rec
    assert traced == [False, False]
    assert [s.name for s in rec.spans if s.cat == "test.launch"] == \
        ["before", "launch"]
