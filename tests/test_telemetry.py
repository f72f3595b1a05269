"""The telemetry subsystem: recorder, merge, exporters, overhead.

Covers the unified tracing layer end to end — span recording and
balance validation, the per-kernel ``loop_stats`` view and ``timed``
phase totals sharing one source of truth with the trace, Chrome-trace
and metrics export with schema validation, the coupled driver's
compute/halo/coupler breakdown consistency, and the disabled-mode
overhead guard against the seed par_loop path.
"""

import json
import time

import numpy as np
import pytest

from repro import op2, telemetry
from repro.apps import make_airfoil_mesh
from repro.apps.airfoil import AirfoilApp
from repro.op2.backends import ReductionBuffers, resolve_backend
from repro.op2.config import current_config
from repro.op2.parloop import ParLoop
from repro.telemetry import (RankRecorder, Timeline, chrome_trace,
                             merge_timelines, metrics_summary,
                             validate_bench, validate_chrome_trace,
                             validate_metrics, write_bench_summary,
                             write_chrome_trace, write_metrics)
from repro.telemetry.recorder import (_NULL_SPAN, active_recorder, span,
                                      timed, use_recorder)


def _copy_loop(n=16, name="tele_copy"):
    nodes = op2.Set(n, "nodes")
    x = op2.Dat(nodes, 1, data=np.arange(float(n)))
    y = op2.Dat(nodes, 1)

    def copy(xv, yv):
        yv[0] = xv[0]

    return op2.Kernel(copy, name=name), nodes, x, y


class TestRankRecorder:
    def test_span_context_records_event(self):
        rec = RankRecorder(rank=3)
        with rec.span("work", "test.cat", items=4):
            time.sleep(0.001)
        rec.validate()
        (s,) = rec.spans
        assert s.name == "work" and s.cat == "test.cat" and s.rank == 3
        assert s.args == {"items": 4}
        assert s.duration > 0 and not s.is_instant

    def test_instant_and_counter(self):
        rec = RankRecorder()
        rec.instant("mark", "test.cat", n=1)
        rec.counter("hits")
        rec.counter("hits", 2.0)
        assert rec.spans[0].is_instant
        assert rec.counters["hits"] == 3.0

    def test_validate_rejects_open_span(self):
        rec = RankRecorder()
        handle = rec.span("open", "test.cat")
        handle.__enter__()
        with pytest.raises(ValueError, match="still open"):
            rec.validate()

    def test_validate_rejects_negative_duration(self):
        rec = RankRecorder()
        rec.add_span("bad", "test.cat", 2.0, 1.0)
        with pytest.raises(ValueError, match="negative duration"):
            rec.validate()

    def test_record_loop_synthesizes_matching_spans(self):
        """loop_stats is computed from a par_loop's halo/compute spans."""
        rec = RankRecorder()
        rec.add_span("k", "op2.halo", 100.0, 100.125)
        rec.add_span("k", "op2.compute", 100.125, 100.375, elements=10)
        rec.add_span("k", "op2.compute", 101.0, 101.5, elements=10)
        rec.add_span("other", "op2.plan", 100.0, 101.0)
        assert list(rec.loop_stats) == ["k"]
        st = rec.loop_stats["k"]
        assert (st.calls, st.compute_seconds, st.halo_seconds,
                st.elements) == (2, 0.75, 0.125, 20)
        assert st.total_seconds == 0.875

    def test_module_span_noop_without_tracing(self):
        assert active_recorder() is None  # an unbound thread traces nothing
        with span("free", "test.cat") as handle:
            assert handle is _NULL_SPAN
        assert active_recorder() is None

    def test_reset(self):
        rec = RankRecorder()
        rec.instant("x", "c")
        rec.counter("n")
        rec.add_span("k", "op2.compute", 0.0, 0.1, elements=5)
        rec.reset()
        assert not rec.spans and not rec.counters and not rec.loop_stats


class TestTracingContext:
    def test_par_loop_emits_spans_matching_profile(self):
        kern, nodes, x, y = _copy_loop()
        with telemetry.tracing() as rec:
            for _ in range(3):
                op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE))
        rec.validate()
        comp = [s for s in rec.spans if s.cat == "op2.compute"]
        assert len(comp) == 3
        # spans and loop_stats come from the same numbers: exact match
        assert sum(s.duration for s in comp) == pytest.approx(
            rec.loop_stats["tele_copy"].compute_seconds, abs=0.0)

    def test_tracing_restores_previous_recorder(self):
        assert telemetry.active_recorder() is None
        with telemetry.tracing() as outer:
            assert telemetry.active_recorder() is outer
            with telemetry.tracing() as inner:
                assert telemetry.active_recorder() is inner
            assert telemetry.active_recorder() is outer
        assert telemetry.active_recorder() is None

    def test_plan_build_traced(self):
        n = 12
        nodes = op2.Set(n, "nodes")
        edges = op2.Set(n, "edges")
        table = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        pedge = op2.Map(edges, nodes, 2, table, "pedge")
        acc = op2.Dat(nodes, 1, name="acc")

        def inc(a1, a2):
            a1[0] += 1.0
            a2[0] += 1.0

        kern = op2.Kernel(inc, name="tele_inc")
        args = [acc.arg(op2.INC, pedge, 0), acc.arg(op2.INC, pedge, 1)]
        with telemetry.tracing() as rec:
            op2.par_loop(kern, edges, *args, backend="coloring")
            op2.par_loop(kern, edges, *args, backend="coloring")
        builds = [s for s in rec.spans if s.cat == "op2.plan"]
        assert len(builds) == 1  # second loop hits the plan cache
        assert rec.counters["op2.plan.build"] == 1.0
        assert rec.counters["op2.plan.cache_hit"] >= 1.0
        op2.clear_plan_cache()


class TestLoopProfileFacade:
    """The per-kernel table is a view of the spans, nothing stored."""

    def test_record_lands_in_recorder_loop_stats(self):
        rec = RankRecorder()
        rec.add_span("manual", "op2.halo", 1.0, 1.25)
        rec.add_span("manual", "op2.compute", 1.25, 1.75, elements=100)
        assert rec.loop_stats["manual"].calls == 1
        assert rec.loop_stats["manual"].total_seconds == 0.75
        tl = merge_timelines([rec])
        assert tl.loop_stats["manual"].total_seconds == 0.75

    def test_view_binds_to_thread_recorder(self):
        kern, nodes, x, y = _copy_loop(name="bound")
        rec = RankRecorder(rank=0)
        with telemetry.tracing() as outer:
            prev = use_recorder(rec)
            try:
                op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE))
            finally:
                use_recorder(prev)
        assert rec.loop_stats["bound"].calls == 1
        assert "bound" not in outer.loop_stats


class TestTimerFacade:
    """``timed``: one clock reading feeds a phase total and its span."""

    def test_timer_with_cat_emits_span_when_tracing(self):
        totals = {}
        with telemetry.tracing() as rec:
            with timed(totals, "serve", "coupler.serve"):
                pass
            with timed(totals, "serve", "coupler.serve"):
                pass
        spans = [s for s in rec.spans if s.cat == "coupler.serve"]
        assert [s.name for s in spans] == ["serve", "serve"]
        assert sum(s.duration for s in spans) == totals["serve"]

    def test_timer_without_cat_stays_off_traces(self):
        totals = {}
        with telemetry.tracing() as rec:
            with timed(totals, "quiet"):
                pass
        assert not [s for s in rec.spans if s.name == "quiet"]
        assert totals["quiet"] > 0
        with timed(totals, "loud", "coupler.serve"):  # untraced: total only
            pass
        assert totals["loud"] > 0


class TestTimelineMerge:
    def _recorders(self, shift=0.0):
        recs = []
        for rank in range(2):
            rec = RankRecorder(rank=rank)
            rec.add_span("k", "op2.compute", 1.0 + shift + rank,
                         2.0 + shift + rank, elements=5)
            rec.add_span("k", "op2.halo", 2.0 + shift + rank,
                         2.5 + shift + rank)
            rec.counter("smpi.messages", 2)
            recs.append(rec)
        return recs

    def test_merge_sums_counters_and_stats(self):
        tl = merge_timelines(self._recorders())
        assert tl.ranks == (0, 1)
        assert tl.counters["smpi.messages"] == 4
        assert tl.loop_stats["k"].calls == 2
        assert tl.loop_stats["k"].elements == 10
        assert [s.t0 for s in tl.spans] == sorted(s.t0 for s in tl.spans)

    def test_breakdown_buckets(self):
        tl = merge_timelines(self._recorders())
        bd = tl.breakdown()
        assert bd["compute"] == pytest.approx(2.0)
        assert bd["halo"] == pytest.approx(1.0)
        assert bd["coupler"] == 0.0

    def test_by_category_and_by_rank(self):
        tl = merge_timelines(self._recorders())
        cats = tl.by_category()
        assert cats["op2.compute"]["count"] == 2
        assert tl.by_rank()[1]["op2.halo"] == pytest.approx(0.5)

    def test_fingerprint_ignores_timestamps(self):
        a = merge_timelines(self._recorders(shift=0.0))
        b = merge_timelines(self._recorders(shift=17.3))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sees_structure_changes(self):
        a = merge_timelines(self._recorders())
        recs = self._recorders()
        recs[1].instant("extra", "smpi.send", dst=0)
        assert merge_timelines(recs).fingerprint() != a.fingerprint()


class TestChromeTraceExport:
    def _timeline(self):
        rec = RankRecorder(rank=0)
        rec.add_span("work", "op2.compute", 1.0, 1.5, elements=3)
        rec.instant("send", "smpi.send", dst=1)
        return merge_timelines([rec])

    def test_export_shape(self):
        doc = chrome_trace(self._timeline())
        validate_chrome_trace(doc)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("M") == 2  # process + thread name
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["dur"] == pytest.approx(0.5e6)  # microseconds
        assert xs[0]["args"] == {"elements": 3}
        assert [e for e in doc["traceEvents"] if e["ph"] == "i"]

    def test_validation_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x",
                                                   "pid": 0, "tid": 0}]})
        with pytest.raises(ValueError):  # X without dur
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0.0}]})

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._timeline())
        validate_chrome_trace(json.loads(path.read_text()))


class TestMetricsExport:
    def _timeline(self):
        rec = RankRecorder(rank=0)
        rec.add_span("k", "op2.halo", 1.0, 1.25)
        rec.add_span("k", "op2.compute", 1.25, 1.75, elements=10)
        rec.counter("smpi.messages", 3)
        return merge_timelines([rec])

    def test_summary_valid_and_consistent(self, tmp_path):
        doc = metrics_summary(self._timeline(), meta={"case": "unit"})
        validate_metrics(doc)
        assert doc["breakdown"]["compute"] == pytest.approx(
            doc["kernels"]["k"]["compute_seconds"])
        assert doc["breakdown"]["halo"] == pytest.approx(
            doc["kernels"]["k"]["halo_seconds"])
        write_metrics(tmp_path / "m.json", doc)
        validate_metrics(json.loads((tmp_path / "m.json").read_text()))

    def test_validation_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            validate_metrics({"schema": "nope"})
        doc = metrics_summary(self._timeline())
        doc["breakdown"]["compute"] = -1.0
        with pytest.raises(ValueError):
            validate_metrics(doc)

    def test_cache_counters_surface_in_caches_section(self):
        """Plan/kernel/setup cache hit-miss counters land in ``caches``
        as structured fields, not just raw counter names (the service's
        dedup claims are counter-verified through this section)."""
        rec = RankRecorder(rank=0)
        rec.counter("op2.plan.cache_hit", 4)
        rec.counter("op2.plan.build", 2)
        rec.counter("op2.native.cache_hit_mem", 3)
        rec.counter("op2.native.cache_hit_disk", 1)
        rec.counter("op2.native.compile", 5)
        rec.counter("service.setup.hit", 7)
        rec.counter("service.setup.miss", 1)
        doc = metrics_summary(merge_timelines([rec]))
        validate_metrics(doc)
        assert doc["caches"]["plan"] == {"hits": 4.0, "misses": 2.0}
        assert doc["caches"]["kernel"]["hits"] == 4.0
        assert doc["caches"]["kernel"]["misses"] == 5.0
        assert doc["caches"]["setup"] == {"hits": 7.0, "misses": 1.0}

    def test_caches_section_required_and_checked(self):
        doc = metrics_summary(self._timeline())
        assert doc["caches"]["plan"] == {"hits": 0.0, "misses": 0.0}
        bad = dict(doc)
        del bad["caches"]
        with pytest.raises(ValueError, match="caches"):
            validate_metrics(bad)
        bad = metrics_summary(self._timeline())
        bad["caches"]["plan"]["hits"] = -1
        with pytest.raises(ValueError, match="caches"):
            validate_metrics(bad)

    def test_bench_summary_write(self, tmp_path):
        path = write_bench_summary(
            tmp_path, "unit", {"t_step": {"value": 0.01, "unit": "s"}},
            meta={"source": "test"})
        assert path.name == "BENCH_unit.json"
        doc = json.loads(path.read_text())
        validate_bench(doc)
        with pytest.raises(ValueError):
            validate_bench({"schema": telemetry.BENCH_SCHEMA, "name": "x",
                            "metrics": {"m": {"value": "fast"}}})


class TestCalibrationFromMetrics:
    def test_unit_seconds_from_recorded_run(self):
        from repro.perf.calibrate import (CALIBRATION, calibrate_unit_seconds,
                                          unit_seconds_from_metrics)

        kern, nodes, x, y = _copy_loop(n=64, name="cal_k")
        with telemetry.tracing() as rec:
            for _ in range(4):
                op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE))
        doc = metrics_summary(merge_timelines([rec]))
        w = unit_seconds_from_metrics(doc)
        assert w > 0
        cal = calibrate_unit_seconds(doc, machine="local")
        assert cal.unit_seconds["local"] == pytest.approx(w)
        # paper anchors untouched
        assert cal.unit_seconds["ARCHER2"] == \
            CALIBRATION.unit_seconds["ARCHER2"]
        assert "local" not in CALIBRATION.unit_seconds

    def test_rejects_empty_runs(self):
        from repro.perf.calibrate import unit_seconds_from_metrics

        doc = metrics_summary(Timeline())
        with pytest.raises(ValueError, match="no loop elements"):
            unit_seconds_from_metrics(doc)


class TestCoupledTrace:
    def test_coupled_run_produces_consistent_timeline(self):
        from repro.coupler import CoupledDriver, CoupledRunConfig
        from repro.hydra import FlowState, Numerics
        from repro.mesh import rig250_config

        cfg = CoupledRunConfig(
            rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                              steps_per_revolution=64),
            ranks_per_row=1, cus_per_interface=1,
            numerics=Numerics(inner_iters=2),
            inlet=FlowState(ux=0.5), p_out=1.0, trace=True)
        result = CoupledDriver(cfg).run(2)
        tl = result.timeline
        assert tl is not None
        assert tl.ranks == (0, 1, 2)  # 2 HS + 1 CU
        bd = tl.breakdown()
        # breakdown reproduces the per-kernel view's totals exactly
        assert bd["compute"] == pytest.approx(sum(
            st.compute_seconds for st in tl.loop_stats.values()), abs=0.0)
        assert bd["halo"] == pytest.approx(sum(
            st.halo_seconds for st in tl.loop_stats.values()), abs=0.0)
        assert bd["coupler"] > 0  # wait + gather + apply + serve spans
        cats = tl.by_category()
        for expected in ("coupler.wait", "coupler.gather", "coupler.serve",
                         "coupler.search", "coupler.interp", "hydra.step",
                         "hydra.inner", "smpi.collective", "smpi.recv"):
            assert expected in cats, expected
        assert tl.counters["smpi.messages"] > 0
        assert tl.counters["coupler.halo_values_applied"] > 0

    def test_untraced_run_has_no_timeline(self):
        from repro.coupler import CoupledDriver, CoupledRunConfig
        from repro.hydra import FlowState, Numerics
        from repro.mesh import rig250_config

        cfg = CoupledRunConfig(
            rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                              steps_per_revolution=64),
            ranks_per_row=1, cus_per_interface=1,
            numerics=Numerics(inner_iters=2),
            inlet=FlowState(ux=0.5), p_out=1.0)
        assert CoupledDriver(cfg).run(1).timeline is None


def _seed_execute(self, backend_name=None):
    """The pre-telemetry serial par_loop execute path (seed replica)."""
    cfg = current_config()
    if cfg.sanitize:
        backend_name = "sanitizer"
    backend = resolve_backend(backend_name or cfg.backend)
    assert not self.iterset.is_distributed
    reductions = ReductionBuffers(self.args)
    backend.execute([self], 0, self.iterset.size, [reductions])
    reductions.finalize(None)
    self._mark_written_stale()


class TestOverheadGuard:
    def test_disabled_tracing_within_5_percent_of_seed(self, monkeypatch):
        """Tracing off: the instrumented path must cost ~the seed path."""
        app = AirfoilApp(make_airfoil_mesh(48, 12))
        app.iterate(2)  # warm caches, allocate, JIT numpy paths

        current = ParLoop.execute

        def run(impl, niter=2):
            monkeypatch.setattr(ParLoop, "execute", impl)
            t0 = time.perf_counter()
            app.iterate(niter)
            return time.perf_counter() - t0

        seed_times, new_times = [], []
        for _ in range(5):  # interleave to decorrelate machine noise
            seed_times.append(run(_seed_execute))
            new_times.append(run(current))
        monkeypatch.setattr(ParLoop, "execute", current)
        seed_best, new_best = min(seed_times), min(new_times)
        # min-of-N with a 2 ms absolute floor to absorb scheduler jitter
        assert new_best <= seed_best * 1.05 + 2e-3, (
            f"instrumented par_loop path too slow: {new_best:.4f}s vs "
            f"seed {seed_best:.4f}s")

    def test_enabled_tracing_spans_balance(self):
        """Tracing on: every span closed, no negative durations."""
        app = AirfoilApp(make_airfoil_mesh(24, 8))
        with telemetry.tracing() as rec:
            app.iterate(2)
        rec.validate()
        assert [s for s in rec.spans if s.cat == "op2.compute"]
        tl = merge_timelines([rec])
        assert tl.breakdown()["compute"] > 0
