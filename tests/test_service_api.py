"""Unit tests of the service API surface: requests, cost, admission.

Synchronous layer only — scheduler behavior lives in
``test_service_scheduler.py`` / ``test_service_shutdown.py``.
"""

import pytest

from repro.coupler.setup import setup_fingerprint
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    CostModel,
    EngineCase,
    JobRequest,
    JobStatus,
    SetupCache,
    segment_boundaries,
)


def _request(**kw):
    kw.setdefault("tenant", "acme")
    kw.setdefault("case", EngineCase())
    kw.setdefault("nsteps", 4)
    return JobRequest(**kw)


class TestJobRequest:
    def test_valid_request_passes(self):
        _request().validate()

    @pytest.mark.parametrize("tenant", ["", "-lead", "a b", "x" * 65,
                                        "tenant/../../etc"])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(ValueError, match="tenant"):
            _request(tenant=tenant).validate()

    def test_bad_nsteps_and_deadline(self):
        with pytest.raises(ValueError, match="nsteps"):
            _request(nsteps=0).validate()
        with pytest.raises(ValueError, match="deadline"):
            _request(deadline_s=0.0).validate()

    def test_job_id_namespaced_like_tenants(self):
        with pytest.raises(ValueError, match="job_id"):
            _request(job_id="../escape").validate()


class TestEngineCase:
    def test_run_config_round_trips_case_fields(self):
        case = EngineCase(nr=4, nt=10, rows=2, rpm=9000.0, inner_iters=3)
        cfg = case.run_config()
        assert cfg.rig.rpm == 9000.0
        assert cfg.numerics.inner_iters == 3
        assert cfg.ranks_per_row == case.ranks_per_row

    def test_runtime_overrides_do_not_change_fingerprint(self):
        case = EngineCase()
        base = case.fingerprint()
        cfg = case.run_config(checkpoint_every=2,
                              checkpoint_dir="/tmp/x", trace=True)
        assert setup_fingerprint(cfg) == base

    def test_unknown_override_raises(self):
        with pytest.raises(TypeError, match="unknown"):
            EngineCase().run_config(warp_factor=9)

    def test_distinct_cases_distinct_fingerprints(self):
        assert (EngineCase(nt=12).fingerprint()
                != EngineCase(nt=16).fingerprint())


class TestCostModel:
    def test_estimate_scales_with_work(self):
        cost = CostModel(unit_seconds=1e-6)
        small = cost.estimate_seconds(_request(nsteps=2))
        large = cost.estimate_seconds(_request(nsteps=8))
        assert large == pytest.approx(4 * small)

    def test_first_observation_replaces_prior(self):
        cost = CostModel(unit_seconds=123.0)
        req = _request(nsteps=4)
        cost.observe(req, measured_seconds=2.0)
        assert cost.unit_seconds == pytest.approx(
            2.0 / cost.work_units(req))

    def test_later_observations_are_ewma(self):
        cost = CostModel(unit_seconds=1.0, alpha=0.5)
        req = _request(nsteps=1)
        work = cost.work_units(req)
        cost.observe(req, measured_seconds=1.0 * work)   # replaces prior
        cost.observe(req, measured_seconds=3.0 * work)
        assert cost.unit_seconds == pytest.approx(2.0)

    def test_default_prior_is_paper_anchored(self):
        from repro.perf.calibrate import CALIBRATION

        assert CostModel().unit_seconds == pytest.approx(
            CALIBRATION.unit_seconds["ARCHER2"])


class TestAdmissionController:
    def test_admits_and_tracks_backlog(self):
        ctl = AdmissionController(slots=2, cost=CostModel(unit_seconds=1e-9))
        decision = ctl.consider(_request())
        assert decision.admitted and decision.reason == "ok"
        assert ctl.outstanding("acme") == 1
        assert ctl.backlog_seconds > 0
        ctl.release(_request(), decision)
        assert ctl.outstanding("acme") == 0
        assert ctl.backlog_seconds == pytest.approx(0.0)

    def test_tenant_quota(self):
        ctl = AdmissionController(
            slots=2, policy=AdmissionPolicy(max_jobs_per_tenant=1),
            cost=CostModel(unit_seconds=1e-12))
        assert ctl.consider(_request()).admitted
        verdict = ctl.consider(_request())
        assert not verdict.admitted and verdict.reason == "tenant-quota"
        # other tenants unaffected
        assert ctl.consider(_request(tenant="zenith")).admitted

    def test_backlog_cap(self):
        ctl = AdmissionController(
            slots=1, policy=AdmissionPolicy(max_queue_seconds=1.0),
            cost=CostModel(unit_seconds=10.0))
        verdict = ctl.consider(_request())
        assert not verdict.admitted and verdict.reason == "backlog"

    def test_infeasible_deadline_rejected_at_admission(self):
        ctl = AdmissionController(
            slots=1, policy=AdmissionPolicy(max_queue_seconds=None),
            cost=CostModel(unit_seconds=10.0))
        verdict = ctl.consider(_request(deadline_s=0.5))
        assert not verdict.admitted
        assert verdict.reason == "deadline-infeasible"
        # without a deadline the same job is admitted
        assert ctl.consider(_request()).admitted

    def test_measured_runs_feed_the_cost_model(self):
        cost = CostModel(unit_seconds=1e-3)
        ctl = AdmissionController(
            slots=1, policy=AdmissionPolicy(max_queue_seconds=None),
            cost=cost)
        req = _request()
        decision = ctl.consider(req)
        ctl.release(req, decision, measured_run_s=0.25)
        assert cost.observations == 1
        assert cost.unit_seconds == pytest.approx(
            0.25 / cost.work_units(req))


class TestSetupCacheSync:
    def test_hit_miss_accounting(self):
        cache = SetupCache()
        cfg = EngineCase().run_config()
        first = cache.get(cfg)
        again = cache.get(EngineCase().run_config())
        assert again is first
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert len(cache) == 1

    def test_distinct_cases_build_separately(self):
        cache = SetupCache()
        cache.get(EngineCase(nt=12).run_config())
        cache.get(EngineCase(nt=16).run_config())
        assert cache.stats.misses == 2 and len(cache) == 2


class TestSegmentBoundaries:
    def test_covers_full_run(self):
        assert segment_boundaries(0, 10, 4) == [4, 8, 10]
        assert segment_boundaries(0, 8, 4) == [4, 8]
        assert segment_boundaries(0, 3, 4) == [3]

    def test_resume_midway(self):
        assert segment_boundaries(4, 10, 4) == [8, 10]

    def test_already_done_yields_one_replay(self):
        assert segment_boundaries(10, 10, 4) == [10]

    def test_terminal_statuses(self):
        assert JobStatus.COMPLETED.terminal
        assert JobStatus.SUSPENDED.terminal
        assert not JobStatus.RUNNING.terminal
        assert not JobStatus.QUEUED.terminal
