"""End-to-end fault tolerance: checkpoint/restart + supervised recovery.

The headline guarantee under test: a coupled run that loses a rank at
an *arbitrary* physical step recovers from the latest committed
checkpoint and finishes with monitor history bitwise-identical to an
uninterrupted run — crash-at-every-step sweep, supervisor semantics,
in-run health guards, and a hypothesis contract that injected message
corruption is always either detected or harmless.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.hydra import FlowState, Numerics, SolverDivergence
from repro.mesh import rig250_config
from repro.resilience import (
    CheckpointError,
    FaultPlan,
    RankFailure,
    RecoveryPolicy,
    RunAborted,
    latest_valid_checkpoint,
    resume_coupled,
    run_resilient,
)
from repro.smpi import SimMPIError

from .test_hydra_solver import make_solver

NSTEPS = 4
_TAG_DONOR = 9000


def run_config(ckpt_dir=None, plan=None, **kw):
    base = dict(
        rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                          steps_per_revolution=64),
        ranks_per_row=1,
        cus_per_interface=1,
        numerics=Numerics(inner_iters=4, guard=True),
        inlet=FlowState(ux=0.5),
        p_out=1.0,
        checkpoint_every=2 if ckpt_dir else 0,
        checkpoint_dir=ckpt_dir,
        fault_plan=plan,
    )
    base.update(kw)
    return CoupledRunConfig(**base)


def monitors(result):
    """Everything a recovered run must reproduce bit for bit."""
    return [
        [(row["steps"], row["stations_p"],
          np.asarray(row["midcut_p"]).tolist(), row["unsteadiness"],
          row["wiggle"], row["plane_mdot_in"], row["plane_mdot_out"])
         for row in result.rows],
        [(cu["rounds"], dataclasses.astuple(cu["stats"]))
         for cu in result.cus],
    ]


@pytest.fixture(scope="module")
def truth():
    """Monitor history of the uninterrupted fault-free run."""
    return monitors(CoupledDriver(run_config()).run(NSTEPS))


class TestBitwiseResume:
    def test_checkpointing_does_not_perturb_physics(self, truth, tmp_path):
        result = CoupledDriver(run_config(tmp_path)).run(NSTEPS)
        assert monitors(result) == truth

    def test_resume_from_every_checkpoint_is_bitwise(self, truth, tmp_path):
        CoupledDriver(run_config(tmp_path)).run(NSTEPS)
        steps = sorted(int(p.name.split("-")[1]) for p in tmp_path.iterdir())
        assert steps == [2, 4]
        for step in steps:
            resumed = CoupledDriver(run_config(tmp_path)).run(
                NSTEPS, resume_from=tmp_path / f"step-{step:06d}")
            assert resumed.resumed_from == step
            assert monitors(resumed) == truth, f"resume from step {step}"

    def test_resume_validates_world_size(self, tmp_path):
        CoupledDriver(run_config(tmp_path)).run(NSTEPS)
        bigger = run_config(tmp_path, ranks_per_row=2)
        with pytest.raises(CheckpointError, match="world"):
            CoupledDriver(bigger).run(NSTEPS,
                                      resume_from=tmp_path / "step-000002")

    def test_resume_validates_step_budget(self, tmp_path):
        CoupledDriver(run_config(tmp_path)).run(NSTEPS)
        with pytest.raises(CheckpointError, match="beyond"):
            CoupledDriver(run_config(tmp_path)).run(
                2, resume_from=tmp_path / "step-000004")

    def test_resume_coupled_latest(self, truth, tmp_path):
        CoupledDriver(run_config(tmp_path)).run(NSTEPS)
        resumed = resume_coupled(run_config(tmp_path), NSTEPS)
        assert resumed.resumed_from == 4
        assert monitors(resumed) == truth


class TestCrashSweep:
    def test_crash_at_every_step_recovers_bitwise(self, truth, tmp_path):
        """The acceptance criterion: rank death at ANY physical step ->
        supervised recovery -> final monitors bitwise-equal to the
        fault-free run."""
        for step in range(1, NSTEPS + 1):
            d = tmp_path / f"crash{step}"
            plan = FaultPlan(seed=step).crash(rank=0, step=step)
            result = run_resilient(run_config(d, plan), NSTEPS)
            assert result.recovery.recoveries == 1, f"crash at step {step}"
            restart = result.recovery.events[0].restart_step
            assert restart == (step - 1) // 2 * 2  # latest committed set
            assert monitors(result) == truth, f"crash at step {step}"

    def test_crash_on_cu_rank_recovers(self, truth, tmp_path):
        cu_rank = CoupledDriver(run_config()).setup.cu_ranks[0][0]
        plan = FaultPlan().crash(rank=cu_rank, step=3)
        result = run_resilient(run_config(tmp_path, plan), NSTEPS)
        assert result.recovery.recoveries == 1
        assert monitors(result) == truth

    def test_recovery_without_checkpoints_restarts_cold(self, truth,
                                                        tmp_path):
        plan = FaultPlan().crash(rank=0, step=1)  # before any checkpoint
        result = run_resilient(run_config(tmp_path, plan), NSTEPS)
        assert result.recovery.events[0].restart_step == 0
        assert monitors(result) == truth


class TestSupervisor:
    def test_budget_exhaustion_raises_run_aborted(self, tmp_path):
        class AlwaysCrash(FaultPlan):
            def on_step(self, rank, step):
                if rank == 0 and step == 1:
                    raise RankFailure("scripted", rank=rank, step=step)

        cfg = run_config(tmp_path, AlwaysCrash())
        with pytest.raises(RunAborted) as exc:
            run_resilient(cfg, NSTEPS, policy=RecoveryPolicy(max_retries=2))
        aborted = exc.value
        assert len(aborted.failures) == 3  # 1 attempt + 2 retries
        assert all(isinstance(f, RankFailure) for f in aborted.failures)
        assert aborted.log.recoveries == 2

    def test_backoff_is_capped_exponential(self):
        policy = RecoveryPolicy(backoff_base=0.5, backoff_cap=1.5)
        assert [policy.backoff(i) for i in range(4)] == [0.5, 1.0, 1.5, 1.5]
        assert RecoveryPolicy(backoff_base=0.0).backoff(3) == 0.0

    def test_supervisor_sleeps_backoff(self, tmp_path):
        naps = []
        plan = FaultPlan().crash(rank=0, step=1)
        policy = RecoveryPolicy(backoff_base=0.25, backoff_cap=1.0)
        result = run_resilient(run_config(tmp_path, plan), NSTEPS,
                               policy=policy, sleep=naps.append)
        assert naps == [0.25]
        assert result.recovery.events[0].backoff == 0.25

    def test_unrecoverable_error_passes_through(self, tmp_path):
        cfg = run_config(tmp_path)
        with pytest.raises(ValueError):
            run_resilient(cfg, -1)  # driver argument error, not a fault

    def test_recovery_log_serializes(self, tmp_path):
        import json

        plan = FaultPlan().crash(rank=0, step=3)
        result = run_resilient(run_config(tmp_path, plan), NSTEPS)
        doc = json.dumps(result.recovery.as_dict())
        assert "RankFailure" in doc


class TestCUTimeouts:
    def test_dropped_donor_times_out_instead_of_hanging(self, tmp_path):
        plan = FaultPlan().drop(src=0, dst=2, tag=_TAG_DONOR)
        cfg = run_config(tmp_path, plan, cu_request_timeout=0.5,
                         timeout=60.0)
        start = time.monotonic()
        with pytest.raises(SimMPIError):
            CoupledDriver(cfg).run(NSTEPS)
        assert time.monotonic() - start < 30.0  # not the 60 s watchdog

    def test_dropped_donor_recovers_under_supervision(self, truth, tmp_path):
        plan = FaultPlan().drop(src=0, dst=2, tag=_TAG_DONOR, count=2)
        cfg = run_config(tmp_path, plan, cu_request_timeout=0.5,
                         timeout=60.0)
        result = run_resilient(cfg, NSTEPS)
        assert result.recovery.recoveries == 1
        assert monitors(result) == truth


class TestHealthGuards:
    def test_nan_trips_divergence(self):
        solver, _mesh, _ = make_solver(num_kw={"guard": True})
        solver.advance_physical()
        solver.q.data_with_halos[3, 1] = np.nan
        with pytest.raises(SolverDivergence, match="non-finite"):
            solver.check_health()

    def test_blowup_trips_divergence(self):
        solver, _mesh, _ = make_solver(
            num_kw={"guard": True, "divergence_limit": 10.0})
        solver.q.data_with_halos[0, 4] = 50.0
        with pytest.raises(SolverDivergence, match="limit"):
            solver.check_health()

    def test_guard_off_by_default(self):
        solver, _mesh, _ = make_solver()
        assert solver.num.guard is False

    def test_run_guarded_rolls_back_with_cfl_reduction(self, tmp_path):
        solver, _mesh, _ = make_solver(num_kw={"guard": True})
        cfl0 = solver.num.cfl
        poisoned = {"armed": True}
        advance = solver.advance_physical

        def sabotage():
            advance()
            if solver.step == 3 and poisoned.pop("armed", False):
                solver.q.data_with_halos[0, 0] = np.nan
                solver.check_health()

        solver.advance_physical = sabotage
        rollbacks = solver.run_guarded(5, tmp_path / "guard",
                                       checkpoint_every=2)
        assert rollbacks == 1
        assert solver.step == 5
        assert solver.num.cfl == pytest.approx(cfl0 * 0.5)
        assert np.isfinite(solver.q.data_ro).all()

    def test_run_guarded_gives_up_past_budget(self, tmp_path):
        solver, _mesh, _ = make_solver(num_kw={"guard": True})
        advance = solver.advance_physical

        def sabotage():
            advance()
            if solver.step == 2:
                solver.q.data_with_halos[0, 0] = np.nan
                solver.check_health()

        solver.advance_physical = sabotage
        with pytest.raises(SolverDivergence):
            solver.run_guarded(4, tmp_path / "guard", checkpoint_every=1,
                               max_rollbacks=2)

    def test_corrupted_coupling_recovers_via_guard(self, truth, tmp_path):
        """A NaN injected into donor traffic crosses the sliding plane,
        trips the receiving solver's health guard, and supervised
        recovery (CFL untouched) replays to a bitwise-identical end."""
        plan = FaultPlan(seed=2).corrupt(src=0, dst=2, tag=_TAG_DONOR,
                                         count=2, mode="nan")
        policy = RecoveryPolicy(cfl_backoff=1.0)
        result = run_resilient(run_config(tmp_path, plan), NSTEPS,
                               policy=policy)
        kinds = {ev.error_type for ev in result.recovery.events}
        assert result.recovery.recoveries >= 1
        assert "SolverDivergence" in kinds
        assert monitors(result) == truth


class TestCorruptionContract:
    """Hypothesis: any injected corruption is detected or harmless."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), count=st.integers(0, 5),
           mode=st.sampled_from(["nan", "bitflip"]))
    def test_corruption_detected_or_harmless(self, seed, count, mode):
        plan = FaultPlan(seed=seed).corrupt(tag=_TAG_DONOR, count=count,
                                            mode=mode)
        cfg = run_config(plan=plan, timeout=60.0)
        try:
            result = CoupledDriver(cfg).run(2)
        except (SolverDivergence, SimMPIError):
            return  # detected: typed failure, no silent garbage
        # harmless: the run finished with finite physics everywhere
        for row in result.rows:
            assert np.isfinite(row["stations_p"]).all()
            assert np.isfinite(np.asarray(row["midcut_p"])).all()
            assert np.isfinite(row["wiggle"])
