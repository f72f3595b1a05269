"""Cross-transport resilience certification.

The recovery guarantees of ``tests/test_resilience_recovery.py`` —
crash at any step recovers bitwise-identically from the latest
committed checkpoint — re-certified over *both* smpi transports via
the ``smpi_transport`` fixture, plus the process-only scenarios the
thread transport cannot express (``crash_hard`` node death) and the
service-level guarantee that a process-transport job survives an
injected crash invisibly.

Bitwise truth is the fault-free **thread**-transport run: collectives
fold in ascending rank order on both transports, so every recovered
result must match it digest-for-digest regardless of transport.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.resilience import FaultPlan, run_resilient

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


def monitor_digest(result):
    """sha256 over the full monitor history — bitwise identity check."""
    doc = [
        [(row["steps"], np.asarray(row["stations_p"]).tolist(),
          np.asarray(row["midcut_p"]).tolist(), row["unsteadiness"],
          row["wiggle"], row["plane_mdot_in"], row["plane_mdot_out"])
         for row in result.rows],
        [(cu["rounds"], dataclasses.astuple(cu["stats"]))
         for cu in result.cus],
    ]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def truth_digest():
    """Digest of the uninterrupted fault-free thread-transport run."""
    return monitor_digest(
        CoupledDriver(run_config(transport="thread")).run(NSTEPS))


def _cu_rank():
    return CoupledDriver(run_config(transport="thread")).setup.cu_ranks[0][0]


def _scenarios():
    """The 4-scenario fault matrix, transport-portable (pinned src)."""
    cu = _cu_rank()
    return {
        "crash-hs": (FaultPlan(seed=1).crash(rank=0, step=3), {}),
        "crash-cu": (FaultPlan(seed=2).crash(rank=cu, step=3), {}),
        "drop-donor": (
            FaultPlan(seed=3).drop(src=0, dst=cu, tag=_TAG_DONOR, count=2),
            dict(cu_request_timeout=0.5, timeout=60.0)),
        "corrupt-donor": (
            FaultPlan(seed=4).corrupt(src=0, dst=cu, tag=_TAG_DONOR,
                                      count=2, mode="nan"),
            {}),
    }


class TestCrossTransportSweep:
    def test_crash_at_every_step_recovers_bitwise(self, smpi_transport,
                                                  truth_digest, tmp_path):
        """The headline sweep, on whichever transport the fixture set:
        rank death at ANY step -> recovery -> digest equal to the
        fault-free thread run, with exactly one recovery each."""
        for step in range(1, NSTEPS + 1):
            d = tmp_path / f"crash{step}"
            plan = FaultPlan(seed=step).crash(rank=0, step=step)
            result = run_resilient(run_config(d, plan), NSTEPS)
            assert result.recovery.recoveries == 1, \
                f"{smpi_transport}: crash at step {step}"
            assert monitor_digest(result) == truth_digest, \
                f"{smpi_transport}: crash at step {step}"

    def test_fault_matrix_digest_and_recovery_parity(self, smpi_transport,
                                                     truth_digest,
                                                     tmp_path):
        """4-scenario matrix: every recovered result is bitwise-equal
        to the thread truth and the resilience.recoveries count is
        transport-independent (pinned in-line, so a parity break on
        either transport fails that transport's run)."""
        expected_recoveries = {"crash-hs": 1, "crash-cu": 1,
                               "drop-donor": 1, "corrupt-donor": 1}
        for name, (plan, extra) in _scenarios().items():
            d = tmp_path / name
            result = run_resilient(run_config(d, plan, **extra), NSTEPS)
            assert result.recovery.recoveries == expected_recoveries[name], \
                f"{smpi_transport}: {name}"
            assert monitor_digest(result) == truth_digest, \
                f"{smpi_transport}: {name}"


class TestProcessOnlyScenarios:
    def test_crash_hard_recovers_bitwise(self, truth_digest, tmp_path):
        """Real node death (SIGKILL mid-step) on the process transport
        recovers from the latest checkpoint bitwise-identically."""
        plan = FaultPlan(seed=9).crash_hard(rank=0, step=3)
        result = run_resilient(
            run_config(tmp_path, plan, transport="process"), NSTEPS)
        assert result.recovery.recoveries == 1
        assert result.recovery.events[0].error_type == "ProcessRankDied"
        assert monitor_digest(result) == truth_digest

    def test_crash_hard_on_cu_rank_recovers_bitwise(self, truth_digest,
                                                    tmp_path):
        plan = FaultPlan(seed=10).crash_hard(rank=_cu_rank(), step=2)
        result = run_resilient(
            run_config(tmp_path, plan, transport="process"), NSTEPS)
        assert result.recovery.recoveries == 1
        assert monitor_digest(result) == truth_digest

    def test_mixed_soft_and_hard_crashes_recover(self, truth_digest,
                                                 tmp_path):
        """One retry per failure: soft crash then hard crash, two
        recoveries, still bitwise."""
        plan = (FaultPlan(seed=11).crash(rank=0, step=2)
                .crash_hard(rank=0, step=3))
        result = run_resilient(
            run_config(tmp_path, plan, transport="process"), NSTEPS)
        assert result.recovery.recoveries == 2
        assert monitor_digest(result) == truth_digest


class TestServiceProcessJobs:
    def test_process_job_survives_crash_invisibly(self, tmp_path):
        """Acceptance: a service job with a process-transport override
        and an injected mid-run crash completes with recoveries >= 1
        and a digest equal to the undisturbed (thread) run."""
        import asyncio

        from repro.service import EngineCase, JobRequest, JobScheduler

        case = EngineCase()

        async def submit(root, **kw):
            async with JobScheduler(slots=1, checkpoint_root=root) as sched:
                handle = await sched.submit(
                    JobRequest(tenant="acme", case=case, nsteps=6, **kw))
                return await handle.result()

        reference = asyncio.run(submit(tmp_path / "ref"))
        assert reference.ok

        disturbed = asyncio.run(submit(
            tmp_path / "proc", transport="process",
            fault_plan=FaultPlan().crash_hard(rank=0, step=3)))
        assert disturbed.ok, disturbed.error
        assert disturbed.recovery["recoveries"] >= 1
        assert disturbed.digest == reference.digest

    def test_bad_transport_rejected_at_validation(self):
        from repro.service import EngineCase, JobRequest

        request = JobRequest(tenant="acme", case=EngineCase(), nsteps=2,
                             transport="carrier-pigeon")
        with pytest.raises(ValueError, match="transport"):
            request.validate()
