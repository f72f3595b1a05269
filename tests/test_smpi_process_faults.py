"""Process-transport fault tolerance: injection, crash supervision,
heartbeats and shared-memory hygiene.

The process transport is a first-class fault domain: FaultPlans run
inside each forked rank with thread-transport semantics (fire-once
state merged back to the parent), ``crash_hard`` SIGKILLs a child to
model real node death, abnormal death surfaces as a typed
:class:`ProcessRankDied` naming rank and signal (never a bare hang or
an unpickling error), the optional heartbeat reaps wedged ranks in
seconds, and every crash path leaves zero ``/dev/shm`` orphans.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.resilience import RECOVERABLE
from repro.smpi import (
    HEARTBEAT_ENV,
    FaultPlan,
    ProcessRankDied,
    RankFailure,
    TransportError,
    heartbeat_seconds,
    run_ranks,
)

TIMEOUT = 60.0


def _shm_snapshot():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture()
def no_shm_orphans():
    """Assert the test leaked no new /dev/shm segments."""
    before = _shm_snapshot()
    yield
    # queue feeder threads may need a beat to finish unlinking
    for _ in range(50):
        leaked = _shm_snapshot() - before
        if not leaked:
            return
        time.sleep(0.1)
    assert not leaked, f"orphan shm segments: {sorted(leaked)}"


def _stepper(comm, nsteps=6):
    """Rank body exercising steps, collectives and large p2p traffic."""
    acc = np.full(8, float(comm.rank))
    for step in range(nsteps):
        comm.notify_step(step)
        total = comm.allreduce(acc, "sum")
        if comm.rank == 0:
            comm.send(np.arange(65536, dtype=np.float64) + step, 1, tag=5)
        if comm.rank == 1:
            comm.recv(0, tag=5)
        acc = acc + total * 1e-3
    return float(acc.sum())


class TestProcessFaultInjection:
    def test_soft_crash_typed_and_fire_once(self, no_shm_orphans):
        """crash() on process transport == thread semantics: typed
        RankFailure with rank/step, spent after firing, retry clean."""
        plan = FaultPlan().crash(rank=2, step=3)
        with pytest.raises(RankFailure) as exc:
            run_ranks(4, _stepper, transport="process", fault_plan=plan,
                      timeout=TIMEOUT)
        assert not isinstance(exc.value, ProcessRankDied)
        assert exc.value.rank == 2 and exc.value.step == 3
        # the child's fire-once delta was merged back into this object
        assert plan.pending == 0
        assert [f.kind for f in plan.fired] == ["crash"]
        clean = run_ranks(4, _stepper, transport="process",
                          fault_plan=plan, timeout=TIMEOUT)
        truth = run_ranks(4, _stepper, transport="thread", timeout=TIMEOUT)
        assert clean == truth

    def test_crash_hard_sigkills_and_names_rank_step_signal(
            self, no_shm_orphans):
        plan = FaultPlan().crash_hard(rank=1, step=2)
        start = time.monotonic()
        with pytest.raises(ProcessRankDied) as exc:
            run_ranks(4, _stepper, transport="process", fault_plan=plan,
                      timeout=TIMEOUT)
        # detected via the process sentinel, not a watchdog wait
        assert time.monotonic() - start < 15.0
        err = exc.value
        assert err.rank == 1 and err.step == 2
        assert err.signal == signal.SIGKILL
        assert err.reason == "exit"
        assert "crash_hard" in str(err) and "SIGKILL" in str(err)
        # pre-death notice shipped the fire-once state before the kill
        assert plan.pending == 0
        assert [f.kind for f in plan.fired] == ["crash_hard"]
        clean = run_ranks(4, _stepper, transport="process",
                          fault_plan=plan, timeout=TIMEOUT)
        truth = run_ranks(4, _stepper, transport="thread", timeout=TIMEOUT)
        assert clean == truth

    def test_message_faults_match_thread_semantics(self, no_shm_orphans):
        """duplicate fires on the sending rank and the merged state
        records it exactly once."""
        plan = FaultPlan().duplicate(src=0, dst=1, tag=5, count=1)
        run_ranks(4, _stepper, transport="process", fault_plan=plan,
                  timeout=TIMEOUT)
        assert [f.kind for f in plan.fired] == ["duplicate"]
        assert plan.pending == 0

    def test_corrupt_hits_receiver_not_sender(self, no_shm_orphans):
        def body(comm):
            comm.notify_step(0)
            if comm.rank == 0:
                buf = np.ones(8)
                comm.send(buf, 1, tag=7)
                # value semantics: the fault corrupts the wire copy
                return bool(np.isnan(buf).any())
            return bool(np.isnan(comm.recv(0, tag=7)).any())

        plan = FaultPlan().corrupt(src=0, dst=1, tag=7, mode="nan")
        sender_nan, receiver_nan = run_ranks(
            2, body, transport="process", fault_plan=plan, timeout=TIMEOUT)
        assert receiver_nan is True
        assert sender_nan is False

    def test_collectives_bypass_faults(self, no_shm_orphans):
        """Parity rule: message faults never touch collective traffic."""
        def body(comm):
            comm.notify_step(0)
            return comm.allreduce(float(comm.rank), "sum")

        plan = FaultPlan().drop(src=0, dst=1, tag=None)
        assert run_ranks(2, body, transport="process", fault_plan=plan,
                         timeout=TIMEOUT) == [1.0, 1.0]
        assert plan.pending == 1  # never matched


class TestValidation:
    def test_thread_rejects_crash_hard(self):
        plan = FaultPlan().crash_hard(rank=0, step=1)
        with pytest.raises(TransportError, match="crash_hard"):
            run_ranks(2, _stepper, transport="thread", fault_plan=plan,
                      timeout=TIMEOUT)

    def test_process_rejects_wildcard_src(self):
        plan = FaultPlan().corrupt(dst=1, tag=7)
        with pytest.raises(TransportError, match="explicit src"):
            run_ranks(2, _stepper, transport="process", fault_plan=plan,
                      timeout=TIMEOUT)

    def test_plan_pickles_without_runtime_state(self):
        import pickle

        plan = FaultPlan(seed=5).crash_hard(rank=1, step=2).drop(
            src=0, dst=1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.pending == 2
        assert clone.has_hard_crashes
        # rebuilt runtime state, independent of the original
        assert clone._lock is not plan._lock


class TestAbnormalDeath:
    def test_raw_sigkill_reported_typed_not_hang(self, no_shm_orphans):
        """A child killed by the OS (no fault plan at all) surfaces as
        ProcessRankDied naming rank and signal, fast."""
        def killer(comm):
            for step in range(50):
                comm.notify_step(step)
                if comm.rank == 2 and step == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                comm.barrier()
            return comm.rank

        start = time.monotonic()
        with pytest.raises(ProcessRankDied) as exc:
            run_ranks(4, killer, transport="process", timeout=TIMEOUT)
        assert time.monotonic() - start < 15.0
        assert exc.value.rank == 2
        assert exc.value.signal == signal.SIGKILL
        assert "SIGKILL" in str(exc.value)

    def test_sigkill_mid_send_leaves_no_shm_orphans(self, no_shm_orphans):
        """The /dev/shm leak audit: a rank dies with multiple large
        shm payloads in flight (enqueued, never received) — the parent
        drain plus the name-prefix sweep reclaim every segment."""
        def body(comm):
            comm.notify_step(0)
            if comm.rank == 0:
                for i in range(4):
                    comm.send(np.full(65536, float(i)), 1, tag=9)
                os.kill(os.getpid(), signal.SIGKILL)
            # rank 1 never receives: payloads stay parked in its queue
            comm.recv(0, tag=99, timeout=TIMEOUT)

        with pytest.raises(ProcessRankDied) as exc:
            run_ranks(2, body, transport="process", timeout=TIMEOUT)
        assert exc.value.rank == 0
        # the fixture asserts the actual guarantee on teardown

    def test_process_rank_died_is_recoverable_and_pickles(self):
        import pickle

        err = ProcessRankDied("rank 3 died", rank=3, step=7,
                              signal=9, exitcode=-9, reason="exit")
        assert isinstance(err, RankFailure)
        assert isinstance(err, RECOVERABLE)
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.rank, clone.step, clone.signal, clone.exitcode,
                clone.reason) == (3, 7, 9, -9, "exit")


class TestHeartbeat:
    def test_resolver_precedence(self, monkeypatch):
        monkeypatch.delenv(HEARTBEAT_ENV, raising=False)
        assert heartbeat_seconds() is None          # default: disabled
        assert heartbeat_seconds(2.5) == 2.5
        assert heartbeat_seconds(0.0) is None       # non-positive = off
        monkeypatch.setenv(HEARTBEAT_ENV, "1.5")
        assert heartbeat_seconds() == 1.5
        assert heartbeat_seconds(3.0) == 3.0        # kwarg wins
        monkeypatch.setenv(HEARTBEAT_ENV, "not-a-number")
        assert heartbeat_seconds() is None

    def test_heartbeat_reaps_wedged_child_fast(self):
        """The acceptance test: 1s heartbeat vs an 8s-hung child — the
        typed error lands within the heartbeat deadline (plus grace),
        nowhere near the 8s sleep or the watchdog."""
        def wedge(comm):
            comm.notify_step(0)
            if comm.rank == 1:
                time.sleep(8.0)  # no comm, no steps: silent
            comm.barrier()
            return comm.rank

        start = time.monotonic()
        with pytest.raises(ProcessRankDied) as exc:
            run_ranks(3, wedge, transport="process", timeout=TIMEOUT,
                      heartbeat_s=1.0)
        elapsed = time.monotonic() - start
        assert elapsed < 6.0, elapsed
        assert exc.value.rank == 1
        assert exc.value.reason == "heartbeat"
        assert "no heartbeat" in str(exc.value)

    def test_heartbeat_env_knob(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "1.0")

        def wedge(comm):
            comm.notify_step(0)
            if comm.rank == 0:
                time.sleep(8.0)
            comm.barrier()
            return comm.rank

        start = time.monotonic()
        with pytest.raises(ProcessRankDied, match="no heartbeat"):
            run_ranks(2, wedge, transport="process", timeout=TIMEOUT)
        assert time.monotonic() - start < 6.0

    def test_healthy_ranks_not_falsely_reaped(self):
        """Ranks that keep stepping/communicating beat implicitly and
        survive a tight heartbeat."""
        def healthy(comm):
            for step in range(15):
                comm.notify_step(step)
                comm.barrier()
                time.sleep(0.02)
            return comm.rank

        assert run_ranks(3, healthy, transport="process", timeout=TIMEOUT,
                         heartbeat_s=1.0) == [0, 1, 2]


class TestTeardownDrain:
    """The parent drains the rank queues only when something may be
    left in one: every rank ``ok`` with as many items taken off the
    queues as were put on them proves them empty."""

    @pytest.fixture()
    def drains(self, monkeypatch):
        from repro.smpi import transport

        calls = []
        real = transport._drain_queues

        def counted(queues):
            calls.append(len(queues))
            real(queues)

        monkeypatch.setattr(transport, "_drain_queues", counted)
        return calls

    def test_clean_run_skips_the_drain(self, drains, no_shm_orphans):
        assert len(run_ranks(2, _stepper, transport="process",
                             timeout=TIMEOUT)) == 2
        assert drains == []

    def test_unreceived_message_is_drained(self, drains, no_shm_orphans):
        def body(comm):
            if comm.rank == 0:  # a large (shm) payload nobody receives
                comm.send(np.full(65536, 1.0), 1, tag=9)
            return comm.rank

        assert run_ranks(2, body, transport="process",
                         timeout=TIMEOUT) == [0, 1]
        assert drains == [2]

    def test_failed_run_is_drained(self, drains, no_shm_orphans):
        def body(comm):
            comm.barrier()
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(ValueError, match="boom"):
            run_ranks(2, body, transport="process", timeout=TIMEOUT)
        assert drains == [2]
