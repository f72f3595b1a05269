"""The coupled-run glue states each fact once: one setup record, one
step schedule walked by every role, one solver state format.

Structural tests: the cadence both role loops must agree on
(``couple_every`` x ``checkpoint_every``), the monolithic baseline
honouring the config it is given, the :class:`DriverSetup` record and
its builder, and the solver/driver restore pair.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro import op2
from repro.coupler import (
    CoupledDriver,
    CoupledRunConfig,
    MonolithicDriver,
    build_driver_setup,
    setup_fingerprint,
)
from repro.coupler.monitors import ProbeRecorder
from repro.coupler.ranks import (
    RunContext,
    _hs_member_payload,
    _hs_restore,
    _open_session,
)
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.resilience import FaultPlan, RankFailure, load_manifest
from repro.service import result_digest
from repro.smpi import TransportError, run_ranks
from repro.util.atomicio import atomic_savez, load_npz


def run_config(**kw):
    base = dict(
        rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                          steps_per_revolution=64),
        numerics=Numerics(inner_iters=3),
        inlet=FlowState(ux=0.5),
        p_out=1.0,
    )
    base.update(kw)
    return CoupledRunConfig(**base)


class TestCadence:
    """couple_every=2, checkpoint_every=3 over 6 steps: HS and CU ranks
    agree on every round and every barrier, or this deadlocks."""

    NSTEPS = 6

    def cfg(self, ckpt_dir, **kw):
        return run_config(ranks_per_row=2, cus_per_interface=2,
                          couple_every=2, checkpoint_every=3,
                          checkpoint_dir=ckpt_dir, timeout=60.0, **kw)

    def test_rounds_sets_resume_and_transport(self, tmp_path):
        full = CoupledDriver(self.cfg(tmp_path / "a")).run(self.NSTEPS)
        # round 0 + steps 2, 4, 6
        assert [cu["rounds"] for cu in full.cus] == [4, 4]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "step-000003", "step-000006"]

        resumed = CoupledDriver(self.cfg(tmp_path / "a")).run(
            self.NSTEPS, resume_from=tmp_path / "a" / "step-000003")
        assert resumed.resumed_from == 3
        assert resumed.monitor_payload() == full.monitor_payload()

        forked = CoupledDriver(
            self.cfg(tmp_path / "b", transport="process")).run(self.NSTEPS)
        assert result_digest(forked) == result_digest(full)
        assert load_manifest(tmp_path / "b" / "step-000006").step == 6

    def test_cadence_changes_the_answer(self):
        """couple_every is not a no-op: stale interfaces move the flow."""
        every1 = CoupledDriver(run_config()).run(4)
        every2 = CoupledDriver(run_config(couple_every=2)).run(4)
        assert [cu["rounds"] for cu in every2.cus] == [3]
        assert every1.monitor_payload() != every2.monitor_payload()


class TestMonolithicHonoursItsConfig:
    def test_process_lazy_equals_thread_eager(self):
        """``CoupledRunConfig.lazy`` has no effect; the transport none
        on the results."""
        eager = MonolithicDriver(run_config(transport="thread")).run(3)
        lazy = MonolithicDriver(
            run_config(transport="process", lazy=True)).run(3)
        assert lazy.monitor_payload() == eager.monitor_payload()
        assert lazy.rank_search_comparisons == eager.rank_search_comparisons

    @pytest.mark.parametrize("thread_only", [{"schedule_seed": 3}])
    def test_thread_only_features_rejected_on_process(self, thread_only):
        driver = MonolithicDriver(
            run_config(transport="process", **thread_only))
        with pytest.raises(TransportError, match="scheduler"):
            driver.run(1)

    def test_ranks_see_transport_lazy_and_sanitize(self, tmp_path,
                                                   monkeypatch):
        """Every inline transfer runs in a forked child with the
        config's op2 switches applied (a fork inherits the patch);
        ``lazy``, a field without effect, does not reach the ranks."""
        import repro.coupler.monolithic as mono

        class Spy(mono.CUTransferEngine):
            def serve(self, *args, **kw):
                conf = op2.current_config()
                with open(tmp_path / f"rank-{os.getpid()}", "w") as fh:
                    fh.write(f"{conf.lazy} {conf.sanitize}")
                return super().serve(*args, **kw)

        monkeypatch.setattr(mono, "CUTransferEngine", Spy)
        MonolithicDriver(run_config(
            transport="process", lazy=True, sanitize=True)).run(1)
        seen = list(tmp_path.iterdir())
        assert len(seen) == 2
        assert f"rank-{os.getpid()}" not in {p.name for p in seen}
        assert {p.read_text() for p in seen} == {"False True"}

    def test_fault_plan_and_step_marks_reach_the_ranks(self):
        plan = FaultPlan().crash(rank=0, step=2)
        with pytest.raises(RankFailure) as exc:
            MonolithicDriver(run_config(fault_plan=plan)).run(3)
        assert (exc.value.rank, exc.value.step) == (0, 2)

    def test_couple_every_matches_the_coupled_run(self):
        mono = MonolithicDriver(run_config(couple_every=2)).run(4)
        coupled = CoupledDriver(run_config(couple_every=2)).run(4)
        np.testing.assert_allclose(mono.pressure_profile()[1],
                                   coupled.pressure_profile()[1], rtol=1e-10)
        every1 = MonolithicDriver(run_config()).run(4)
        assert mono.monitor_payload() != every1.monitor_payload()

    def test_checkpointing_rejected_not_dropped(self, tmp_path):
        with pytest.raises(ValueError, match="cannot checkpoint"):
            MonolithicDriver(run_config(checkpoint_every=2,
                                        checkpoint_dir=tmp_path))

    def test_world_is_the_solver_ranks(self):
        driver = MonolithicDriver(run_config(ranks_per_row=2,
                                             cus_per_interface=3))
        assert driver.n_world == 4
        assert driver.setup.cu_ranks == [[]]
        assert driver.setup.row_ranks == [[0, 1], [2, 3]]


class TestSetupRecord:
    def test_builder_fingerprints_its_config(self):
        cfg = run_config(ranks_per_row=2)
        setup = build_driver_setup(cfg)
        assert setup.fingerprint == setup_fingerprint(cfg)
        assert setup.n_world == 5

    def test_driver_holds_the_shared_record(self):
        cfg = run_config()
        shared = build_driver_setup(cfg)
        driver = CoupledDriver(run_config(p_out=1.01), shared=shared)
        assert driver.setup is shared
        assert driver.interfaces is shared.interfaces
        assert driver.directions is shared.directions
        assert driver.n_world == shared.n_world == 3

    def test_foreign_fingerprint_rejected(self):
        shared = build_driver_setup(run_config())
        with pytest.raises(ValueError, match="different case"):
            CoupledDriver(run_config(cus_per_interface=2), shared=shared)

    def test_builder_validates_like_the_constructor(self):
        cfg = run_config()
        row = cfg.rig.rows[1]
        k = next(k for k in range(2, row.blade_count + 1)
                 if row.blade_count % k == 0)
        cfg.rig.rows[1] = dataclasses.replace(row, sector=k)
        for build in (build_driver_setup, CoupledDriver):
            with pytest.raises(ValueError, match="sector angles"):
                build(cfg)
        with pytest.raises(ValueError, match="at least 2 rows"):
            build_driver_setup(run_config(
                rig=rig250_config(nr=3, nt=12, nx=4, rows=1)))


class TestStatePair:
    def test_solver_restore_equals_member_restore(self, tmp_path):
        """HydraSolver.restore(checkpoint) and the driver's HS member
        restore are one loader: same arrays, clock, stale halos."""
        cfg = run_config(ranks_per_row=2)
        ctx = RunContext(setup=build_driver_setup(cfg), cfg=cfg, nsteps=0)

        def fn(comm):
            def fresh():
                session = _open_session(comm, 0, ctx)
                return session.solver, ProbeRecorder(session)

            ref, ref_probe = fresh()
            ref.run(2)
            ref_probe.record()
            own = ref.checkpoint(tmp_path / f"solver-{comm.rank}")
            member = atomic_savez(tmp_path / f"member-{comm.rank}",
                                  **_hs_member_payload(ref, ref_probe))

            a, _ = fresh()
            a.pseudo_dt()
            a.restore(own)
            b, b_probe = fresh()
            b.pseudo_dt()
            with load_npz(member) as archive:
                _hs_restore(archive, b, b_probe)
            np.testing.assert_array_equal(b_probe.history,
                                          ref_probe.history)
            for s in (a, b):
                assert (s.time, s.step) == (ref.time, 2)
                assert s._pseudo_dt is None
                for name in ("q", "qn", "qnm1"):
                    dat, want = getattr(s, name), getattr(ref, name)
                    assert not dat.halo_fresh
                    np.testing.assert_array_equal(
                        dat.data_ro, want.data_ro)
            for s in (ref, a, b):
                s.advance_physical()
            return [s.q.data_ro.tobytes() for s in (ref, a, b)]

        for ref, a, b in run_ranks(2, fn, transport="thread", timeout=60.0):
            assert ref == a == b
