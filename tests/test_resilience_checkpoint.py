"""Coordinated checkpoint sets: manifest protocol and atomic I/O.

The commit protocol's contract: a checkpoint set is either fully
committed (manifest verifies every member's sha256) or invisible to
recovery. Torn members, truncated manifests, staging leftovers and
schema drift must all be *discarded*, never restored.
"""

import json
import threading

import numpy as np
import pytest

from repro.op2 import io as op2io
from repro.op2.distribute import GlobalProblem
from repro.resilience import (
    MANIFEST_SCHEMA,
    CheckpointError,
    CheckpointManager,
    latest_valid_checkpoint,
    load_manifest,
)
from repro.resilience.checkpoint import member_name, step_dirname
from repro.util.atomicio import (
    ast_lock,
    atomic_savez,
    atomic_write_text,
    load_npz,
    sha256_file,
)


def _write_set(ckpt_dir, step, world=2, value=1.0):
    mgr = CheckpointManager(ckpt_dir, world)
    mgr.prepare(step)
    for rank in range(world):
        mgr.write_member(step, rank, q=np.full(4, value + rank),
                         clock=np.array([0.1, float(step)]))
    return mgr.commit(step, meta={"value": value})


class TestCommitProtocol:
    def test_roundtrip(self, tmp_path):
        final = _write_set(tmp_path, 5)
        assert final.name == step_dirname(5) == "step-000005"
        man = load_manifest(final)
        assert man.step == 5 and man.world == 2
        assert man.meta == {"value": 1.0}
        assert sorted(man.files) == [member_name(0), member_name(1),
                                     ] == ["rank-0000.npz", "rank-0001.npz"]
        with np.load(man.member(1)) as archive:
            assert np.array_equal(archive["q"], np.full(4, 2.0))

    def test_commit_removes_staging_dir(self, tmp_path):
        _write_set(tmp_path, 3)
        assert not (tmp_path / "step-000003.tmp").exists()

    def test_commit_refuses_missing_member(self, tmp_path):
        mgr = CheckpointManager(tmp_path, world=2)
        mgr.prepare(1)
        mgr.write_member(1, 0, q=np.zeros(2))
        with pytest.raises(CheckpointError, match="never staged"):
            mgr.commit(1)

    def test_recommit_replaces_existing_step(self, tmp_path):
        _write_set(tmp_path, 2, value=1.0)
        _write_set(tmp_path, 2, value=9.0)  # recovery replayed past it
        assert load_manifest(tmp_path / "step-000002").meta["value"] == 9.0

    def test_member_for_unknown_rank_raises(self, tmp_path):
        man = load_manifest(_write_set(tmp_path, 1))
        with pytest.raises(CheckpointError, match="no member"):
            man.member(7)


class TestTornSetsAreDiscarded:
    def test_truncated_member_fails_verification(self, tmp_path):
        final = _write_set(tmp_path, 4)
        member = final / member_name(0)
        member.write_bytes(member.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_manifest(final)

    def test_missing_member_fails_verification(self, tmp_path):
        final = _write_set(tmp_path, 4)
        (final / member_name(1)).unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_manifest(final)

    def test_torn_manifest_fails(self, tmp_path):
        final = _write_set(tmp_path, 4)
        (final / "manifest.json").write_text('{"schema": 1, "step"')
        with pytest.raises(CheckpointError, match="unreadable or torn"):
            load_manifest(final)

    def test_schema_drift_fails(self, tmp_path):
        final = _write_set(tmp_path, 4)
        raw = json.loads((final / "manifest.json").read_text())
        raw["schema"] = MANIFEST_SCHEMA + 1
        (final / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match="schema"):
            load_manifest(final)

    def test_schema_1_sets_are_discarded(self, tmp_path):
        """Sets written before CU members were versioned (they may lack
        ``flux_log`` and the donor caches) are skipped, not half-restored."""
        _write_set(tmp_path, 2)
        old = _write_set(tmp_path, 6)
        raw = json.loads((old / "manifest.json").read_text())
        raw["schema"] = 1
        (old / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match="schema 1 != 2"):
            load_manifest(old)
        assert latest_valid_checkpoint(tmp_path).step == 2

    def test_latest_valid_skips_torn_newest(self, tmp_path):
        _write_set(tmp_path, 2)
        newest = _write_set(tmp_path, 6)
        (newest / member_name(0)).write_bytes(b"garbage")
        man = latest_valid_checkpoint(tmp_path)
        assert man is not None and man.step == 2

    def test_latest_valid_ignores_staging_dirs(self, tmp_path):
        _write_set(tmp_path, 2)
        mgr = CheckpointManager(tmp_path, world=1)
        mgr.prepare(9)  # crashed attempt: .tmp left behind, never committed
        mgr.write_member(9, 0, q=np.ones(1))
        man = latest_valid_checkpoint(tmp_path)
        assert man.step == 2

    def test_latest_valid_empty_dir(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path) is None
        assert latest_valid_checkpoint(tmp_path / "nowhere") is None


class TestAtomicIO:
    def test_atomic_savez_roundtrip_and_no_droppings(self, tmp_path):
        path = atomic_savez(tmp_path / "snap", a=np.arange(3))
        assert path.endswith(".npz")
        with np.load(path) as archive:
            assert np.array_equal(archive["a"], np.arange(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.npz"]

    def test_load_npz_reads_under_the_ast_lock(self, tmp_path):
        """numpy parses member headers with ``ast.literal_eval``; on
        CPython 3.11 that must not overlap a rank thread's kernel
        parse (``SystemError: AST constructor recursion depth
        mismatch`` during a threaded checkpoint restore)."""
        path = atomic_savez(tmp_path / "snap", a=np.arange(3))
        got = []
        with load_npz(path) as archive:
            other = threading.Thread(
                target=lambda: got.append(ast_lock.acquire(blocking=False)))
            other.start()
            other.join()
            with ast_lock:  # reentrant for the holder
                assert np.array_equal(archive["a"], np.arange(3))
        assert got == [False]
        assert ast_lock.acquire(blocking=False)
        ast_lock.release()

    def test_failed_write_leaves_previous_archive(self, tmp_path, monkeypatch):
        target = tmp_path / "snap"
        atomic_savez(target, a=np.array([1.0]))
        digest = sha256_file(tmp_path / "snap.npz")

        def explode(*_a, **_k):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", explode)
        with pytest.raises(OSError, match="disk full"):
            atomic_savez(target, a=np.array([2.0]))
        # the committed archive is byte-identical; no tmp litter
        assert sha256_file(tmp_path / "snap.npz") == digest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.npz"]

    def test_atomic_write_text_replaces_whole_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_save_problem_is_atomic(self, tmp_path, monkeypatch):
        gp = GlobalProblem()
        gp.add_set("nodes", 3)
        gp.add_dat("q", "nodes", np.arange(3.0))
        target = tmp_path / "problem.npz"
        op2io.save_problem(target, gp)
        expected = gp.dats["q"][1]
        loaded = op2io.load_problem(target)
        assert np.array_equal(loaded.dats["q"][1], expected)

        monkeypatch.setattr(np, "savez_compressed",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError("crash mid-save")))
        with pytest.raises(OSError):
            op2io.save_problem(target, gp)
        # previous archive still loads — no torn zip
        reloaded = op2io.load_problem(target)
        assert np.array_equal(reloaded.dats["q"][1], expected)
