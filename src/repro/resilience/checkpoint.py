"""Coordinated checkpoint sets: per-rank members under a manifest.

A coupled run's consistent snapshot is a *set* of files — one member
per world rank (Hydra Session flow state, Coupler Unit accounting) —
that must commit or vanish together. The layout under a checkpoint
directory is::

    ckpt/
      step-000005/              <- one committed checkpoint set
        manifest.json           <- schema, step, world size, sha256 per file
        rank-0000.npz           <- member written by world rank 0
        rank-0001.npz
        ...
      step-000010.tmp/          <- an uncommitted (torn) set: ignored

Commit protocol: every rank writes its member (atomically) into the
``.tmp`` staging directory; after a world barrier, rank 0 hashes the
members, writes ``manifest.json`` (atomically), and publishes the set
with one ``os.replace`` of the directory — the only operation that
makes the checkpoint visible. :func:`latest_valid_checkpoint`
re-verifies every sha256 on the read side, so torn members, truncated
manifests and bit-rotted files are all *discarded*, never restored.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.atomicio import atomic_savez, atomic_write_text, sha256_file

__all__ = ["CheckpointError", "CheckpointManifest", "CheckpointManager",
           "latest_valid_checkpoint", "load_manifest", "MANIFEST_SCHEMA"]

#: manifest schema version; bump on layout changes so old readers fail
#: loudly instead of misinterpreting members. 2: every CU member carries
#: 8 search counters, ``flux_log`` and both ``cache_d*``/``baseline_d*``.
MANIFEST_SCHEMA = 2

_STEP_DIR = re.compile(r"^step-(\d{6})$")


class CheckpointError(RuntimeError):
    """A checkpoint set is missing, torn, corrupt or incompatible."""


@dataclass
class CheckpointManifest:
    """Parsed, verified manifest of one committed checkpoint set."""

    path: Path                    #: the committed step directory
    step: int
    world: int                    #: world size the set was written by
    files: dict[str, str]         #: member name -> sha256 hex
    meta: dict = field(default_factory=dict)

    def member(self, world_rank: int) -> Path:
        """Path of ``world_rank``'s member file in this set."""
        name = member_name(world_rank)
        if name not in self.files:
            raise CheckpointError(
                f"checkpoint {self.path} has no member for world rank "
                f"{world_rank}")
        return self.path / name


def member_name(world_rank: int) -> str:
    return f"rank-{world_rank:04d}.npz"


def step_dirname(step: int) -> str:
    return f"step-{step:06d}"


def load_manifest(step_dir: str | os.PathLike,
                  verify: bool = True) -> CheckpointManifest:
    """Parse (and by default sha-verify) one committed checkpoint set.

    Raises :class:`CheckpointError` on any inconsistency: missing or
    unparsable manifest, wrong schema, missing member, digest
    mismatch.
    """
    step_dir = Path(step_dir)
    manifest_path = step_dir / "manifest.json"
    try:
        raw = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"{step_dir} has no manifest.json") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"{manifest_path} is unreadable or torn: {exc}") from exc
    schema = raw.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise CheckpointError(
            f"{manifest_path}: schema {schema!r} != {MANIFEST_SCHEMA} "
            f"(incompatible checkpoint)")
    try:
        manifest = CheckpointManifest(
            path=step_dir, step=int(raw["step"]), world=int(raw["world"]),
            files=dict(raw["files"]), meta=dict(raw.get("meta", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{manifest_path} is structurally invalid: {exc}") from exc
    if verify:
        for name, digest in manifest.files.items():
            member = step_dir / name
            if not member.is_file():
                raise CheckpointError(f"{step_dir}: member {name} missing")
            actual = sha256_file(member)
            if actual != digest:
                raise CheckpointError(
                    f"{step_dir}: member {name} digest mismatch "
                    f"({actual[:12]}… != manifest {digest[:12]}…)")
    return manifest


def latest_valid_checkpoint(ckpt_dir: str | os.PathLike,
                            verify: bool = True
                            ) -> CheckpointManifest | None:
    """Newest committed-and-intact checkpoint set, or ``None``.

    Scans ``ckpt_dir`` for ``step-*`` directories (``.tmp`` staging
    dirs are never candidates), walks them newest-first and returns
    the first one whose manifest verifies; torn or corrupt sets are
    skipped, so recovery silently falls back to the previous good one.
    """
    ckpt_dir = Path(ckpt_dir)
    if not ckpt_dir.is_dir():
        return None
    candidates: list[tuple[int, Path]] = []
    for entry in ckpt_dir.iterdir():
        m = _STEP_DIR.match(entry.name)
        if m and entry.is_dir():
            candidates.append((int(m.group(1)), entry))
    for _step, path in sorted(candidates, reverse=True):
        try:
            return load_manifest(path, verify=verify)
        except CheckpointError:
            continue
    return None


class CheckpointManager:
    """Rank-side helper for writing one coordinated checkpoint set.

    One instance per world rank per run; the coupled driver drives the
    protocol (stage -> barrier -> commit by rank 0 -> barrier), this
    class owns the filesystem mechanics so they are testable without a
    world.
    """

    def __init__(self, ckpt_dir: str | os.PathLike, world: int) -> None:
        self.ckpt_dir = Path(ckpt_dir)
        self.world = world

    def staging_dir(self, step: int) -> Path:
        return self.ckpt_dir / (step_dirname(step) + ".tmp")

    def final_dir(self, step: int) -> Path:
        return self.ckpt_dir / step_dirname(step)

    def prepare(self, step: int) -> Path:
        """(Rank 0) create a clean staging dir for ``step``."""
        staging = self.staging_dir(step)
        if staging.exists():
            shutil.rmtree(staging)  # leftover of a crashed attempt
        staging.mkdir(parents=True)
        return staging

    def write_member(self, step: int, world_rank: int, **arrays) -> Path:
        """(Every rank) stage this rank's member file atomically."""
        path = self.staging_dir(step) / member_name(world_rank)
        atomic_savez(path, **arrays)
        return path

    def commit(self, step: int, meta: dict | None = None) -> Path:
        """(Rank 0, after all members staged) hash, manifest, publish.

        The ``os.replace`` of the staging directory onto the final name
        is the commit point. A pre-existing set for the same step (a
        re-write after recovery replayed past it) is removed first —
        the *previous* checkpoint step remains on disk throughout, so
        recoverability is never lost.
        """
        staging = self.staging_dir(step)
        files = {}
        for rank in range(self.world):
            member = staging / member_name(rank)
            if not member.is_file():
                raise CheckpointError(
                    f"cannot commit step {step}: member {member.name} "
                    f"was never staged")
            files[member.name] = sha256_file(member)
        manifest = {"schema": MANIFEST_SCHEMA, "step": step,
                    "world": self.world, "files": files,
                    "meta": meta or {}}
        atomic_write_text(staging / "manifest.json",
                          json.dumps(manifest, indent=1, sort_keys=True))
        final = self.final_dir(step)
        if final.exists():
            shutil.rmtree(final)
        os.replace(staging, final)
        return final
