"""Crash-safe file writes: tmp file + ``os.replace`` commit.

Checkpoints are only useful if a crash *during* the write cannot leave
a torn file where a valid one used to be. Every writer here stages
into a temporary sibling (same directory, so the rename never crosses
filesystems) and publishes with :func:`os.replace`, which POSIX
guarantees to be atomic: readers see either the old complete file or
the new complete file, never a prefix.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import uuid
from typing import Any

import numpy as np

__all__ = ["ast_lock", "atomic_savez", "atomic_write_bytes",
           "atomic_write_text", "load_npz", "sha256_file"]

#: CPython 3.11 keeps AST<->object conversion recursion bookkeeping in
#: per-interpreter (not per-thread) state, so concurrent ``ast.parse``
#: / ``compile(ast_obj)`` calls — simulated-MPI rank threads lazily
#: parsing their kernels, or numpy parsing ``.npy`` member headers with
#: ``ast.literal_eval`` while they restore a checkpoint —
#: intermittently raise ``SystemError: AST constructor recursion depth
#: mismatch``. Serializing all AST conversions through one lock removes
#: the race (fixed upstream in 3.12 by moving the bookkeeping to the
#: thread state). Reentrant, so parsing a kernel while an archive is
#: open cannot self-deadlock.
ast_lock = threading.RLock()


def _tmp_sibling(path: str) -> str:
    directory, name = os.path.split(path)
    return os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp + ``os.replace``)."""
    path = os.fspath(path)
    tmp = _tmp_sibling(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_savez(path: str | os.PathLike, compressed: bool = False,
                 **arrays: Any) -> str:
    """``np.savez`` to ``path`` atomically; returns the final path.

    Numpy appends ``.npz`` when missing — the returned path includes
    it, and the temporary staging file is cleaned up on any failure,
    so a crash mid-write leaves either the previous archive or nothing,
    never a torn zip.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    tmp = _tmp_sibling(path)
    save = np.savez_compressed if compressed else np.savez
    try:
        with open(tmp, "wb") as fh:
            save(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


@contextlib.contextmanager
def load_npz(path: str | os.PathLike, **kwargs: Any):
    """``np.load`` an ``.npz`` archive for the ``with`` body, holding
    :data:`ast_lock` — every member read parses a header."""
    with ast_lock, np.load(path, **kwargs) as archive:
        yield archive


def sha256_file(path: str | os.PathLike, chunk: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's contents (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()
