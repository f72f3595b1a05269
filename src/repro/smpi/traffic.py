"""Message-traffic accounting for simulated MPI runs.

The communication-avoidance study (partial halo exchanges, grouped
halo messages, GPU-side gather — Table III of the paper) is about
*how many* messages of *what size* cross the network and the PCIe bus.
The :class:`Traffic` ledger records every point-to-point message with
its byte count and the phase label active on the sending rank, so a
benchmark can compare optimization variants by traffic rather than by
wall-clock noise.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass

import numpy as np


def payload_nbytes(obj: object) -> int:
    """Best-effort wire size of a message payload in bytes.

    numpy arrays and scalars report their buffer size exactly;
    containers (tuples/lists/sets/dicts, arbitrarily nested) sum their
    parts plus a small per-item header, so a dict of numpy arrays is
    accounted by buffer size rather than by its (much larger) pickle
    length. Only genuinely opaque objects fall back to pickle.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):  # np.int64/np.float32/... scalars
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    # bool before int is unnecessary (bool subclasses int) but numpy
    # float64 subclasses float, so these cover both plain and promoted
    # python scalars
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(payload_nbytes(item) + 8 for item in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) + 8 for k, v in obj.items())
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


@dataclass(frozen=True)
class TrafficRecord:
    """Aggregated traffic for one (phase, src, dst) edge."""

    phase: str
    src: int
    dst: int
    messages: int
    nbytes: int


class Traffic:
    """Thread-safe ledger of point-to-point message traffic.

    The one store is the ordered per-message log ``(phase, src, dst,
    nbytes)``, in the order sends hit the ledger — the observable
    message schedule; every aggregate is derived from it. The *phase*
    is a free label (e.g. ``"halo"``, ``"halo.partial"``,
    ``"coupler.gather"``) set per rank via :meth:`set_phase`; it travels
    with each recorded send so benchmarks can attribute traffic to
    solver stages.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phase: dict[int, str] = {}
        self._log: list[tuple[str, int, int, int]] = []

    def set_phase(self, rank: int, phase: str) -> None:
        with self._lock:
            self._phase[rank] = phase

    def phase_of(self, rank: int) -> str:
        with self._lock:
            return self._phase.get(rank, "default")

    def record(self, src: int, dst: int, nbytes: int) -> None:
        with self._lock:
            self._log.append((self._phase.get(src, "default"), src, dst,
                              nbytes))

    def records(self) -> list[TrafficRecord]:
        """Aggregate per ``(phase, src, dst)`` edge, sorted by edge."""
        edges: dict[tuple[str, int, int], list[int]] = {}
        for phase, src, dst, nbytes in self.message_log():
            slot = edges.setdefault((phase, src, dst), [0, 0])
            slot[0] += 1
            slot[1] += nbytes
        return [TrafficRecord(*k, messages=m, nbytes=b)
                for k, (m, b) in sorted(edges.items())]

    def total_messages(self, phase: str | None = None) -> int:
        return sum(1 for p, *_ in self.message_log()
                   if phase is None or p == phase)

    def total_nbytes(self, phase: str | None = None) -> int:
        return sum(n for p, _src, _dst, n in self.message_log()
                   if phase is None or p == phase)

    def by_phase(self) -> dict[str, dict[str, int]]:
        """Aggregate to ``{phase: {"messages": m, "nbytes": b}}``."""
        out: dict[str, dict[str, int]] = {}
        for phase, _src, _dst, nbytes in self.message_log():
            slot = out.setdefault(phase, {"messages": 0, "nbytes": 0})
            slot["messages"] += 1
            slot["nbytes"] += nbytes
        return out

    def message_log(self) -> list[tuple[str, int, int, int]]:
        """Ordered ``(phase, src, dst, nbytes)`` per message, send order.

        Unlike :meth:`records`, this preserves the interleaving, so two
        ledgers with identical aggregates but different message orders
        compare different — the property deterministic-schedule tests
        rely on.
        """
        with self._lock:
            return list(self._log)

    def merge_log(self, log: list[tuple[str, int, int, int]]) -> None:
        """Append a per-rank message log recorded in another ledger.

        The process transport records traffic in a per-rank ledger
        inside each rank process and merges the logs back into the
        caller's world ledger in ascending rank order, so the merged
        log is the canonical sender-ordered schedule (see
        :meth:`sender_ordered_log`) rather than a wall-clock
        interleaving.
        """
        with self._lock:
            self._log.extend(log)

    def fingerprint(self) -> str:
        """SHA-256 over the ordered message log (hex digest).

        Two runs produced the byte-identical message schedule iff their
        fingerprints match.
        """
        return hashlib.sha256(repr(self.message_log()).encode()).hexdigest()

    def sender_ordered_log(self) -> list[tuple[str, int, int, int]]:
        """The message log canonicalized by sending rank.

        Per-sender message order is preserved (the MPI non-overtaking
        guarantee makes it deterministic for a deterministic program),
        but the interleaving *between* senders — which depends on OS
        scheduling in the threaded transport and on genuine parallelism
        in the process transport — is replaced by ascending sender
        rank. Two transports running the same program therefore agree
        on this log even when their wall-clock interleavings differ.
        """
        # sorted() is stable: per-sender send order survives
        return sorted(self.message_log(), key=lambda rec: rec[1])

    def structure_fingerprint(self) -> str:
        """SHA-256 over :meth:`sender_ordered_log` (hex digest).

        The transport-independent counterpart of :meth:`fingerprint`:
        equal iff every rank sent the byte-identical message sequence,
        whatever the cross-rank interleaving was.
        """
        blob = repr(self.sender_ordered_log()).encode()
        return hashlib.sha256(blob).hexdigest()

    def reset(self) -> None:
        with self._lock:
            self._log.clear()
