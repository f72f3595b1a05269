"""Wait-for-graph deadlock detection for simulated MPI runs.

Every blocking operation (a ``recv`` with no matching message, a
collective waiting for stragglers) registers a :class:`WaitEdge`
with the world-level :class:`WaitRegistry` while it waits: *who* is
blocked, in *what* operation, and *which peers* could release it. The
registry can then answer "is anybody actually deadlocked?" in
milliseconds instead of letting a hung run ripen for the 120 s
watchdog.

Detection is the classic closed-set argument on the wait-for graph: a
set ``S`` of blocked ranks is deadlocked iff every member's release
set is contained in ``S`` plus the already-finished ranks — i.e. no
rank that is still *running* (and could therefore still send a
message or arrive at the barrier) can ever unblock anyone in ``S``.
This is computed by trimming: repeatedly drop any blocked rank that
waits on at least one live, unblocked peer; whatever survives is a
genuine cycle (or a wait on a rank that already exited). Because a
blocked rank cannot send, the test has no false positives, provided
"blocked" is judged soundly against concurrent progress: each entry
carries a ``satisfied`` probe evaluated at detection time, so a rank
whose message has just arrived (but which has not woken yet) is never
counted as stuck, and a rank only counts if it is still inside the
*same* wait once every probe has run — waiters unregister before they
consume what released them, so a rank that was woken, took its
message and moved on mid-detection is never mistaken for a stuck one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.smpi.errors import DeadlockError

__all__ = ["WaitEdge", "WaitRegistry", "format_cycle", "DeadlockError"]


@dataclass(frozen=True)
class WaitEdge:
    """One blocked rank and the peers that could release it.

    All ranks are *world* ranks, whatever communicator the blocking
    operation ran on, so edges from sub-communicators and the world
    comm land in one graph.
    """

    rank: int                   #: world rank of the blocked rank
    op: str                     #: "recv", "barrier", ...
    peers: tuple[int, ...]      #: world ranks whose action could unblock it
    tag: int | None = None      #: message tag (None = ANY_TAG / not a recv)
    detail: str = ""            #: op-specific context, e.g. "source=1"

    def describe(self) -> str:
        if self.op == "recv":
            tag = "ANY" if self.tag is None else self.tag
            return f"recv({self.detail}, tag={tag})"
        return self.op


def format_cycle(edges: Iterable[WaitEdge], done: Iterable[int] = ()) -> str:
    """Human-readable report of a wait-for cycle.

    One line per blocked rank naming its operation and the peers it
    waits on; peers that already finished are flagged, since a wait on
    an exited rank can never complete.
    """
    done = set(done)
    edges = sorted(edges, key=lambda e: e.rank)
    lines = [f"deadlock detected: {len(edges)} rank(s) blocked in a "
             f"wait-for cycle"]
    for e in edges:
        peers = ", ".join(
            f"rank {p}" + (" (finished)" if p in done else "")
            for p in e.peers
        ) or "nobody"
        lines.append(f"  rank {e.rank}: {e.describe()} <- waits on {peers}")
    return "\n".join(lines)


class _Entry:
    __slots__ = ("edge", "satisfied")

    def __init__(self, edge: WaitEdge, satisfied: Callable[[], bool]) -> None:
        self.edge = edge
        self.satisfied = satisfied


class WaitRegistry:
    """World-level ledger of currently-blocked ranks.

    Thread-safety contract: ``satisfied`` probes are called *without*
    the registry lock released to any mailbox/barrier condition — they
    must only take GIL-atomic snapshots (no lock acquisition), so a
    rank running detection while holding its own mailbox condition can
    never deadlock against another rank doing the same.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[int, _Entry] = {}
        self._done: set[int] = set()

    # -- bookkeeping ---------------------------------------------------
    def register(self, edge: WaitEdge,
                 satisfied: Callable[[], bool]) -> None:
        with self._lock:
            self._entries[edge.rank] = _Entry(edge, satisfied)

    def unregister(self, rank: int) -> None:
        with self._lock:
            self._entries.pop(rank, None)

    def mark_done(self, rank: int) -> None:
        """Record that a rank's thread has exited (cleanly or not)."""
        with self._lock:
            self._done.add(rank)
            self._entries.pop(rank, None)

    def done_ranks(self) -> set[int]:
        with self._lock:
            return set(self._done)

    # -- detection ------------------------------------------------------
    def find_deadlock(self) -> list[WaitEdge] | None:
        """The deadlocked core of the wait-for graph, or None.

        Returns the edges of every rank that can provably never be
        unblocked: blocked, unsatisfied, and waiting only on ranks in
        the same condition (or on ranks that already exited).
        """
        with self._lock:
            entries = dict(self._entries)
            done = set(self._done)
        stuck: dict[int, WaitEdge] = {}
        for rank, entry in entries.items():
            try:
                if not entry.satisfied():
                    stuck[rank] = entry.edge
            except Exception:  # probe raced a teardown; treat as not stuck
                continue
        with self._lock:
            # Probes run after the snapshot, so "unsatisfied" may mean
            # the rank has since consumed its message and moved on.
            # Waiters unregister *before* consuming, so only a rank
            # still inside the very same wait (same entry object) was
            # blocked for the whole snapshot-to-here window — and a
            # rank blocked throughout cannot have sent anything in it.
            stuck = {rank: edge for rank, edge in stuck.items()
                     if self._entries.get(rank) is entries[rank]}
        changed = True
        while changed:
            changed = False
            for rank in list(stuck):
                edge = stuck[rank]
                if any(p not in stuck and p not in done for p in edge.peers):
                    del stuck[rank]
                    changed = True
        if not stuck:
            return None
        return [stuck[r] for r in sorted(stuck)]

    def raise_if_deadlocked(self, rank: int) -> None:
        """Raise :class:`DeadlockError` if ``rank`` is in a stuck core."""
        cycle = self.find_deadlock()
        if cycle is not None and any(e.rank == rank for e in cycle):
            raise DeadlockError(format_cycle(cycle, self.done_ranks()), cycle)
