"""Halo layout and exchange for distributed sets.

Implements the paper's distributed-memory model: owner-compute with
redundant execution over an import-exec halo, forward halo exchanges
with dirty-bit tracking, plus the two communication optimizations the
paper quantifies in Table III:

* **partial halo exchanges (PH)** — exchange only the halo entries a
  loop actually references through its map (or, for direct reads under
  redundant execution, only the exec region) instead of the full halo;
* **grouped halo messages (GH)** — pack all the dats a loop needs into
  one message per neighbour instead of one message per dat.

Exchange plans are *named*: ``"full"``, ``"exec"``, and two per map —
``"m"`` (halo entries reachable from owned *and* exec rows of the map,
what redundant exec-halo execution reads) and ``"m@own"`` (reachable
from owned rows only, sufficient for loops without indirect writes,
which never execute the exec halo). :class:`~repro.op2.dat.Dat`
freshness records which plan last refreshed it; :func:`scope_covers`
defines the subsumption order — ``"full"`` covers everything and
``"m"`` covers ``"m@own"`` — so a deeper refresh satisfies shallower
reads without re-exchanging.

There is one exchange protocol, split-phase: :func:`exchange_begin`
packs and posts every send, :func:`exchange_end` receives, unpacks and
marks each dat fresh, so compute can be issued in between. A loop's
refresh (:func:`exchange_halos`) runs the two back to back. Every
message is one ndarray in its dats' own dtype, so a grouped exchange
mixing dtypes sends one message per (neighbour, dtype) and never
converts a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.telemetry.recorder import active_recorder, span as _tspan

if TYPE_CHECKING:  # pragma: no cover
    from repro.op2.dat import Dat
    from repro.op2.set import Set
    from repro.smpi import SimComm

#: base tag for halo messages; per-dat offset keeps matching unambiguous
_HALO_TAG = 7000

#: suffix distinguishing a map's depth-1 scope from its depth-2 scope
_OWN_SUFFIX = "@own"


def scope_covers(have: str, need: str) -> bool:
    """True when a refresh for scope ``have`` satisfies a ``need`` read.

    The subsumption order of named scopes: ``"full"`` covers every
    scope, and a map's depth-2 scope ``"m"`` covers its own depth-1
    scope ``"m@own"`` (owned-row references are a subset of
    owned+exec-row references). Everything else must match exactly.
    """
    if have == need or have == "full":
        return True
    return need == have + _OWN_SUFFIX


def resolve_scope(scopes) -> str:
    """The one plan scope that serves every scope in ``scopes``.

    Scopes another member covers are dropped; one distinct scope left
    is used as-is, genuinely mixed needs fall back to the full
    exchange (a refresh sends one message batch per (set, scope)
    group).
    """
    if "full" in scopes:
        return "full"
    kept = {s for s in scopes
            if not any(o != s and scope_covers(o, s) for o in scopes)}
    return next(iter(kept)) if len(kept) == 1 else "full"


@dataclass
class ExchangePlan:
    """Matched send/recv index lists for one named exchange scope.

    ``send[q]`` lists *owned* local indices this rank packs for
    neighbour ``q``; ``recv[q]`` lists the local halo indices filled by
    the matching message. Ranks are communicator ranks of the halo's
    comm. Lists are index-aligned pairwise across the two ranks.
    """

    name: str
    send: dict[int, np.ndarray] = field(default_factory=dict)
    recv: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def recv_entries(self) -> int:
        return sum(len(v) for v in self.recv.values())

    @property
    def send_entries(self) -> int:
        return sum(len(v) for v in self.send.values())


@dataclass
class SetHalo:
    """Distributed layout of one set on one rank."""

    comm: "SimComm"
    n_exec: int
    n_nonexec: int
    global_ids: np.ndarray              #: local index -> global id
    plans: dict[str, ExchangePlan] = field(default_factory=dict)

    def plan_for(self, scope: str) -> ExchangePlan:
        """The plan of a scope name; unknown names fall back to the
        full exchange."""
        return self.plans.get(scope) or self.plans["full"]


def exchange_nbytes(plan: ExchangePlan, dats: Sequence["Dat"]) -> int:
    """Exact payload bytes this rank sends executing ``plan`` for ``dats``.

    The single source of truth for halo payload sizing: the exchange
    computes its telemetry from it and tests pin ledger bytes against
    it, so partial exchanges cannot double-count. Matches what the
    traffic ledger records for the equivalent sends (entries × dim ×
    itemsize per dat per neighbour) for any mix of dtypes: every dat
    travels in its own dtype, grouped or not.
    """
    per_entry = sum(d.dim * d.dtype.itemsize for d in dats)
    return plan.send_entries * per_entry


def exchange_messages(plan: ExchangePlan, ndats: int, grouped: bool) -> int:
    """Messages this rank sends executing ``plan`` for ``ndats`` dats
    of one dtype (one :func:`message_streams` stream)."""
    return len(plan.send) * (1 if grouped else ndats)


def message_streams(dats: Sequence["Dat"], grouped: bool) -> list[list[int]]:
    """Indices of the dats each per-neighbour message carries, in send
    order: one message per dat, or with ``grouped`` one per dtype (in
    first-appearance order). A message is one ndarray, so packing
    different dtypes together would convert values."""
    if not grouped:
        return [[i] for i in range(len(dats))]
    by_dtype: dict = {}
    for i, d in enumerate(dats):
        by_dtype.setdefault(d.dtype, []).append(i)
    return list(by_dtype.values())


def _account_exchange(full: ExchangePlan, streams: list, grouped: bool,
                      sent: int) -> None:
    """Emit the op2-level halo traffic counters for one exchange.

    Computes nothing without an active recorder. ``*_saved`` counters
    measure against the full-plan baseline for the same dats — the
    counter-verified claim that partial/depth-aware exchanges move
    fewer bytes. Counters are additive across exchanges; smpi-level
    ``smpi.nbytes`` counters are emitted by the communicator itself,
    so this layer never re-records wire bytes.
    """
    rec = active_recorder()
    if rec is None:
        return
    nbytes = sum(exchange_nbytes(p, [d]) for _, s in streams for d, p in s)
    full_nbytes = exchange_nbytes(full, [d for _, s in streams for d, _ in s])
    full_messages = sum(exchange_messages(full, len(s), grouped)
                        for _, s in streams)
    rec.counter("op2.halo.nbytes", nbytes)
    rec.counter("op2.halo.messages", sent)
    rec.counter("op2.halo.nbytes_saved", max(0, full_nbytes - nbytes))
    rec.counter("op2.halo.messages_saved", max(0, full_messages - sent))


@dataclass
class PendingExchange:
    """An in-flight exchange: sends posted, receives due.

    Produced by :func:`exchange_begin`; every rank must complete it
    with :func:`exchange_end` in the same order it was begun relative
    to other exchanges on the same communicator (tags keep concurrent
    in-flight exchanges unambiguous).
    """

    sset: "Set"
    streams: list           #: [(tag, [(dat, plan)])]


def exchange_begin(sset: "Set", dat_scopes: Sequence[tuple["Dat", str]],
                   tag: int, grouped: bool,
                   phase: str) -> PendingExchange | None:
    """Post the send half of an exchange refreshing each dat for its
    scope name (see :meth:`SetHalo.plan_for`).

    Per neighbour, posts one message per :func:`message_streams`
    stream carrying the plan entries of each of its dats, back to
    back: with ``grouped`` (GH) one message for all dats of a dtype
    under ``tag``, otherwise one per dat under ``tag + i``. Sends are
    labelled ``phase`` in the traffic ledger. Collective over the
    halo's communicator — every rank must pass the same dats (in the
    same order) and scopes. The matching :func:`exchange_end`
    completes the receives; compute issued in between overlaps the
    communication. Returns ``None`` when the set has no halo or
    nothing to exchange.
    """
    halo = sset.halo
    if halo is None or not dat_scopes:
        return None
    entries = []
    for d, scope in dat_scopes:
        if d.set is not sset:
            raise ValueError(
                f"dat {d.name!r} lives on {d.set.name!r}, not {sset.name!r}"
            )
        entries.append((d, halo.plan_for(scope)))
    idx = message_streams([e[0] for e in entries], grouped)
    streams = [(tag if grouped else tag + k, [entries[i] for i in s])
               for k, s in enumerate(idx)]
    comm = halo.comm
    comm.set_phase(phase)
    sent = 0
    with _tspan("exchange_begin", "op2.halo.exchange", set=sset.name,
                phase=phase, ndats=len(entries)):
        for stag, stream in streams:
            for nbr in sorted({n for _, p in stream for n in p.send}):
                parts = [d.data_with_halos[p.send[nbr]].ravel()
                         for d, p in stream if nbr in p.send]
                # a lone segment is already a fresh copy: send it as is
                comm.send(parts[0] if len(parts) == 1
                          else np.concatenate(parts), dest=nbr, tag=stag)
                sent += 1
    _account_exchange(halo.plans["full"], streams, grouped, sent)
    comm.set_phase("compute")
    return PendingExchange(sset=sset, streams=streams)


def exchange_end(pending: PendingExchange | None) -> None:
    """Complete an exchange: receive, unpack, mark each dat fresh."""
    if pending is None:
        return
    comm = pending.sset.halo.comm
    with _tspan("exchange_end", "op2.halo.exchange", set=pending.sset.name):
        for stag, stream in pending.streams:
            for nbr in sorted({n for _, p in stream for n in p.recv}):
                packed = comm.recv(source=nbr, tag=stag)
                offset = 0
                for d, ridx in [(d, p.recv[nbr]) for d, p in stream
                                if nbr in p.recv]:
                    n = len(ridx) * d.dim
                    d.data_with_halos[ridx] = (
                        packed[offset:offset + n].reshape(len(ridx), -1))
                    offset += n
    for _, stream in pending.streams:
        for d, p in stream:
            d.mark_halo_fresh(p.name)


def exchange_halos(sset: "Set", dats: Sequence["Dat"], scope: str = "full",
                   grouped: bool = False) -> None:
    """Refresh halo copies of ``dats`` (all on ``sset``) from owners.

    Collective over the halo's communicator: every rank of the set's
    communicator must call with the same dats/scope/grouped. With
    ``grouped`` the values of all dats travel in a single packed
    message per neighbour and dtype (the paper's GH optimization);
    otherwise one message per (dat, neighbour). The blocking form of
    :func:`exchange_begin` + :func:`exchange_end`.
    """
    halo = sset.halo
    if halo is None or not dats:
        return
    phase = (f"halo:{halo.plan_for(scope).name}"
             + (":grouped" if grouped else ""))
    exchange_end(exchange_begin(sset, [(d, scope) for d in dats],
                                _HALO_TAG, grouped, phase))
