"""Cross-transport conformance suite for the simulated-MPI layer.

Every semantic the op2/coupler stack relies on — point-to-point
ordering, tag matching, collectives, barriers, traffic accounting,
failure propagation — is exercised on BOTH transports through the one
public entry point (:func:`repro.smpi.run_ranks`), and where the
result is transport-independent the two runs must agree exactly:
identical per-rank return values and identical
:meth:`Traffic.structure_fingerprint` (the sender-ordered canonical
message log).

There is one communicator (:class:`repro.smpi.SimComm`) over two
channel implementations; the contract battery at the bottom drives
both channels directly — the process channel wired over plain
``queue.Queue``/``threading.Event`` stand-ins, so no fork is needed.
"""

from __future__ import annotations

import os
import queue
import threading
import time

import numpy as np
import pytest

from repro.smpi import (
    ANY_SOURCE,
    ANY_TAG,
    RankFailure,
    SimAbort,
    SimComm,
    SimMPIError,
    Traffic,
    TransportError,
    WaitEdge,
    WaitRegistry,
    run_ranks,
)
from repro.smpi.comm import ThreadChannel
from repro.smpi.traffic import payload_nbytes
from repro.smpi.faults import FaultPlan
from repro.smpi.schedule import DeterministicScheduler
from repro.smpi.transport import (
    ProcessChannel,
    _decode_payload,
    _encode_payload,
    _release_payload,
    default_transport,
    resolve_transport,
)

TIMEOUT = 30.0  # short enough that a hung transport fails the suite fast
TRANSPORTS = ("thread", "process")


def both_transports(fn, nranks, *args, timeout=TIMEOUT, make_plan=None):
    """Run ``fn`` under both transports; return {name: (results, traffic)}.

    ``make_plan`` builds a fresh (fire-once) FaultPlan for each run.
    """
    out = {}
    for transport in TRANSPORTS:
        traffic = Traffic()
        results = run_ranks(nranks, fn, args=args, timeout=timeout,
                            traffic=traffic, transport=transport,
                            fault_plan=make_plan() if make_plan else None)
        out[transport] = (results, traffic)
    return out


def assert_conformant(fn, nranks, *args, **kwargs):
    """Both transports agree on results and traffic structure."""
    runs = both_transports(fn, nranks, *args, **kwargs)
    (thread_res, thread_tr) = runs["thread"]
    (proc_res, proc_tr) = runs["process"]
    assert repr(thread_res) == repr(proc_res)
    assert thread_tr.sender_ordered_log() == proc_tr.sender_ordered_log()
    assert thread_tr.structure_fingerprint() == proc_tr.structure_fingerprint()
    return thread_res


# --------------------------------------------------------------------------
# rank programs (module level: shared verbatim by both transports)
# --------------------------------------------------------------------------

def _ring(comm):
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    comm.send(("hello", comm.rank), dest, tag=5)
    payload, got_src, got_tag = comm.recv_status(source=src, tag=5)
    assert got_src == src and got_tag == 5
    return payload


def _ordered_stream(comm, count):
    if comm.rank == 0:
        for i in range(count):
            comm.send(i, 1, tag=9)
        return None
    return [comm.recv(source=0, tag=9) for _ in range(count)]


def _tag_selection(comm):
    if comm.rank == 0:
        comm.send("first", 1, tag=1)
        comm.send("second", 1, tag=2)
        return None
    # receive out of send order by selecting on tag
    second = comm.recv(source=0, tag=2)
    first = comm.recv(source=0, tag=1)
    return [first, second]


def _wildcards(comm):
    if comm.rank == 0:
        out = []
        for _ in range(comm.size - 1):
            payload, src, tag = comm.recv_status(source=ANY_SOURCE,
                                                 tag=ANY_TAG)
            out.append((payload, src, tag))
        return sorted(out)
    comm.send(f"from-{comm.rank}", 0, tag=100 + comm.rank)
    return None


def _isend_irecv(comm):
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    req = comm.isend(comm.rank * 10, dest, tag=3)
    rreq = comm.irecv(source=src, tag=3)
    req.wait()
    return rreq.wait()


def _probe_then_recv(comm):
    if comm.rank == 0:
        comm.send("probe-me", 1, tag=44)
        return True
    while not comm.probe(source=0, tag=44):
        pass
    assert not comm.probe(source=0, tag=999)
    return comm.recv(source=0, tag=44)


def _sendrecv_shift(comm):
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    return comm.sendrecv(comm.rank, dest, src, sendtag=6, recvtag=6)


def _collectives(comm):
    out = {}
    out["bcast"] = comm.bcast({"root": "payload"} if comm.rank == 1 else None,
                              root=1)
    out["gather"] = comm.gather(comm.rank ** 2, root=0)
    out["allgather"] = comm.allgather(chr(ord("a") + comm.rank))
    out["scatter"] = comm.scatter(
        [f"slot{r}" for r in range(comm.size)] if comm.rank == 0 else None,
        root=0)
    out["reduce"] = comm.reduce(comm.rank + 1, op="sum", root=0)
    out["allreduce_sum"] = comm.allreduce(float(comm.rank), op="sum")
    out["allreduce_max"] = comm.allreduce(comm.rank, op="max")
    out["allreduce_fn"] = comm.allreduce(comm.rank + 2,
                                         op=lambda a, b: a * b)
    out["alltoall"] = comm.alltoall(
        [comm.rank * 100 + r for r in range(comm.size)])
    comm.barrier()
    return out


def _allreduce_array(comm):
    vec = np.full(8, float(comm.rank + 1))
    return comm.allreduce(vec, op="sum").tolist()


def _split_groups(comm):
    color = comm.rank % 2
    sub = comm.split(color, key=-comm.rank)  # reversed rank order in sub
    total = sub.allreduce(comm.rank, op="sum")
    members = sub.allgather(comm.rank)
    return {"color": color, "sub_rank": sub.rank, "sub_size": sub.size,
            "total": total, "members": members}


def _split_drop(comm):
    sub = comm.split(0 if comm.rank == 0 else -1)
    if comm.rank == 0:
        assert sub is not None and sub.size == 1
        return "kept"
    assert sub is None
    return "dropped"


def _phased_traffic(comm, nbytes_per_msg):
    comm.set_phase("halo")
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    comm.send(b"x" * nbytes_per_msg, dest, tag=1)
    comm.recv(source=src, tag=1)
    comm.set_phase("norm")
    comm.allreduce(1.0)  # collectives must record NO traffic
    return None


def _fail_at_step(comm):
    comm.barrier()
    if comm.rank == 1:
        raise RankFailure("injected by conformance suite", rank=1, step=7)
    # peers block on a message that never comes; the abort must free them
    comm.recv(source=1, tag=0)


def _mixed_workload(comm):
    """p2p + collectives + split + wildcard recvs, all in one program."""
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    comm.send(np.arange(4) + comm.rank, dest, tag=2)
    vec = comm.recv(source=src, tag=2)
    total = comm.allreduce(float(vec.sum()))
    sub = comm.split(comm.rank % 2)
    sub_total = sub.allreduce(comm.rank)
    comm.barrier()
    if comm.rank == 0:
        got = sorted(comm.recv_status(ANY_SOURCE, ANY_TAG)[1]
                     for _ in range(comm.size - 1))
    else:
        comm.send(None, 0, tag=comm.rank)
        got = None
    return (vec.tolist(), total, sub_total, got)


def _buffering_order(comm):
    if comm.rank == 0:
        comm.send("noise-a", 1, tag=1)
        comm.send("noise-b", 1, tag=2)
        comm.send("signal", 1, tag=3)
        return None
    got = comm.recv(source=0, tag=3)
    # earlier messages are still buffered, arrival order preserved
    return [got, comm.recv(source=0, tag=ANY_TAG),
            comm.recv(source=0, tag=ANY_TAG)]


def _late_match(comm):
    """60 non-matching wake-ups, then the match 0.4 s in: a 2 s
    timeout must not fire."""
    if comm.rank == 1:
        for i in range(60):
            comm.send(i, 0, tag=1)
            time.sleep(0.001)  # one receiver wake-up per message
        time.sleep(0.4)
        comm.send("late", 0, tag=99)
        return None
    return comm.recv(source=1, tag=99, timeout=2.0)


def _starved_recv(comm):
    """Seconds a ``recv(timeout=0.5)`` takes to give up while a steady
    stream of non-matching messages keeps arriving."""
    if comm.rank == 1:
        stop = time.monotonic() + 1.5
        while time.monotonic() < stop:
            comm.send(0, 0, tag=1)
            time.sleep(0.01)
        return None
    start = time.monotonic()
    with pytest.raises(SimMPIError, match="timed out after 0.5s"):
        comm.recv(source=1, tag=99, timeout=0.5)
    return time.monotonic() - start


def _duplicate_twice(comm):
    if comm.rank == 0:
        comm.send(np.arange(4.0), 1, tag=3)
        return None
    a = comm.recv(source=0, tag=3)
    b = comm.recv(source=0, tag=3)
    a[0] = -1.0  # must not show through the second delivery
    return (a is not b, b.tolist())


def _bad_dest(comm):
    comm.send("x", 5)


def _bad_scatter(comm):
    comm.scatter(["only-one"] if comm.rank == 0 else None, root=0)


def _bad_alltoall(comm):
    comm.alltoall([1, 2, 3])


def _bad_reduce_op(comm):
    comm.allreduce(1.0, op="median")


def _recv_from_silent_peer(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=0, timeout=0.2)
    else:
        time.sleep(1.0)  # alive but silent: only the timeout can end it


# --------------------------------------------------------------------------
# the battery: every entry asserted identical across transports
# --------------------------------------------------------------------------

class TestPointToPoint:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_ring_send_recv(self, nranks):
        results = assert_conformant(_ring, nranks)
        for r, payload in enumerate(results):
            assert payload == ("hello", (r - 1) % nranks)

    def test_stream_preserves_send_order(self):
        results = assert_conformant(_ordered_stream, 2, 16)
        assert results[1] == list(range(16))

    def test_tag_selection_out_of_order(self):
        results = assert_conformant(_tag_selection, 2)
        assert results[1] == ["first", "second"]

    @pytest.mark.parametrize("nranks", [3, 4])
    def test_any_source_any_tag(self, nranks):
        results = assert_conformant(_wildcards, nranks)
        assert results[0] == sorted(
            (f"from-{r}", r, 100 + r) for r in range(1, nranks))

    def test_isend_irecv(self):
        results = assert_conformant(_isend_irecv, 3)
        assert results == [20, 0, 10]

    def test_probe(self):
        results = assert_conformant(_probe_then_recv, 2)
        assert results == [True, "probe-me"]

    def test_sendrecv(self):
        results = assert_conformant(_sendrecv_shift, 4)
        assert results == [3, 0, 1, 2]

    def test_non_matching_messages_stay_buffered_in_order(self):
        results = assert_conformant(_buffering_order, 2)
        assert results[1] == ["signal", "noise-a", "noise-b"]


class TestTimeouts:
    """One monotonic deadline per blocking wait, on both transports."""

    def test_wakeups_do_not_eat_the_timeout(self):
        """Regression: the thread transport charged a full 50 ms poll
        step per wake-up, so 60 non-matching arrivals "used up" a 2 s
        timeout in under 0.1 s."""
        results = assert_conformant(_late_match, 2)
        assert results[0] == "late"

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_timeout_fires_under_non_matching_stream(self, transport):
        """Regression: the process transport only counted idle polls,
        so a steady non-matching stream postponed the timeout
        indefinitely (3.5 s for a 0.5 s timeout)."""
        elapsed = run_ranks(2, _starved_recv, timeout=TIMEOUT,
                            transport=transport)[0]
        assert 0.5 <= elapsed < 1.0, elapsed

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_recv_timeout_mentions_deadlock(self, transport):
        with pytest.raises(SimMPIError, match=r"recv\(source=1, tag=0\) "
                                              r"timed out .* deadlock\?"):
            run_ranks(2, _recv_from_silent_peer, timeout=TIMEOUT,
                      transport=transport)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestMisuse:
    """Protocol misuse raises the same typed error on both transports."""

    @pytest.mark.parametrize("fn, message", [
        (_bad_dest, "out of range"),
        (_bad_scatter, "must supply 2 items"),
        (_bad_alltoall, "needs 2 items"),
        (_bad_reduce_op, "unknown reduce op"),
    ])
    def test_raises_simmpi_error(self, transport, fn, message):
        with pytest.raises(SimMPIError, match=message):
            run_ranks(2, fn, timeout=TIMEOUT, transport=transport)


class TestCollectives:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_full_battery(self, nranks):
        results = assert_conformant(_collectives, nranks)
        for r, out in enumerate(results):
            assert out["bcast"] == {"root": "payload"}
            assert out["allgather"] == [chr(ord("a") + i)
                                        for i in range(nranks)]
            assert out["scatter"] == f"slot{r}"
            assert out["allreduce_sum"] == sum(range(nranks))
            assert out["allreduce_max"] == nranks - 1
            assert out["allreduce_fn"] == int(
                np.prod(np.arange(2, nranks + 2)))
            assert out["alltoall"] == [i * 100 + r for i in range(nranks)]
            if r == 0:
                assert out["gather"] == [i ** 2 for i in range(nranks)]
                assert out["reduce"] == sum(range(1, nranks + 1))
            else:
                assert out["gather"] is None and out["reduce"] is None

    def test_allreduce_array_bitwise(self):
        results = assert_conformant(_allreduce_array, 3)
        assert results[0] == results[1] == results[2] == [6.0] * 8


class TestCommunicatorManagement:
    def test_split_subgroups(self):
        results = assert_conformant(_split_groups, 4)
        for r, out in enumerate(results):
            assert out["color"] == r % 2
            assert out["sub_size"] == 2
            assert out["total"] == (0 + 2 if r % 2 == 0 else 1 + 3)
        # key=-rank reverses the ordering inside each colour group
        assert results[0]["sub_rank"] == 1 and results[2]["sub_rank"] == 0
        assert results[0]["members"] == [2, 0]
        assert results[1]["members"] == [3, 1]

    def test_split_negative_color_drops_rank(self):
        results = assert_conformant(_split_drop, 3)
        assert results == ["kept", "dropped", "dropped"]


class TestTrafficAccounting:
    def test_payload_nbytes_and_phases(self):
        nbytes = 256
        runs = both_transports(_phased_traffic, 3, nbytes)
        expected = payload_nbytes(b"x" * nbytes)
        for transport, (_res, traffic) in runs.items():
            log = traffic.message_log()
            # one halo-phase record per rank, nothing from the collectives
            assert len(log) == 3, transport
            for phase, _src, _dst, n in log:
                assert phase == "halo" and n == expected
        assert (runs["thread"][1].structure_fingerprint()
                == runs["process"][1].structure_fingerprint())

    def test_mixed_workload_structure_fingerprint(self):
        results = assert_conformant(_mixed_workload, 4)
        for r, (vec, total, sub_total, got) in enumerate(results):
            assert vec == [(r - 1) % 4 + i for i in range(4)]
            assert total == sum(4 * i + 6 for i in range(4))
            assert sub_total == (0 + 2 if r % 2 == 0 else 1 + 3)
        assert results[0][3] == [1, 2, 3]

    def test_interleaving_sensitive_fingerprint_still_defined(self):
        # fingerprint() hashes arrival order, which process scheduling
        # may permute — the suite only requires it to exist and be
        # stable in shape, while structure_fingerprint() must match.
        traffic = Traffic()
        run_ranks(2, _ring, traffic=traffic, timeout=TIMEOUT,
                  transport="process")
        assert len(traffic.fingerprint()) == 64
        assert len(traffic.structure_fingerprint()) == 64


class TestFailurePropagation:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_rank_failure_carries_rank_and_step(self, transport):
        with pytest.raises(RankFailure) as exc:
            run_ranks(3, _fail_at_step, timeout=TIMEOUT,
                      transport=transport)
        assert exc.value.rank == 1
        assert exc.value.step == 7
        assert "injected by conformance suite" in str(exc.value)


class TestFaultParity:
    def test_duplicate_delivers_two_independent_copies(self):
        """Regression: the thread transport handed the receiver the
        *same* ndarray twice (``a is b``); each delivery is its own
        copy on both transports."""
        results = assert_conformant(
            _duplicate_twice, 2,
            make_plan=lambda: FaultPlan().duplicate(src=0, dst=1))
        assert results[1] == (True, [0.0, 1.0, 2.0, 3.0])


class TestTransportSelection:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(TransportError, match="unknown smpi transport"):
            resolve_transport("carrier-pigeon")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SMPI_TRANSPORT", raising=False)
        assert default_transport() == "thread"
        monkeypatch.setenv("REPRO_SMPI_TRANSPORT", "process")
        assert default_transport() == "process"
        assert resolve_transport(None) == "process"
        assert resolve_transport("thread") == "thread"

    def test_process_rejects_scheduler(self):
        """The one remaining thread-only feature; the message is API —
        it must name the feature and the fix precisely."""
        with pytest.raises(
                TransportError,
                match=r"process transport does not support scheduler; "
                      r"deterministic scheduling requires "
                      r"transport='thread'"):
            run_ranks(2, _ring, transport="process",
                      scheduler=DeterministicScheduler(seed=1))

    def test_process_accepts_fault_plan(self):
        """Fault plans pass through since the process transport became
        a fault domain; an empty plan is a no-op."""
        assert run_ranks(2, _ring, transport="process", timeout=TIMEOUT,
                         fault_plan=FaultPlan()) is not None

    def test_thread_rejects_crash_hard(self):
        with pytest.raises(TransportError, match="crash_hard"):
            run_ranks(2, _ring, transport="thread", timeout=TIMEOUT,
                      fault_plan=FaultPlan().crash_hard(rank=0, step=0))

    def test_process_rejects_wildcard_src_message_fault(self):
        with pytest.raises(TransportError, match="explicit src"):
            run_ranks(2, _ring, transport="process", timeout=TIMEOUT,
                      fault_plan=FaultPlan().drop(dst=1))


# --------------------------------------------------------------------------
# Channel contract: what SimComm relies on, checked on both implementations
# --------------------------------------------------------------------------

def _thread_channels(nranks):
    return ThreadChannel.world(nranks, threading.Event(), WaitRegistry())


def _queue_channels(nranks):
    """Process channels over plain queues/events: same code, no fork."""
    queues = [queue.Queue() for _ in range(nranks)]
    abort = threading.Event()
    return [ProcessChannel(r, queues, abort) for r in range(nranks)]


@pytest.fixture(params=[_thread_channels, _queue_channels],
                ids=["thread", "process"])
def channels(request):
    return request.param(3)


def _item(src, tag, payload=None, comm_id="world"):
    return (comm_id, "p2p", src, tag, payload)


def _from(src):
    return lambda item: item[2] == src


def _tagged(tag):
    return lambda item: item[3] == tag


def _anything(item):
    return True


def _nothing(item):
    return False


def _soon(seconds=5.0):
    return time.monotonic() + seconds


#: rank 0 waiting on live rank 1 — never a deadlock
EDGE = WaitEdge(rank=0, op="recv", peers=(1,))


class TestChannelContract:
    def test_fifo_per_sender_receiver_pair(self, channels):
        for i in range(5):
            channels[1].put(0, _item(1, 0, i))
            channels[2].put(0, _item(2, 0, 10 + i))
        from_2 = [channels[0].get(_from(2), _soon(), EDGE)[4]
                  for _ in range(5)]
        from_1 = [channels[0].get(_from(1), _soon(), EDGE)[4]
                  for _ in range(5)]
        assert from_1 == [0, 1, 2, 3, 4]
        assert from_2 == [10, 11, 12, 13, 14]

    def test_unmatched_items_stay_buffered_in_arrival_order(self, channels):
        for tag in (1, 2, 3):
            channels[1].put(0, _item(1, tag))
        assert channels[0].poll(_tagged(3))
        assert not channels[0].poll(_tagged(4))
        got = [channels[0].get(m, _soon(), EDGE)[3]
               for m in (_tagged(3), _anything, _anything)]
        assert got == [3, 1, 2]
        assert not channels[0].poll(_anything)

    def test_comm_id_isolates_communicators(self, channels):
        """Two communicators over one channel never see each other's
        messages, even with wildcard source and tag."""
        def comm(rank, comm_id):
            return SimComm(channels[rank], range(3), rank, Traffic(), 0.2,
                           comm_id=comm_id)

        comm(1, "world/1.0").send("for-sub", 0, tag=7)
        world, sub = comm(0, "world"), comm(0, "world/1.0")
        assert not world.probe() and sub.probe()
        with pytest.raises(SimMPIError, match="timed out"):
            world.recv()
        assert sub.recv_status() == ("for-sub", 1, 7)

    def test_close_wakes_blocked_get_with_abort(self, channels):
        threading.Timer(0.1, channels[2].close).start()
        start = time.monotonic()
        with pytest.raises(SimAbort):
            channels[0].get(_nothing, _soon(30.0), EDGE)
        assert time.monotonic() - start < 2.0

    def test_deadline_is_wall_clock(self, channels):
        """Non-matching arrivals neither shorten nor extend the wait."""
        stop = threading.Event()

        def noise():
            while not stop.wait(0.01):
                channels[1].put(0, _item(1, 0))

        feeder = threading.Thread(target=noise)
        feeder.start()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                channels[0].get(_nothing, _soon(0.3), EDGE)
            assert 0.3 <= time.monotonic() - start < 0.8
        finally:
            stop.set()
            feeder.join(timeout=5.0)
        assert not feeder.is_alive()


# --------------------------------------------------------------------------
# the communicator over queue-wired process channels (threads; no fork)
# --------------------------------------------------------------------------

def _run_over_queues(nranks, fn, *args, timeout=5.0):
    """``run_ranks`` in miniature: SimComm over :func:`_queue_channels`,
    ranks as threads — the process channel under the real communicator
    where a coverage tool (blind to forked children) can see it."""
    channels = _queue_channels(nranks)
    results, errors = [None] * nranks, []

    def target(rank):
        comm = SimComm(channels[rank], range(nranks), rank, Traffic(),
                       timeout)
        try:
            results[rank] = fn(comm, *args)
        except SimAbort:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            channels[rank].close()

    threads = [threading.Thread(target=target, args=(r,))
               for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


class TestProcessCommInProcess:
    """``SimComm`` over queue-wired process channels, no fork.

    The class and test names predate the single communicator (they
    drove the deleted ``ProcessComm``) and are kept so the test ids
    stay stable; every behaviour here is also asserted through
    ``run_ranks`` on both transports above.
    """

    def test_ring_over_plain_queues(self):
        assert _run_over_queues(3, _ring) == [
            ("hello", 2), ("hello", 0), ("hello", 1)]

    def test_collectives_over_plain_queues(self):
        results = _run_over_queues(3, _collectives)
        assert results[0]["gather"] == [0, 1, 4]
        assert results[2]["allreduce_sum"] == 3.0

    def test_split_over_plain_queues(self):
        results = _run_over_queues(4, _split_groups)
        assert [r["total"] for r in results] == [2, 4, 2, 4]

    def test_send_dest_out_of_range(self):
        with pytest.raises(SimMPIError, match="out of range"):
            _run_over_queues(2, _bad_dest)

    def test_scatter_wrong_length(self):
        with pytest.raises(SimMPIError, match="must supply 2 items"):
            _run_over_queues(2, _bad_scatter)

    def test_alltoall_wrong_length(self):
        with pytest.raises(SimMPIError, match="needs 2 items"):
            _run_over_queues(2, _bad_alltoall)

    def test_allreduce_unknown_op(self):
        with pytest.raises(SimMPIError, match="unknown reduce op"):
            _run_over_queues(2, _bad_reduce_op)

    def test_recv_timeout_mentions_deadlock(self):
        with pytest.raises(SimMPIError, match=r"timed out .* deadlock\?"):
            _run_over_queues(2, _recv_from_silent_peer)

    def test_recv_unblocks_on_abort(self):
        """Rank 1 fails; the peers blocked in recv are woken (the
        helper asserts every thread ended) and its error surfaces."""
        with pytest.raises(RankFailure, match="injected"):
            _run_over_queues(3, _fail_at_step, timeout=30.0)

    def test_recv_buffers_non_matching_messages(self):
        results = _run_over_queues(2, _buffering_order)
        assert results[1] == ["signal", "noise-a", "noise-b"]


class TestPayloadEncoding:
    def test_small_payloads_pass_through(self):
        obj = {"a": np.arange(3), "b": [1, "two", (3.0,)]}
        encoded = _encode_payload(obj)
        decoded = _decode_payload(encoded)
        assert decoded["b"] == obj["b"]
        np.testing.assert_array_equal(decoded["a"], obj["a"])

    def test_large_array_rides_shared_memory(self):
        from repro.smpi.transport import _ShmRef, shm_threshold
        arr = np.arange(shm_threshold() // 8 + 16, dtype=np.float64)
        encoded = _encode_payload(("tagged", arr))
        assert isinstance(encoded[1], _ShmRef)
        decoded = _decode_payload(encoded)
        assert decoded[0] == "tagged"
        np.testing.assert_array_equal(decoded[1], arr)
        # idempotent cleanup: segment already unlinked by decode
        _release_payload(encoded)

    def test_release_unlinks_undelivered_segment(self):
        from multiprocessing import shared_memory
        from repro.smpi.transport import _ShmRef, shm_threshold
        arr = np.ones(shm_threshold() // 8 + 8, dtype=np.float64)
        encoded = _encode_payload([arr])
        ref = encoded[0]
        assert isinstance(ref, _ShmRef)
        _release_payload(encoded)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.name)

    def test_shm_threshold_env_override(self, monkeypatch):
        from repro.smpi.transport import _ShmRef, shm_threshold
        monkeypatch.setenv("REPRO_SMPI_SHM_MIN", "64")
        assert shm_threshold() == 64
        arr = np.arange(16, dtype=np.float64)  # 128 bytes > 64
        encoded = _encode_payload(arr)
        assert isinstance(encoded, _ShmRef)
        np.testing.assert_array_equal(_decode_payload(encoded), arr)

    def test_object_dtype_never_uses_shm(self, monkeypatch):
        from repro.smpi.transport import _ShmRef
        monkeypatch.setenv("REPRO_SMPI_SHM_MIN", "1")
        arr = np.array([{"k": 1}, None], dtype=object)
        encoded = _encode_payload(arr)
        assert not isinstance(encoded, _ShmRef)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
class TestProcessHygiene:
    def test_no_leaked_shm_segments(self):
        def big_exchange(comm):
            dest = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            arr = np.full(100_000, float(comm.rank))  # 800 KB → shm path
            comm.send(arr, dest, tag=1)
            got = comm.recv(source=src, tag=1)
            return float(got[0])

        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        results = run_ranks(2, big_exchange, timeout=TIMEOUT,
                            transport="process")
        assert results == [1.0, 0.0]
        if os.path.isdir("/dev/shm"):
            leaked = {n for n in set(os.listdir("/dev/shm")) - before
                      if n.startswith("psm_")}
            assert not leaked
