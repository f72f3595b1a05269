"""Deadlock naming and replay over message-built collectives.

Collectives are gather/fold/broadcast messages over the same channel
as point-to-point traffic, so a rank stuck in one registers the same
kind of wait-for edge a ``recv`` does: *world* ranks, ``op`` = the
collective's name, peers = the members whose contribution is missing.
``tests/test_sanitize_deadlock.py`` covers the world communicator;
this file covers sub-communicators, vanished members and seeded
replay.
"""

import sys
import time

import numpy as np
import pytest

from repro.smpi import (
    ANY_SOURCE,
    DeadlockError,
    DeterministicScheduler,
    Traffic,
    WaitEdge,
    WaitRegistry,
    run_ranks,
)


def expect_deadlock(nranks, fn, budget=1.5, **kwargs):
    start = time.monotonic()
    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(nranks, fn, timeout=60.0, **kwargs)
    assert time.monotonic() - start < budget, "detector too slow"
    return excinfo.value


def _allreduce_vs_recv_in_sub(comm):
    """World ranks 2/3 form a sub-communicator; 2 enters an allreduce,
    3 waits for a message only 2 could send."""
    sub = comm.split(comm.rank // 2)
    if comm.rank == 2:
        sub.allreduce(1.0)
    elif comm.rank == 3:
        sub.recv(source=0, tag=3)
    return sub.size


class TestCollectiveCycles:
    def test_allreduce_vs_recv_cycle_in_sub_communicator(self):
        err = expect_deadlock(4, _allreduce_vs_recv_in_sub)
        edges = {e.rank: e for e in err.cycle}
        # world ranks, although both waits ran on the sub-communicator
        assert sorted(edges) == [2, 3]
        assert edges[2].op == "allreduce" and edges[2].peers == (3,)
        assert edges[3].op == "recv" and edges[3].peers == (2,)
        assert "rank 2: allreduce <- waits on rank 3" in str(err)

    def test_same_cycle_under_the_scheduler(self):
        err = expect_deadlock(4, _allreduce_vs_recv_in_sub,
                              scheduler=DeterministicScheduler(3))
        assert {e.rank: e.op for e in err.cycle} == {2: "allreduce",
                                                     3: "recv"}

    @pytest.mark.parametrize("quitter", [0, 2])
    def test_member_that_exits_before_the_collective(self, quitter):
        """Whether the root or a leaf vanishes, the survivors' waits
        lead to a finished rank and are reported, not timed out."""
        def fn(comm):
            if comm.rank == quitter:
                return None
            return comm.allreduce(comm.rank)

        err = expect_deadlock(3, fn)
        assert f"rank {quitter} (finished)" in str(err)
        # whoever detects first reports the ranks stuck *so far*
        assert {e.rank for e in err.cycle} <= {0, 1, 2} - {quitter}
        assert err.cycle and all(e.op == "allreduce" for e in err.cycle)

    def test_staggered_members_are_not_a_deadlock(self):
        """The root waits on several members at once; a live straggler
        keeps everybody off the stuck list."""
        def fn(comm):
            time.sleep(0.15 * comm.rank)  # several detector poll periods
            sub = comm.split(comm.rank % 2)
            return (comm.allreduce(comm.rank), sub.allreduce(comm.rank))

        assert run_ranks(4, fn, timeout=30.0) == [(6, 2), (6, 4)] * 2


def _exchange_and_reduce(comm, rounds):
    dest, src = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    return sum(comm.sendrecv(i, dest, src) + comm.allreduce(1)
               for i in range(rounds))


class TestNoFalsePositives:
    """A rank woken mid-detection is running, not stuck."""

    def test_rank_that_left_its_wait_after_the_snapshot(self):
        """Regression: rank 1 is registered when the detector snapshots
        the graph, then consumes its message (unregistering first), so
        its probe reads "unsatisfied" — it used to be reported stuck."""
        reg = WaitRegistry()

        def consumed():
            reg.unregister(1)
            return False

        reg.register(WaitEdge(rank=0, op="recv", peers=(1,)), lambda: False)
        reg.register(WaitEdge(rank=1, op="allreduce", peers=(0,)), consumed)
        assert reg.find_deadlock() is None
        # a wait both ranks are still inside *is* a cycle
        reg.register(WaitEdge(rank=1, op="allreduce", peers=(0,)),
                     lambda: False)
        assert [e.rank for e in reg.find_deadlock()] == [0, 1]

    def test_tight_exchanges_under_aggressive_thread_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert run_ranks(4, _exchange_and_reduce, args=(200,),
                                 timeout=60.0) == [200 * 199 // 2 + 800] * 4
        finally:
            sys.setswitchinterval(interval)


def _collectives_and_races(comm):
    """Every collective, a split and an ANY_SOURCE race in one program."""
    sub = comm.split(comm.rank % 2, key=-comm.rank)
    out = [comm.allreduce(np.full(3, comm.rank + 0.1)).tolist(),
           comm.allgather(comm.rank),
           comm.bcast("root" if comm.rank == 1 else None, root=1),
           comm.scatter(list(range(comm.size)) if comm.rank == 0 else None),
           comm.alltoall([comm.rank * 10 + r for r in range(comm.size)]),
           sub.allreduce(comm.rank, "max"), sub.gather(comm.rank, root=1)]
    comm.barrier()
    if comm.rank == 0:
        order = [comm.recv_status(ANY_SOURCE, tag=4)[1]
                 for _ in range(comm.size - 1)]
    else:
        comm.send(comm.rank, 0, tag=4)
        order = None
    return out, order


class TestSeededReplay:
    def _run(self, seed):
        traffic = Traffic()
        results = run_ranks(4, _collectives_and_races, traffic=traffic,
                            timeout=30.0,
                            scheduler=DeterministicScheduler(seed))
        return results, traffic

    def test_collectives_replay_and_agree_across_seeds(self):
        (res_a, traf_a), (res_a2, traf_a2) = self._run(11), self._run(11)
        res_b, traf_b = self._run(12)
        # same seed: the whole run replays, ledger included
        assert repr(res_a) == repr(res_a2)
        assert traf_a.fingerprint() == traf_a2.fingerprint()
        # another seed: collectives are schedule-independent; only the
        # ANY_SOURCE arrival order may differ
        assert ([out for out, _order in res_a]
                == [out for out, _order in res_b])
        assert sorted(res_a[0][1]) == sorted(res_b[0][1]) == [1, 2, 3]
        assert (traf_a.structure_fingerprint()
                == traf_b.structure_fingerprint())
        # and they match a free-running (unscheduled) world
        free = run_ranks(4, _collectives_and_races, timeout=30.0)
        assert ([out for out, _order in free]
                == [out for out, _order in res_a])
