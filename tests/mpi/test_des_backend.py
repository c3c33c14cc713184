"""Discrete-event scheduler: the vestigial ``backend`` keyword, semantics, scale.

The scheduler runs at most one rank at a time, ordered by virtual
clock, and detects deadlocks structurally (every live rank parked with
nothing runnable).  These tests hold it to MPI's observable semantics
and pin the bugfixes that made runs deterministic:

* message-matching ties broken on ``(arrival, src)`` — not post order;
* dropped-message retransmits clamped to the original post time
  (virtual-clock causality under rank slowdowns);
* a killed rank's open allocation spans released, so the leak table
  has no false positives.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.machine.model import MachineModel, laptop
from repro.mpi import (
    DeadlockError,
    FaultPlan,
    LinkFault,
    RankFault,
    run_spmd,
)
from repro.mpi.datatypes import ANY_SOURCE
from repro.mpi.transport import Transport
from tests.conftest import run_twice


def _run(nprocs, fn, **kw):
    kw.setdefault("machine", laptop())
    return run_spmd(nprocs, fn, **kw)


class TestSelection:
    """``backend`` is a compatibility keyword: it selects nothing (see
    ``test_backend_keyword_selects_nothing`` in the replay suite)."""

    def test_invalid_backend_rejected(self):
        for backend in ("threads", "fibers", ""):
            with pytest.raises(ValueError, match="PR 13"):
                run_spmd(2, lambda comm: None, backend=backend)


class TestSemantics:
    def test_ring_clocks_closed_form(self):
        """One ring shift under a pure-latency machine: every rank sends
        (α) and then receives a message that arrived at α, so all clocks
        read exactly α and each rank holds its predecessor's payload."""
        alpha = 1e-3
        machine = MachineModel(
            alpha=alpha, nic_beta=0.0, alpha_intra=alpha, beta_intra=0.0,
            ranks_per_node=1,
        )

        def f(comm):
            nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            comm.send(np.full(8, comm.rank, dtype=float), dest=nxt)
            got = comm.recv(source=prv)
            return float(got[0]), comm.now()

        res, _ = run_twice(6, f, machine=machine)
        assert res.results == [((r - 1) % 6, alpha) for r in range(6)]

    def test_collectives_and_contexts(self):
        def f(comm):
            total = comm.allreduce(comm.rank + 1)
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            part = sub.allreduce(comm.rank)
            return total, part, sub.rank

        res, _ = run_twice(5, f)
        evens, odds = 0 + 2 + 4, 1 + 3
        assert res.results == [
            (15, odds if r % 2 else evens, r // 2) for r in range(5)
        ]

    def test_irecv_test_before_arrival(self):
        """Polling a request whose message hasn't arrived must not hang
        the single-running-rank scheduler."""

        def f(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                polls = 0
                while not req.test():
                    polls += 1
                    assert polls < 10_000
                return req.wait() is not None
            comm.compute(1e3)
            comm.send(b"late", dest=0)
            return True

        res = _run(2, f, machine=MachineModel(gamma=1e-9))
        assert res.results == [True, True]

    def test_probe_spin_loop(self):
        """A probe polling loop must yield to the sender instead of
        monopolising the scheduler."""

        def f(comm):
            if comm.rank == 0:
                while comm.probe(source=1) is None:
                    pass
                return comm.recv(source=1)
            comm.compute(1e3)
            comm.send(42, dest=0)
            return None

        res = _run(2, f, machine=MachineModel(gamma=1e-9))
        assert res.results[0] == 42

    def test_structural_deadlock_detected_fast(self):
        """Both ranks recv from each other: the driver proves the
        deadlock structurally — ``deadlock_timeout`` is never burned."""
        import time

        def f(comm):
            comm.recv(source=1 - comm.rank)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            _run(2, f, deadlock_timeout=60.0)
        assert time.monotonic() - t0 < 5.0

    def test_drop_retry_on_des(self):
        plan = FaultPlan(seed=3, links=(LinkFault(drop_at=(0,)),))

        def f(comm):
            if comm.rank == 0:
                comm.send(np.arange(16.0), dest=1)
                return None
            return comm.recv(source=0)

        res = _run(2, f, faults=plan, record_events=True)
        assert res.results[1].tolist() == list(range(16))
        assert res.metrics.total_retries >= 1

    def test_kill_recovery_on_des(self):
        from repro.ft import resilient_multiply
        from repro.layout import BlockCol1D, DistMatrix, dense_random

        m, n, k, p = 24, 20, 28, 6
        plan = FaultPlan(ranks=(
            RankFault(rank=1, phase="cannon", occurrence=1, kill=True),
        ))

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 7))
            b = DistMatrix.from_global(
                comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 8))
            c = resilient_multiply(comm, a, b, max_recoveries=2)
            return c.to_global()

        res = _run(p, f, faults=plan, record_events=True)
        got = next(r for r in res.results if r is not None)
        ref = dense_random(m, k, 7) @ dense_random(k, n, 8)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        assert res.failed_ranks == [1]
        assert res.metrics.recoveries >= 1


class TestDeterminismFixes:
    def test_any_source_tie_broken_by_arrival(self, spmd):
        """ANY_SOURCE must take the earliest *virtual* arrival even when
        the later-arriving message is posted first in wall time."""
        machine = MachineModel(
            alpha=1e-3, nic_beta=0.0, alpha_intra=1e-3, beta_intra=0.0,
            ranks_per_node=1, gamma=1e-9,
        )

        def f(comm):
            if comm.rank == 0:
                # Per-pair FIFO: once both "ready" markers are in, both
                # data messages are posted, so the ANY_SOURCE match sees
                # two candidates and must pick by (arrival, src) — not
                # by which sender posted first.
                comm.recv(source=1, tag=2)
                comm.recv(source=2, tag=2)
                got = comm.recv(source=ANY_SOURCE, tag=1)
                rest = comm.recv(source=ANY_SOURCE, tag=1)
                return got, rest
            if comm.rank == 1:
                comm.compute(1e6)  # 1 ms head start for rank 2's message
                comm.send("slow", dest=0, tag=1)
            else:
                comm.send("fast", dest=0, tag=1)
            comm.send("ready", dest=0, tag=2)
            return None

        res, _ = run_twice(3, f, machine=machine)
        assert res.results[0] == ("fast", "slow")

    def test_slowdown_drop_retransmit_causality(self):
        """Retransmit arrival is anchored at the original post time on
        the virtual clock — a slowed-down receiver must not push the
        sender's retransmit into its own dilated future."""
        machine = MachineModel(
            alpha=1e-3, nic_beta=0.0, alpha_intra=1e-3, beta_intra=0.0,
            ranks_per_node=1, gamma=1e-9,
        )
        plan = FaultPlan(
            seed=0,
            links=(LinkFault(src=0, dst=1, drop_at=(0,)),),
            ranks=(RankFault(rank=1, occurrence=0, slowdown=1000.0),),
        )

        def f(comm):
            if comm.rank == 0:
                comm.send(np.ones(4), dest=1)
                return None
            comm.compute(1e6)  # dilated x1000 by the rank fault
            return comm.recv(source=0)

        res, _ = run_twice(2, f, machine=machine, faults=plan)
        assert res.results[1].tolist() == [1.0] * 4
        for rec in res.transport.msglog:
            assert rec.arrival >= rec.t_post - 1e-15


class TestBaton:
    """The handoff: one lock per strand, released by whoever dispatches
    it.  Driven by hand on a transport ``run_des`` is not running."""

    def test_dispatch_before_park_sails_through(self):
        """Dispatching a strand that has not reached its park yet leaves
        its baton free; the park then returns at once."""
        t = Transport(2)
        sched = t.scheduler
        with t._lock:
            sched.make_ready_locked(0)
            sched._dispatch_locked()
        ran = []
        strand = threading.Thread(target=sched.strand_main, args=(0, ran.append))
        strand.start()
        strand.join(timeout=5.0)
        assert not strand.is_alive() and ran == [0]
        assert sched._finished_count == 1 and sched._running is None

    def test_second_dispatch_of_unparked_strand_raises(self):
        t = Transport(2)
        with t._lock:
            t.scheduler.dispatch_rank_locked(1)
            with pytest.raises(RuntimeError, match="unlocked"):
                t.scheduler.dispatch_rank_locked(1)

    def test_park_from_undispatched_thread_names_the_wait(self):
        """Nobody dispatched the caller, so nobody can wake it: the typed
        error, with the description derived from the structured wait."""
        t = Transport(2)
        t.ranks[1].recv_wait = (3, 0, 7)
        with t._lock, pytest.raises(DeadlockError) as ei:
            t.scheduler.park_locked(1, "recv")
        assert ei.value.blocked == {1: "recv(src=0, tag=7, ctx=3)"}

        with pytest.raises(DeadlockError) as ei:
            t.agree(("ctx", 1), (0, 1), 0, True)  # rank 1 never votes
        assert ei.value.blocked == {0: "agree(key=('ctx', 1))"}
        assert t.ranks[0].waiting_on is None  # wait state unwound
        assert t.scheduler._agree_parked == 0

    def test_agree_wakes_are_counted(self):
        """Ranks 0-2 park in the agree until the straggler's vote, rank 3
        until rank 4 — which never votes — finishes; every park is
        matched by a wake."""

        def f(comm):
            comm.compute(1e6 * comm.rank)
            if comm.rank == 4:
                return None
            return comm.agree(True)

        res, _ = run_twice(5, f, machine=laptop())
        assert res.results == [(False, (0, 1, 2, 3))] * 4 + [None]
        assert res.transport.scheduler._agree_parked == 0


class TestScale:
    def test_256_rank_pdgemm(self):
        """A quarter-K smoke of the CI 1024-rank job: the scheduler
        must complete a real pdgemm at this scale in test time."""
        from repro.core.ca3dmm import Ca3dmm
        from repro.core.plan import shared_plan
        from repro.layout.matrix import DistMatrix, dense_random
        from repro.machine.model import pace_phoenix_cpu

        m = n = k = 64
        p = 256

        def f(comm):
            plan = shared_plan(m, n, k, comm.size)
            eng = Ca3dmm(comm, m, n, k, grid=plan.grid)
            a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 7))
            b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 8))
            c = eng.multiply(a, b)
            return float(c.to_global().sum())

        res = _run(p, f, machine=pace_phoenix_cpu("mpi"))
        ref = float((dense_random(m, k, 7) @ dense_random(k, n, 8)).sum())
        assert res.results[0] == pytest.approx(ref, rel=1e-12)
        assert res.time > 0.0
