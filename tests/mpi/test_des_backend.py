"""Discrete-event scheduler: the vestigial ``backend`` keyword, semantics,
the strand pool, scale.

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

import contextlib
import contextvars
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import ca3dmm_matmul
from repro.core.plan import shared_plan
from repro.ft.abft import AbftGuard
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import MachineModel, laptop
from repro.mpi import (
    DeadlockError,
    FaultPlan,
    LinkFault,
    RankFailedError,
    RankFault,
    run_spmd,
)
from repro.mpi import des
from repro.mpi.datatypes import ANY_SOURCE
from repro.mpi.des import run_des
from repro.mpi.faults import FaultInjector
from repro.mpi.transport import Transport
from repro.obs.ledger import canonical_json, ledger_record
from repro.obs.tracer import Tracer
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

    def test_probe_of_dead_rank_raises_at_once(self):
        """``probe`` refuses where ``match_recv`` does: a dead source with
        nothing on the wire is ``RankFailedError`` in milliseconds, not a
        spin until ``deadlock_timeout``; what the rank sent before it
        died is still reported, and ``ANY_SOURCE`` keeps polling."""
        plan = FaultPlan(ranks=(RankFault(rank=1, phase="cannon", kill=True),))

        def f(comm):
            if comm.rank == 1:
                comm.send("last words", dest=0, tag=4)
                with comm.phase("cannon"):
                    pass
            if comm.rank == 2:
                comm.compute(1e6)
                comm.send("alive", dest=0, tag=5)
                return None
            while comm.probe(1, 4) is None:
                pass
            seen = [comm.recv(source=1, tag=4)]
            req = comm.irecv(source=1, tag=5)
            for poll in (lambda: comm.probe(1, 5), lambda: req.test()[0]):
                try:
                    while not poll():
                        pass
                except RankFailedError as err:
                    seen.append((err.rank, err.failed))
            while comm.probe(ANY_SOURCE, 5) is None:
                pass
            return seen + [comm.recv(source=ANY_SOURCE, tag=5)]

        t0 = time.monotonic()
        res = _run(3, f, faults=plan, machine=MachineModel(gamma=1e-9))
        assert time.monotonic() - t0 < 2.0
        assert res.results[0] == ["last words", (0, 1), (0, 1), "alive"]
        assert res.failed_ranks == [1]

    def test_structural_deadlock_detected_fast(self):
        """Both ranks recv from each other: the driver proves the
        deadlock structurally — ``deadlock_timeout`` is never burned."""
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
        for rec in res.tracer.msglog:
            assert rec.arrival >= rec.t_post - 1e-15


class TestBaton:
    """The handoff: one lock per strand, released by whoever dispatches
    it.  Driven by hand, through the scheduler's own entry points, on a
    transport ``run_des`` is not running (the only thread there is)."""

    def test_dispatch_before_park_sails_through(self):
        """Dispatching a strand that has not reached its park yet leaves
        its baton free; the park then returns at once, and the strand
        gives the world back when it finishes."""
        t = Transport(2)
        sched = t.scheduler
        sched.make_ready(0)
        sched._dispatch()
        ran = []
        strand = threading.Thread(target=sched.strand_main, args=(0, ran.append))
        strand.start()
        strand.join(timeout=5.0)
        assert not strand.is_alive() and ran == [0]
        assert sched._finished_count == 1 and sched._running is None
        assert not sched._world.locked() and sched.driver_evt.is_set()

    def test_second_dispatch_of_unparked_strand_raises(self):
        t = Transport(2)
        t.scheduler.dispatch_rank(1)
        with pytest.raises(RuntimeError, match="unlocked"):
            t.scheduler.dispatch_rank(1)

    def test_park_from_undispatched_thread_names_the_wait(self):
        """Nobody dispatched the caller, so nobody can wake it: the typed
        error, with the description derived from the structured wait."""
        t = Transport(2)
        t.ranks[1].recv_wait = (3, 0, 7)
        with pytest.raises(DeadlockError) as ei:
            t.scheduler.park(1, "recv")
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


def _strand(comm):
    """The thread a rank ran on: ``(ident, name)``."""
    me = threading.current_thread()
    return me.ident, me.name


_CV: contextvars.ContextVar[int] = contextvars.ContextVar("_CV")


class TestStrandPool:
    """Rank ``r`` of every world runs on the pool's ``r``-th lowest free
    thread: a world starts no thread it can borrow, and every way a
    strand ends gives its thread back."""

    def test_a_second_world_starts_no_thread(self):
        first = _run(8, _strand).results
        threads = threading.active_count()
        second = _run(8, lambda comm: (_strand(comm), threading.active_count())).results
        assert [alive for _, alive in second] == [threads] * 8
        assert [strand for strand, _ in second] == first
        assert [name for _, name in first] == [f"vmpi-des-{r}" for r in range(8)]

    def test_a_rank_body_runs_a_nested_world(self):
        def outer(comm):
            inner = _run(3, lambda c: (c.allreduce(c.rank), _strand(c))).results
            return _strand(comm), inner

        res = _run(2, outer).results
        for rank, ((ident, name), inner) in enumerate(res):
            assert name == f"vmpi-des-{rank}"
            assert [total for total, _ in inner] == [3, 3, 3]
            assert [name for _, (_, name) in inner] == ["vmpi-des-0", "vmpi-des-1", "vmpi-des-2"]
            assert ident not in {i for _, (i, _) in inner}

    def test_two_drivers_run_worlds_at_once(self):
        """Rank 0 of each world waits for rank 0 of the other: both
        worlds must be out on the pool at the same time, on disjoint
        threads."""
        meet = threading.Barrier(2, timeout=10.0)
        got: dict[str, object] = {}

        def body(comm):
            if comm.rank == 0:
                meet.wait()
            return comm.allreduce(comm.rank), _strand(comm)

        def drive(key):
            try:
                got[key] = _run(4, body).results
            except BaseException as exc:  # noqa: BLE001 - reported below
                got[key] = exc

        drivers = [threading.Thread(target=drive, args=(k,)) for k in "ab"]
        for t in drivers:
            t.start()
        for t in drivers:
            t.join(timeout=30.0)
            assert not t.is_alive()
        a, b = got["a"], got["b"]
        assert [total for total, _ in a] == [6] * 4 and [total for total, _ in b] == [6] * 4
        assert {i for _, (i, _) in a}.isdisjoint(i for _, (i, _) in b)

    def test_drivers_under_preemption_lose_no_slot(self):
        """Four drivers start and end worlds of 1-6 ranks at once under a
        1 us switch interval: every world is right, and afterwards every
        slot that was free is free again, exactly once."""
        pool = des._pool
        with pool.lock:
            busy = set(range(len(pool.slots))) - set(pool.free)
        errors = []

        def drive(seed):
            try:
                for i in range(12):
                    size = 1 + (seed + i) % 6
                    assert _run(size, lambda comm: comm.allreduce(1)).results == [size] * size
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drivers = [threading.Thread(target=drive, args=(k,)) for k in range(4)]
            for t in drivers:
                t.start()
            for t in drivers:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert errors == []
        with pool.lock:
            assert sorted(pool.free) == sorted(set(range(len(pool.slots))) - busy)

    def test_every_failed_world_gives_its_slots_back(self):
        baseline = _run(4, _strand).results
        threads = threading.active_count()

        def kill(comm):
            with comm.phase("cannon"):
                pass

        def abort(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.recv(source=2)

        def deadlock(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)

        res = _run(4, kill, faults=FaultPlan(ranks=(RankFault(rank=1, phase="cannon", kill=True),)))
        assert res.failed_ranks == [1]
        assert _run(4, _strand).results == baseline
        with pytest.raises(RuntimeError, match="rank 2 failed"):
            _run(4, abort)
        assert _run(4, _strand).results == baseline
        with pytest.raises(DeadlockError):
            _run(4, deadlock)
        assert _run(4, _strand).results == baseline
        assert threading.active_count() == threads

    def test_an_escaping_exception_is_reported_and_the_slot_serves_on(self, monkeypatch):
        """An exception that leaves ``strand_main`` goes to
        ``threading.excepthook``; the world still ends and the thread runs
        the next world."""
        baseline = _run(3, _strand).results
        hooked = []
        monkeypatch.setattr(threading, "excepthook", lambda args: hooked.append(
            (args.exc_type, args.thread.name)))

        def body(rank):
            if rank == 1:
                raise KeyError(rank)

        run_des(Transport(3), body)
        assert hooked == [(KeyError, "vmpi-des-1")]
        assert _run(3, _strand).results == baseline

    def test_context_vars_do_not_cross_worlds_thread_locals_do(self):
        local = threading.local()

        def first(comm):
            _CV.set(comm.rank)
            local.rank = comm.rank

        def second(comm):
            return _CV.get(None), getattr(local, "rank", None)

        _run(4, first)
        assert _run(4, second).results == [(None, r) for r in range(4)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_a_world(self):
        _run(4, _strand)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            code = 1
            try:
                res = run_spmd(4, lambda comm: comm.allreduce(comm.rank))
                code = 0 if res.results == [6] * 4 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's world hung")
        assert os.waitstatus_to_exitcode(done[1]) == 0


# ------------------------------------------------------------ ownership -- #
M = N = K = P64 = 64


def _operands64(comm):
    plan = shared_plan(M, N, K, comm.size)
    return (
        DistMatrix.from_global(comm, plan.a_dist, dense_random(M, K, 0)),
        DistMatrix.from_global(comm, plan.b_dist, dense_random(K, N, 1)),
    )


def _matmul64(comm):
    """The 64-rank stand-in workload: a native-layout CA3DMM 64^3."""
    return ca3dmm_matmul(*_operands64(comm)).to_global()


def _summa64(comm):
    """Pipelined SUMMA on 8x8: ibcasts in flight on the async engine."""
    from repro.baselines.summa import summa_matmul
    from repro.layout.distributions import Block2D

    a = DistMatrix.from_global(comm, Block2D((M, K), P64, 8, 8), dense_random(M, K, 0))
    b = DistMatrix.from_global(comm, Block2D((K, N), P64, 8, 8), dense_random(K, N, 1))
    return summa_matmul(a, b, grid=(8, 8), panel=8).to_global()


def _resilient64(comm):
    from repro.ft import resilient_multiply

    return resilient_multiply(comm, *_operands64(comm), max_recoveries=2).to_global()


def _guarded64(comm):
    """ABFT on a grid that replicates (4x8x2: c = 2, s = 4, pk = 2), so
    the guard stands in at every step it can."""
    from repro.core import Ca3dmm
    from repro.grid.optimizer import GridSpec

    engine = Ca3dmm(comm, M, N, K, grid=GridSpec(4, 8, 2, P64), abft=True)
    a = DistMatrix.from_global(comm, BlockCol1D((M, K), P64), dense_random(M, K, 0))
    b = DistMatrix.from_global(comm, BlockCol1D((K, N), P64), dense_random(K, N, 1))
    return engine.multiply(a, b).to_global()


_KILL = FaultPlan(ranks=(RankFault(rank=1, phase="cannon", occurrence=1, kill=True),))
#: one flip in each stage the guard verifies: every retry path runs
_FLIPS = FaultPlan(seed=3, links=tuple(
    LinkFault(corrupt_phase=phase, corrupt_at=(0,)) for phase in ("replicate", "cannon", "reduce")
))
_REF64 = dense_random(M, K, 0) @ dense_random(K, N, 1)


@contextlib.contextmanager
def owner_checked():
    """Wrap every ``Transport``, ``Tracer``, ``FaultInjector`` and
    ``AbftGuard`` entry point: the caller must own the world.  Yields
    ``[calls, violations]``."""
    tally = [0, []]
    sched_of: dict[Tracer, object] = {}

    def check(sched, what):
        me = threading.current_thread().name
        tally[0] += 1
        if me.startswith("vmpi-des-"):
            ok = me == f"vmpi-des-{sched._running}" and sched._world.locked()
        else:  # the driver: acts under the lock, or reads a finished world
            ok = sched._running is None and (
                sched._world.locked() or sched._finished_count == sched.nprocs
            )
        if not ok:
            tally[1].append((what, me, sched._running, sched._world.locked()))

    def wrap(owner, name, sched_from):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            check(sched_from(self), f"{owner.__name__}.{name}")
            return original(self, *args, **kwargs)

        setattr(owner, name, wrapper)
        return owner, name, original

    def transport_sched(t):
        if t.tracer is not None:
            sched_of[t.tracer] = t.scheduler
        return t.scheduler

    undo = [
        wrap(Transport, name, transport_sched)
        for name, fn in list(vars(Transport).items())
        if not name.startswith("_") and callable(fn) and not isinstance(fn, staticmethod)
    ]
    undo += [
        wrap(Tracer, name, sched_of.__getitem__)
        for name, fn in list(vars(Tracer).items())
        if not name.startswith("_") and callable(fn)
    ]
    undo += [
        wrap(FaultInjector, name, lambda inj: inj.world.scheduler)
        for name, fn in list(vars(FaultInjector).items())
        if not name.startswith("_") and callable(fn)
    ]
    undo += [
        wrap(AbftGuard, name, lambda guard: guard.comm.transport.scheduler)
        for name, fn in list(vars(AbftGuard).items())
        if not name.startswith("_") and callable(fn)
    ]
    try:
        yield tally
    finally:
        for owner, name, original in undo:
            setattr(owner, name, original)


class TestOwnership:
    """What replaces the transport lock: whoever touches the world is the
    thread the scheduler dispatched, and it holds the world lock."""

    @pytest.mark.parametrize(
        "body, kw",
        [
            (_matmul64, dict(record_events=True)),
            (_summa64, dict(machine=laptop().with_overlap("full"), record_events=True)),
            (_resilient64, dict(faults=_KILL)),
            (_guarded64, dict(faults=_FLIPS)),
        ],
        ids=["recorded", "overlap_full", "kill_recovery", "abft_flips"],
    )
    def test_every_entry_is_by_the_owner_under_the_world_lock(self, body, kw):
        with owner_checked() as tally:
            res = _run(P64, body, **kw)
        calls, violations = tally
        assert violations == [] and calls > 10 * P64
        got = next(r for r in res.results if r is not None)
        np.testing.assert_allclose(got, _REF64, rtol=1e-12, atol=1e-12)
        sched = res.transport.scheduler
        assert not sched._world.locked() and sched._running is None

    def test_probe_livelock_still_reaches_the_driver(self):
        """Pollers hand the world to each other without ever blocking;
        the driver's sample must still get the lock between slices."""

        def f(comm):
            while comm.probe(source=1 - comm.rank) is None:
                pass

        t0 = time.monotonic()
        with pytest.raises(DeadlockError, match="probe loop"):
            _run(2, f, deadlock_timeout=0.2)
        assert time.monotonic() - t0 < 5.0


class TestPreemptionStress:
    """A 1 us switch interval preempts strands inside every slice; the
    world lock and the batons must still serialise them."""

    @pytest.fixture(autouse=True)
    def tiny_switch_interval(self):
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(saved)

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultPlan(seed=5, links=(LinkFault(drop_at=(0, 3)), LinkFault(jitter_s=1e-6))),
        ],
        ids=["clean", "drop_jitter"],
    )
    def test_replay_identical_under_preemption(self, faults):
        # run_twice compares results, traces and the raw events/msglog/memlog
        a, b = run_twice(P64, _matmul64, machine=laptop(), faults=faults)
        plan = shared_plan(M, N, K, P64)
        ledgers = [
            canonical_json(ledger_record(r, plan, "replay.preempt", run_id="0" * 32))
            for r in (a, b)
        ]
        assert ledgers[0] == ledgers[1]
        for r in (a, b):
            np.testing.assert_allclose(r.results[0], _REF64, rtol=1e-12, atol=1e-12)
        if faults is not None:
            assert a.metrics.total_retries >= 1


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
