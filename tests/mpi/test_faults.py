"""Deterministic fault injection: plans, perturbation, retry, abort.

The acceptance story (ISSUE): a seeded plan that drops a Cannon shift
message must leave the run bit-correct with at least one retry counted
in ``SpmdResult.metrics`` and an ``injected`` segment on the critical
path; with retries disabled the same plan must abort every rank with a
typed error instead of hanging.

Also covers unscripted failure injection (a rank function *raising*
rather than a plan entry): a crash anywhere must abort the world
cleanly — peers blocked in recv are woken (no hang, no
deadlock-timeout path) and the original exception surfaces to the
driver.  One test per collective family plus mid-algorithm crashes.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import ca3dmm_matmul
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import (
    FaultPlan,
    InjectedAbortError,
    LinkFault,
    RankFault,
    RecvTimeoutError,
    RetryPolicy,
    run_spmd,
)
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.mpi.faults import validate_fault_plan
from repro.mpi.transport import Transport
from repro.obs.critpath import critical_path
from tests.conftest import assert_replay_identical

M, N, K, P = 24, 20, 28, 8


def _matmul(comm):
    a_mat = dense_random(M, K, seed=7)
    b_mat = dense_random(K, N, seed=8)
    a = DistMatrix.from_global(comm, BlockCol1D((M, K), comm.size), a_mat)
    b = DistMatrix.from_global(comm, BlockCol1D((K, N), comm.size), b_mat)
    c = ca3dmm_matmul(a, b)
    c_full = c.to_global()
    return c_full if comm.rank == 0 else None


def _run(faults=None, nprocs=P, fn=_matmul, record_events=True):
    return run_spmd(
        nprocs, fn, machine=laptop(), record_events=record_events, faults=faults
    )


# --------------------------------------------------------------- plans -- #
class TestFaultPlanSerialization:
    def _plan(self):
        return FaultPlan(
            seed=42,
            links=(
                LinkFault(src=1, dst=2, phase="cannon", drop_at=(0, 3),
                          latency_factor=2.0, jitter_s=1e-6),
                LinkFault(drop_every=5, reorder_window=2, drop_prob=0.1,
                          drop_repeat=2),
            ),
            ranks=(
                RankFault(rank=3, phase="reduce", stall_s=1e-3),
                RankFault(rank=0, slowdown=1.5, occurrence=0),
            ),
            retry=RetryPolicy(timeout_s=5e-4, max_retries=4, backoff=1.5),
        )

    def test_dict_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = self._plan()
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_schema_validates(self):
        validate_fault_plan(self._plan().to_dict())

    def test_schema_rejects_junk(self):
        with pytest.raises(Exception):
            validate_fault_plan({"schema_version": 1, "links": [{"drop_at": "x"}]})

    def test_decisions_are_pure(self):
        rule = LinkFault(jitter_s=1e-6, drop_prob=0.5, reorder_window=3)
        a = rule.decide(seed=9, salt=0, src=1, dst=2, hit=4, flight_s=1e-5)
        b = rule.decide(seed=9, salt=0, src=1, dst=2, hit=4, flight_s=1e-5)
        assert a == b
        assert rule.decide(seed=10, salt=0, src=1, dst=2, hit=4, flight_s=1e-5) != a

    def test_retry_backoff_schedule(self):
        pol = RetryPolicy(timeout_s=1e-3, max_retries=3, backoff=2.0)
        assert pol.nth_timeout_s(1) == pytest.approx(1e-3)
        assert pol.nth_timeout_s(3) == pytest.approx(4e-3)

    def test_corrupt_phase_round_trips(self):
        plan = FaultPlan(
            seed=7,
            links=(LinkFault(corrupt_phase="reduce", corrupt_at=(0, 2)),),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_json(plan.to_json()) == plan
        validate_fault_plan(plan.to_dict())

    def test_corrupt_phase_may_not_contradict_phase(self):
        """``corrupt_phase`` narrows *corruption only*; combining it
        with a different whole-rule ``phase`` filter would silently
        disable the rule, so construction must reject it."""
        with pytest.raises(ValueError, match="corrupt_phase"):
            LinkFault(phase="cannon", corrupt_phase="reduce", corrupt_at=(0,))
        # equal or unset phase is fine
        LinkFault(phase="reduce", corrupt_phase="reduce", corrupt_at=(0,))
        LinkFault(corrupt_phase="redist", corrupt_at=(0,))


# ---------------------------------------------------- drop/retry story -- #
class TestDropRetryAcceptance:
    """The ISSUE's acceptance criteria, end to end."""

    PLAN = FaultPlan(seed=1, links=(LinkFault(phase="cannon", drop_at=(0,)),))

    def test_dropped_shift_is_bit_correct_with_retries(self):
        clean = _run()
        faulted = _run(faults=self.PLAN)
        assert np.array_equal(clean.results[0], faulted.results[0])
        m = faulted.metrics
        assert m.total_retries >= 1
        assert m.total_timeouts >= 1
        assert m.injected_wait_s > 0.0
        assert faulted.time > clean.time

    def test_critpath_attributes_injected_wait(self):
        faulted = _run(faults=self.PLAN)
        path = critical_path(faulted)
        assert path.complete
        assert path.injected_s > 0.0
        assert any(seg.injected for seg in path.segments)

    def test_clean_run_counters_stay_zero(self):
        clean = _run()
        m = clean.metrics
        assert (m.total_retries, m.total_timeouts, m.injected_wait_s) == (0, 0, 0.0)

    def test_retries_disabled_aborts_typed_not_hang(self):
        plan = FaultPlan(
            seed=1,
            links=(LinkFault(phase="cannon", drop_at=(0,)),),
            retry=RetryPolicy(timeout_s=1e-4, max_retries=0),
        )
        with pytest.raises(RuntimeError) as ei:
            _run(faults=plan)
        assert isinstance(ei.value.__cause__, RecvTimeoutError)
        cause = ei.value.__cause__
        assert cause.attempts == 1
        assert cause.waited_s > 0.0

    def test_timeout_budget_is_virtual_time_under_slowdown(self):
        """Deadlines are virtual-clock quantities: a 1000x rank slowdown
        must not change how many timeouts fire, how long the modelled
        wait is, or the typed error — on the run or its replay."""
        plan = FaultPlan(
            seed=0,
            links=(LinkFault(src=1, dst=0, drop_at=(0,), drop_repeat=9),),
            ranks=(RankFault(rank=0, occurrence=0, slowdown=1000.0),),
            retry=RetryPolicy(timeout_s=1e-4, max_retries=2, backoff=2.0),
        )

        def f(comm):
            if comm.rank == 1:
                comm.send(b"x" * 64, 0, tag=5)
            elif comm.rank == 0:
                comm.compute(1e6)  # dilated x1000: receiver lags the post
                comm.recv(source=1, tag=5)

        expected_wait = 1e-4 * (1 + 2 + 4)  # three timeouts, backoff 2.0
        for _replay in range(2):
            with pytest.raises(RuntimeError) as ei:
                run_spmd(2, f, machine=laptop(), faults=plan)
            cause = ei.value.__cause__
            assert isinstance(cause, RecvTimeoutError)
            assert cause.attempts == 3
            assert cause.waited_s == pytest.approx(expected_wait)

    def test_deterministic_replay(self):
        first, second = (_run(faults=self.PLAN) for _ in range(2))
        assert_replay_identical(first, second)
        assert first.metrics.total_retries >= 1


# ----------------------------------------------- ordering regressions -- #
class TestDropOrdering:
    """Dropped messages must not be overtaken by later same-(src, tag)
    traffic — collectives reuse tags and rely on FIFO matching."""

    WILD = FaultPlan(seed=42, links=(LinkFault(drop_at=(0,), jitter_s=1e-6),))

    @pytest.mark.parametrize("attempt", range(3))
    def test_allgather_order_survives_first_message_drop(self, attempt):
        res = _run(faults=self.WILD, nprocs=6,
                   fn=lambda comm: comm.allgather(comm.rank),
                   record_events=False)
        assert all(r == list(range(6)) for r in res.results)

    @pytest.mark.parametrize("attempt", range(3))
    def test_split_membership_survives_first_message_drop(self, attempt):
        def f(comm):
            sub = comm.split(comm.rank % 2, comm.rank)
            return (sub.size, sub.rank)

        res = _run(faults=self.WILD, nprocs=8, fn=f, record_events=False)
        assert res.results == [(4, r // 2) for r in range(8)]

    def test_full_pipeline_under_wildcard_drop(self):
        clean = _run()
        faulted = _run(faults=self.WILD)
        assert np.array_equal(clean.results[0], faulted.results[0])
        assert faulted.metrics.total_retries >= 1

    def test_burst_drop_needs_multiple_retries(self):
        plan = FaultPlan(
            seed=3,
            links=(LinkFault(src=1, dst=0, drop_at=(0,), drop_repeat=3),),
        )

        def f(comm):
            if comm.rank == 1:
                comm.send(b"x" * 64, 0, tag=5)
            elif comm.rank == 0:
                comm.recv(source=1, tag=5)

        res = _run(faults=plan, nprocs=2, fn=f, record_events=False)
        assert res.traces[0].retries >= 3


# ----------------------------------------------------------- rank faults -- #
class TestRankFaults:
    def test_stall_charges_injected_wait(self):
        plan = FaultPlan(seed=0, ranks=(RankFault(rank=2, phase="cannon",
                                                  stall_s=2e-3),))
        clean = _run()
        faulted = _run(faults=plan)
        assert np.array_equal(clean.results[0], faulted.results[0])
        assert faulted.traces[2].injected_wait_s >= 2e-3
        assert faulted.time > clean.time

    def test_slowdown_stretches_compute(self):
        plan = FaultPlan(
            seed=0,
            ranks=tuple(
                RankFault(rank=r, slowdown=4.0, occurrence=0) for r in range(P)
            ),
        )
        clean = _run()
        faulted = _run(faults=plan)
        assert np.array_equal(clean.results[0], faulted.results[0])
        assert faulted.time > clean.time
        assert faulted.metrics.injected_wait_s > 0.0

    def test_scripted_abort_is_typed(self):
        plan = FaultPlan(seed=0, ranks=(RankFault(rank=1, phase="cannon",
                                                  abort=True),))
        with pytest.raises(RuntimeError) as ei:
            _run(faults=plan)
        cause = ei.value.__cause__
        assert isinstance(cause, InjectedAbortError)
        assert cause.rank == 1
        assert cause.phase == "cannon"


# ------------------------------------------------------------- latency -- #
class TestLatencyPerturbation:
    def test_latency_factor_slows_without_breaking(self):
        plan = FaultPlan(seed=0, links=(LinkFault(latency_factor=10.0),))
        clean = _run()
        faulted = _run(faults=plan)
        assert np.array_equal(clean.results[0], faulted.results[0])
        assert faulted.time > clean.time

    def test_jitter_is_seed_deterministic(self):
        def mk(seed):
            return FaultPlan(seed=seed, links=(LinkFault(jitter_s=1e-5),))

        t1 = _run(faults=mk(7)).time
        t2 = _run(faults=mk(7)).time
        t3 = _run(faults=mk(8)).time
        assert t1 == t2
        assert t1 != t3


# ------------------------------------------- the injector, no world running -- #
class TestInjector:
    """``FaultInjector`` driven by hand: an idle ``Transport`` built with
    a plan carries one, and nothing here starts a scheduler."""

    PLAN = FaultPlan(
        seed=9,
        links=(
            LinkFault(jitter_s=1e-6, reorder_window=2, drop_prob=0.3, drop_repeat=2),
            LinkFault(src=1, latency_factor=2.0, corrupt_prob=0.5, corrupt_elems=2),
            LinkFault(corrupt_phase="b", corrupt_at=(0, 2)),
        ),
    )
    POSTS = [(0, 1, "a"), (1, 2, "b"), (0, 1, "a"), (1, 0, "a"), (1, 2, "b"),
             (2, 0, "b"), (1, 2, "a"), (1, 2, "b"), (0, 1, "b"), (1, 0, "a")] * 3

    def _decisions(self, plan):
        inj = Transport(3, faults=plan).injector
        out = []
        for src, dst, phase in self.POSTS:
            flight, drops, injected, stored = inj.perturb(
                src, dst, phase, 1e-6, np.arange(6.0)
            )
            out.append((flight, drops, injected, stored.tolist()))
        return out, [st.corruptions_injected_by_phase for st in inj.world.ranks]

    def test_same_plan_same_posts_same_decisions(self):
        first, second = self._decisions(self.PLAN), self._decisions(self.PLAN)
        assert first == second
        decisions, injected = first
        assert any(drops for _f, drops, _i, _s in decisions)
        assert any(by_phase for by_phase in injected)
        other = dataclasses.replace(self.PLAN, seed=10)
        assert self._decisions(other) != first

    def test_no_plan_no_injector_and_no_fault_state(self):
        clean, planned = Transport(2), Transport(2, faults=FaultPlan())
        assert clean.injector is None and planned.injector is not None
        # whatever a plan needs hangs off the injector, not the transport
        assert set(vars(clean)) == set(vars(planned))
        assert not {"_dropped", "_fault_hits", "_rankfault_hits"} & set(vars(clean))

    def test_array_and_one_element_container_flip_alike(self):
        """A raw array is the one-array case of the container walk: same
        seeded positions, same ``1 + |v|`` flip, same injection count —
        and a payload without float arrays comes back as it went in."""
        plan = FaultPlan(seed=3, links=(LinkFault(corrupt_at=(0,), corrupt_elems=3),))
        clean = np.linspace(-2.0, 2.0, 12).reshape(3, 4)

        def post(payload):
            inj = Transport(2, faults=plan).injector
            _flight, _drops, injected, stored = inj.perturb(0, 1, "p", 1e-6, payload)
            return stored, injected, inj.world.ranks[0].corruptions_injected

        raw, raw_injected, raw_count = post(clean.copy())
        blob, blob_injected, blob_count = post(pickle.dumps([clean.copy()]))
        (boxed,) = pickle.loads(blob)
        assert np.array_equal(raw, boxed)
        assert (raw_injected, raw_count) == (blob_injected, blob_count) == (True, 1)
        hit = raw != clean
        assert 1 <= hit.sum() <= 3  # fewer than three when seeded positions collide
        assert np.all(raw[hit] >= clean[hit] + 1.0 + np.abs(clean[hit]))
        for incorruptible in (np.arange(6), pickle.dumps(("vote", 3))):
            stored, injected, count = post(incorruptible)
            assert stored is incorruptible and not injected and count == 0

    def test_held_scan_is_lowest_seq_per_sender(self):
        inj = Transport(4, faults=FaultPlan()).injector

        def hold(src, tag, seq, ctx=0, dst=0):
            msg = Message(ctx, src, dst, tag, b"", 0, False, arrival=1.0, seq=seq)
            inj.hold(msg, flight=1e-6, drops=1, t_post=0.0)

        for src, tag, seq in [(1, 5, 7), (1, 5, 4), (2, 5, 9), (1, 6, 2)]:
            hold(src, tag, seq)
        hold(3, 5, 1, ctx=1)
        hold(3, 5, 3, dst=2)

        def seqs(ctx, dst, src, tag):
            held = inj.held(ctx, dst, src, tag)
            return held and {s: d.msg.seq for s, d in held.items()}

        assert seqs(0, 0, ANY_SOURCE, 5) == {1: 4, 2: 9}
        assert seqs(0, 0, 1, ANY_TAG) == {1: 2}
        assert seqs(0, 0, ANY_SOURCE, ANY_TAG) == {1: 2, 2: 9}
        assert seqs(0, 0, 2, 5) == {2: 9}
        # nothing for a (src, tag) no held drop matches, another
        # communicator's drops, another receiver's, or a clean mailbox
        assert seqs(0, 0, 3, 5) is None
        assert seqs(0, 0, 2, 6) is None
        assert seqs(1, 0, 1, 5) is None and seqs(1, 0, 3, 5) == {3: 1}
        assert seqs(0, 1, ANY_SOURCE, ANY_TAG) is None


# --------------------------------------- unscripted crashes must abort -- #
class Boom(Exception):
    pass


def _crashing(op):
    """A rank function where rank 1 dies just before the collective."""

    def f(comm):
        if comm.rank == 1:
            raise Boom("injected")
        op(comm)

    return f


COLLECTIVES = {
    "barrier": lambda comm: comm.barrier(),
    "bcast": lambda comm: comm.bcast(np.zeros(10) if comm.rank == 0 else None, 0),
    "allreduce": lambda comm: comm.allreduce(np.ones(4)),
    "reduce": lambda comm: comm.reduce(np.ones(4), root=0),
    "allgather": lambda comm: comm.allgather(comm.rank),
    "gather": lambda comm: comm.gather(comm.rank, root=0),
    "scatter": lambda comm: comm.scatter(
        list(range(comm.size)) if comm.rank == 0 else None, 0
    ),
    "alltoall": lambda comm: comm.alltoall([0] * comm.size),
    "reduce_scatter": lambda comm: comm.reduce_scatter(
        [np.ones(2) for _ in range(comm.size)]
    ),
}


class TestCrashAbort:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_crash_before_collective_aborts(self, spmd, name):
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            spmd(4, _crashing(COLLECTIVES[name]), deadlock_timeout=10.0)

    def test_crash_mid_algorithm_aborts(self, spmd):
        """A failure inside CA3DMM's pipeline must not hang the others."""

        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((16, 16), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((16, 16), comm.size), seed=1)
            if comm.rank == 2:
                raise Boom("mid-algorithm")
            ca3dmm_matmul(a, b)

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            spmd(6, f, deadlock_timeout=10.0)

    def test_first_failure_wins(self, spmd):
        """With several failing ranks, the lowest rank's error is reported."""

        def f(comm):
            if comm.rank in (1, 3):
                raise Boom(f"rank {comm.rank}")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank (1|3) failed"):
            spmd(4, f, deadlock_timeout=10.0)

    def test_world_reusable_after_failed_run(self, spmd):
        """A failed run must not poison subsequent runs (fresh transports)."""
        with pytest.raises(RuntimeError):
            spmd(3, _crashing(COLLECTIVES["barrier"]), deadlock_timeout=10.0)
        res = spmd(3, lambda comm: comm.allreduce(np.array([1.0]))[0])
        assert res.results == [3.0, 3.0, 3.0]

    def test_crash_after_success_returns_results(self, spmd):
        """Ranks that finished before a late crash still have their errors
        surfaced — the job fails as a whole."""

        def f(comm):
            x = comm.allgather(comm.rank)
            if comm.rank == 0:
                raise Boom("late")
            return x

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            spmd(3, f, deadlock_timeout=10.0)
