"""Replay determinism on the one scheduler.

There is a single way to run ranks, so the oracle for "the scheduler did
not perturb the simulated machine" is a second run of the same inputs:
every workload in the trace matrix, the async-engine modes, a hypothesis
sweep over shapes, world sizes and fault plans, and a kill-recovery case
each run twice and must agree on ledger bytes, the audit report, the
full ``RankTrace`` dataclasses and the *raw* ``events`` / ``msglog`` /
``memlog`` lists — and the product must equal numpy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import SCHEDULES
from repro.bench.harness import TRACE_WORKLOADS, executed_workload
from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan, shared_plan
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop, pace_phoenix_cpu
from repro.mpi import run_spmd
from repro.mpi.faults import FaultPlan, LinkFault, RankFault
from repro.obs.audit import audit_run
from repro.obs.ledger import canonical_json, ledger_record
from tests.conftest import assert_replay_identical, run_twice


def _canonical_record(result, plan, kind: str) -> str:
    """The run's ledger bytes with the only nondeterministic field pinned."""
    rec = ledger_record(result, plan, kind, run_id="0" * 32)
    return canonical_json(rec)


def _assert_same_ledger_and_audit(res_a, res_b, plan, kind, machine=None):
    assert _canonical_record(res_a, plan, kind) == \
        _canonical_record(res_b, plan, kind)
    assert audit_run(res_a, plan, machine=machine).to_dict() == \
        audit_run(res_b, plan, machine=machine).to_dict()


def _matmul_body(plan, m, n, k):
    """The stand-in workload's rank program, returning the product."""

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        return ca3dmm_matmul(a, b).to_global()

    return f


def _reference(m, n, k):
    return dense_random(m, k, 0) @ dense_random(k, n, 1)


@pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
def test_trace_workload_ledger_and_audit_parity(name):
    """Byte-identical replay on all eight trace workloads."""
    mach = pace_phoenix_cpu("mpi")
    plan, res_a = executed_workload(name, machine=mach)
    _plan, res_b = executed_workload(name, machine=mach)

    assert_replay_identical(res_a, res_b)
    _assert_same_ledger_and_audit(res_a, res_b, plan, f"replay.{name}", mach)
    m, n, k, p = TRACE_WORKLOADS[name]
    got = run_spmd(p, _matmul_body(plan, m, n, k), machine=mach).results[0]
    np.testing.assert_allclose(got, _reference(m, n, k), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("overlap", ["partial", "full"])
def test_async_engine_parity(overlap):
    """The async comm engine (pipelined SUMMA ibcasts + dual-buffered
    Cannon under NIC serialization) replays byte-identically."""
    from repro.baselines.summa import summa_matmul
    from repro.layout.distributions import Block2D

    m, n, k, P = 96, 96, 64, 8
    mach = laptop().with_overlap(overlap)
    plan = Ca3dmmPlan(m, n, k, P)
    matmul = _matmul_body(plan, m, n, k)

    def f(comm):
        a2 = DistMatrix.from_global(
            comm, Block2D((m, k), P, 4, 2), dense_random(m, k, 0))
        b2 = DistMatrix.from_global(
            comm, Block2D((k, n), P, 4, 2), dense_random(k, n, 1))
        # pipelined (engine on)
        c2 = summa_matmul(a2, b2, grid=(4, 2), panel=32).to_global()
        return c2, matmul(comm)

    res_a, res_b = run_twice(P, f, machine=mach)
    _assert_same_ledger_and_audit(res_a, res_b, plan, "replay.overlap")
    for c in res_a.results[0]:
        np.testing.assert_allclose(c, _reference(m, n, k), rtol=1e-12, atol=1e-12)
    # The engine actually engaged: covered seconds are on the books.
    covered = sum(
        st_.comm_covered_time
        for t in res_a.live_traces
        for st_ in t.phases.values()
    )
    assert covered > 0.0


_FAULT_PLANS = (
    None,
    FaultPlan(seed=11, links=(LinkFault(drop_at=(0,)),)),
    FaultPlan(seed=12, links=(LinkFault(jitter_s=1e-6),)),
    FaultPlan(seed=13, ranks=(RankFault(rank=0, occurrence=0,
                                        slowdown=7.0),)),
    FaultPlan(seed=14, ranks=(RankFault(rank=1, phase="cannon",
                                        occurrence=1, stall_s=1e-4),)),
)


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(min_value=4, max_value=24),
    n=st.integers(min_value=4, max_value=24),
    k=st.integers(min_value=4, max_value=24),
    P=st.sampled_from([2, 3, 4, 6, 8]),
    fault_idx=st.integers(min_value=0, max_value=len(_FAULT_PLANS) - 1),
)
def test_random_matmul_parity(m, n, k, P, fault_idx):
    """Random (shape, world, fault plan): results, traces, metrics, raw
    logs, ledger and audit identical on replay; product equals numpy."""
    plan = shared_plan(m, n, k, P)
    res_a, res_b = run_twice(
        P, _matmul_body(plan, m, n, k), machine=laptop(),
        faults=_FAULT_PLANS[fault_idx],
    )
    _assert_same_ledger_and_audit(res_a, res_b, plan, "replay.prop")
    np.testing.assert_allclose(
        res_a.results[0], _reference(m, n, k), rtol=1e-12, atol=1e-12
    )


def test_kill_recovery_parity():
    """A permanent rank kill plus shrink-replan recovery replays
    identically, down to the raw logs."""
    from repro.ft import resilient_multiply

    m, n, k, P = 24, 20, 28, 6
    faults = FaultPlan(ranks=(
        RankFault(rank=2, phase="cannon", occurrence=1, kill=True),
    ))

    def f(comm):
        a = DistMatrix.from_global(
            comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 7))
        b = DistMatrix.from_global(
            comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 8))
        c = resilient_multiply(comm, a, b, max_recoveries=2)
        return c.to_global()

    res_a, res_b = run_twice(P, f, machine=laptop(), faults=faults)
    _assert_same_ledger_and_audit(
        res_a, res_b, shared_plan(m, n, k, P), "replay.kill"
    )
    assert res_a.failed_ranks == [2]
    assert res_a.metrics.recoveries >= 1
    got = next(r for r in res_a.results if r is not None)
    ref = dense_random(m, k, 7) @ dense_random(k, n, 8)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_backend_keyword_selects_nothing():
    """``backend="des"`` (what the frozen hostbench passes) and ``None``
    are the same run: byte-identical ledgers."""
    m, n, k, p = TRACE_WORKLOADS["fig5"]
    plan = Ca3dmmPlan(m, n, k, p)
    records = [
        _canonical_record(
            run_spmd(p, _matmul_body(plan, m, n, k), machine=laptop(),
                     record_events=True, backend=backend),
            plan, "replay.keyword",
        )
        for backend in (None, "des")
    ]
    assert records[0] == records[1]


def _assert_recording_observes(p, body, **kw):
    """Recording must not perturb the simulated machine: the full
    RankTrace dataclasses (clocks, counters, per-phase stats), the
    results and the makespan match with event recording on and off, and
    only the recorded run has logs."""
    on = run_spmd(p, body, record_events=True, **kw)
    off = run_spmd(p, body, record_events=False, **kw)
    assert on.traces == off.traces
    assert on.time == off.time
    np.testing.assert_equal(on.results, off.results)
    assert on.tracer.events and on.tracer.msglog and on.tracer.memlog and on.spans
    assert off.tracer.events == off.tracer.msglog == off.tracer.memlog == off.spans == []


def test_traces_dataclass_fields_identical():
    m, n, k, p = TRACE_WORKLOADS["fig5"]
    body = _matmul_body(Ca3dmmPlan(m, n, k, p), m, n, k)
    _assert_recording_observes(p, body, machine=pace_phoenix_cpu("mpi"))


def _schedule_body(name: str, m: int = 24, n: int = 20, k: int = 28):
    """One ``SCHEDULES`` entry from 1D column bands, returning the tiles."""

    def f(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 1))
        c = SCHEDULES[name](a, b)
        return c.owned_rects, c.tiles

    return f


@pytest.mark.parametrize("overlap", ["none", "full"])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_recording_is_an_observer_of_every_schedule(name, overlap):
    _assert_recording_observes(16, _schedule_body(name), machine=laptop().with_overlap(overlap))


def test_recording_is_an_observer_under_link_drops():
    drops = FaultPlan(seed=7, links=(LinkFault(drop_prob=0.1, jitter_s=2e-6),))
    _assert_recording_observes(16, _schedule_body("ca3dmm"), machine=laptop(), faults=drops)
