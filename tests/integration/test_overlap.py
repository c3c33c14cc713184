"""The async comm engine end to end (the ISSUE 10 acceptance criteria).

* Dual-buffered Cannon and pipelined SUMMA both clear 0.5 volume-weighted
  overlap efficiency on the acceptance workload with the engine on.
* The pipelined SUMMA makespan strictly beats the synchronous schedule.
* Overlap hides *time*, never *traffic*: the communication audit still
  passes under ``overlap="full"``.
* ``overlap="none"`` reproduces the committed serialized makespans
  bit for bit (the perf baselines were captured in that mode).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.summa import summa_matmul
from repro.bench.harness import (
    OVERLAP_SUMMA_GRID,
    OVERLAP_SUMMA_PANEL,
    OVERLAP_WORKLOAD,
    executed_workload,
    overlap_comparison,
)
from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.layout.distributions import Block2D
from repro.machine.model import laptop, pace_phoenix_cpu
from repro.mpi import run_spmd
from repro.obs.audit import audit_run
from repro.obs.metrics import overlap_by_phase

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

M, N, K, P = OVERLAP_WORKLOAD
PR, PC = OVERLAP_SUMMA_GRID


def _summa_body(comm):
    a = DistMatrix.from_global(
        comm, Block2D((M, K), P, PR, PC), dense_random(M, K, 0))
    b = DistMatrix.from_global(
        comm, Block2D((K, N), P, PR, PC), dense_random(K, N, 1))
    summa_matmul(a, b, grid=(PR, PC), panel=OVERLAP_SUMMA_PANEL)


def _ca3dmm_body(plan):
    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(M, K, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(K, N, 1))
        ca3dmm_matmul(a, b)
    return f


class TestAcceptance:
    """The ISSUE bar: both phases >= 0.5 overlap, audit still green."""

    def test_summa_broadcast_phase_overlap(self):
        res = run_spmd(P, _summa_body, machine=laptop().with_overlap("full"),
                       record_events=True)
        ov = overlap_by_phase(res)
        assert ov["summa"] >= 0.5, ov
        covered = sum(
            st.comm_covered_time
            for t in res.live_traces for st in t.phases.values()
        )
        assert covered > 0.0

    def test_cannon_shift_phase_overlap(self):
        plan = Ca3dmmPlan(M, N, K, P)
        res = run_spmd(P, _ca3dmm_body(plan),
                       machine=laptop().with_overlap("full"),
                       record_events=True)
        ov = overlap_by_phase(res)
        assert ov["cannon"] >= 0.5, ov

    def test_pipelined_beats_sync_makespan(self):
        mach = laptop().with_overlap("full")
        sync = run_spmd(P, _summa_body, machine=mach.with_overlap("none"))
        piped = run_spmd(P, _summa_body, machine=mach)
        assert piped.time < sync.time

    def test_audit_green_under_full_overlap(self):
        """The engine hides time, not traffic: measured wire words stay
        within tolerance of the paper's model with the engine on."""
        plan = Ca3dmmPlan(M, N, K, P)
        mach = laptop().with_overlap("full")
        res = run_spmd(P, _ca3dmm_body(plan), machine=mach,
                       record_events=True)
        rep = audit_run(res, plan, machine=mach)
        assert rep.ok, rep.format()

    def test_traffic_invariant_across_modes(self):
        """Byte-for-byte identical per-rank traffic counters in every
        overlap mode — only clocks may differ."""
        per_mode = {}
        for mode in ("none", "partial", "full"):
            res = run_spmd(P, _summa_body,
                           machine=laptop().with_overlap(mode))
            per_mode[mode] = [
                (t.bytes_sent, t.msgs_sent, t.bytes_recv, t.msgs_recv)
                for t in res.traces
            ]
        assert per_mode["none"] == per_mode["partial"] == per_mode["full"]


class TestNoneModeBitExact:
    """overlap="none" is the committed serialized schedule, exactly."""

    @pytest.mark.parametrize("name", ["fig5", "fig3", "table2"])
    def test_matches_committed_baseline_makespan(self, name):
        doc = json.loads((BASELINES / f"{name}.json").read_text())
        mach = pace_phoenix_cpu("mpi")  # overlap="none" by default
        assert mach.overlap == "none"
        _plan, res = executed_workload(name, machine=mach)
        assert res.time == doc["makespan_s"]

    def test_explicit_none_equals_default_machine(self):
        mach = pace_phoenix_cpu("mpi")
        _p, a = executed_workload("fig5", machine=mach)
        _p, b = executed_workload("fig5", machine=mach.with_overlap("none"))
        assert a.time == b.time
        assert [t.time for t in a.traces] == [t.time for t in b.traces]

    def test_none_mode_reports_zero_covered(self):
        res = run_spmd(P, _summa_body, machine=laptop())
        assert all(
            st.comm_covered_time == 0.0
            for t in res.traces for st in t.phases.values()
        )


def test_overlap_comparison_bench():
    """The bench generator that backs the CI overlap-smoke job."""
    res = overlap_comparison()
    s = res.data["summa"]
    assert s["engine_makespan_s"] < s["sync_makespan_s"]
    assert s["phase_overlap"]["summa"] >= 0.5
    assert res.data["ca3dmm"]["phase_overlap"]["cannon"] >= 0.5
    assert "overlap" in res.name
