"""Transport-truth communication audit (`repro.obs.audit`)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.analysis.verify import expected_phase_traffic
from repro.bench.harness import TRACE_WORKLOADS, executed_workload
from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.machine.model import laptop, pace_phoenix_cpu
from repro.mpi import run_spmd
from repro.obs.audit import (
    AuditError,
    audit_run,
    check_audit,
    pebbling_lower_bound,
    validate_audit_json,
)
from repro.obs.export import TraceSchemaError
from repro.obs.ledger import ledger_record
from repro.obs.memtrace import memprof_run
from repro.obs.metrics import ITEM, run_totals, snapshot_run


def _executed(m=64, n=64, k=64, P=16, nruns=1, extra=None):
    """``nruns`` multiplications; then ``extra(comm)``, if given."""
    plan = Ca3dmmPlan(m, n, k, P)

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        for _ in range(nruns):
            ca3dmm_matmul(a, b)
        if extra is not None:
            extra(comm)

    return plan, run_spmd(P, f, machine=laptop(), record_events=False)


class TestExpectedTraffic:
    def test_closed_forms_on_balanced_cube(self):
        plan = Ca3dmmPlan(64, 64, 64, 8)  # 2 x 2 x 2, s=2, c=1
        exp = expected_phase_traffic(plan)
        mb, nb, kb = 32.0, 32.0, 16.0
        assert "replicate" not in exp  # c == 1
        assert exp["cannon"].words == (mb * kb + kb * nb) * plan.s
        assert exp["cannon"].msgs == 2 * plan.s
        assert exp["reduce"].words == mb * nb * (plan.pk - 1) / plan.pk
        assert exp["reduce"].msgs == plan.pk - 1

    def test_replication_appears_when_c_gt_1(self):
        plan = Ca3dmmPlan(64, 64, 64, 16)  # 2 x 4 x 2 grid: c = 2
        assert plan.c > 1
        exp = expected_phase_traffic(plan)
        assert exp["replicate"].msgs == math.ceil(math.log2(plan.c))
        assert exp["replicate"].words > 0

    def test_degenerate_phases_absent(self):
        plan = Ca3dmmPlan(64, 64, 16, 4)
        exp = expected_phase_traffic(plan)
        if plan.pk == 1:
            assert "reduce" not in exp
        if plan.s == 1:
            assert "cannon" not in exp


class TestPebblingBound:
    def test_closed_form(self):
        # 2mnk/(P·√M) with √16 = 4
        assert pebbling_lower_bound(4, 5, 6, 2, 16.0) == 2.0 * 4 * 5 * 6 / (2 * 4)

    def test_degenerate_memory_is_zero(self):
        assert pebbling_lower_bound(4, 4, 4, 2, 0.0) == 0.0
        assert pebbling_lower_bound(4, 4, 4, 2, -1.0) == 0.0

    def test_bad_p_raises(self):
        with pytest.raises(ValueError):
            pebbling_lower_bound(4, 4, 4, 0, 16.0)


class TestAuditRun:
    def test_balanced_grid_conforms(self):
        plan, res = _executed()
        report = audit_run(res, plan, machine=laptop())
        assert report.ok
        for p in report.phases:
            assert p.ok, p.to_dict()
            # within 5% or inside the 64-word floor
            assert p.rel_err_model <= 0.05 or abs(p.excess_words) <= 64.0

    def test_bounds_and_ratios(self):
        plan, res = _executed()
        report = audit_run(res, plan)
        assert report.q_words > 0
        assert report.eq9_words > 0 and report.pebbling_words > 0
        assert report.q_over_eq9 == pytest.approx(report.q_words / report.eq9_words)
        # the bound's M is the memtrace resident watermark, not the
        # (transport in-flight) peak_live counter
        assert report.resident_peak_words > 0
        assert report.pebbling_words == pytest.approx(
            pebbling_lower_bound(
                plan.m, plan.n, plan.k, plan.nprocs, report.resident_peak_words
            )
        )
        # measured Q can never beat a lower bound
        assert report.q_over_eq9 >= 1.0
        assert report.q_over_pebbling >= 1.0

    def test_coll_breakdown_names_the_algorithms(self):
        plan, res = _executed()  # c > 1 and pk > 1: all phases run
        report = audit_run(res, plan)
        by_phase = {p.phase: p.colls for p in report.phases}
        assert "allgather.bruck" in by_phase["replicate"]
        assert "p2p" in by_phase["cannon"]
        assert "reduce_scatter.pairwise" in by_phase["reduce"]
        # breakdown words must sum (over labels) to > 0 where the phase ran
        for p in report.phases:
            if p.measured_words > 0:
                assert sum(v["words"] for v in p.colls.values()) > 0

    def test_overlap_rides_along(self):
        plan, res = _executed()
        report = audit_run(res, plan)
        assert "cannon" in report.overlap_by_phase
        cannon = next(p for p in report.phases if p.phase == "cannon")
        assert cannon.overlap == pytest.approx(report.overlap_by_phase["cannon"])

    def test_doctored_traffic_trips_the_gate(self):
        plan, res = _executed()
        check_audit(res, plan)  # clean run passes
        res.traces[0].phases["cannon"].bytes_sent += 10**9
        with pytest.raises(AuditError, match="cannon"):
            check_audit(res, plan)

    def test_nruns_must_be_positive(self):
        plan, res = _executed()
        with pytest.raises(ValueError):
            audit_run(res, plan, nruns=0)

    def test_balanced_grid_is_exact(self):
        plan, res = _executed(P=8)
        report = audit_run(res, plan)
        assert report.ok
        by_phase = {p.phase: p for p in report.phases}
        for name in ("cannon", "reduce"):
            assert by_phase[name].rel_err_model == 0.0
            assert by_phase[name].measured_msgs == by_phase[name].model_msgs

    def test_acceptance_balanced_p64_within_tolerance(self):
        """Balanced P=64, m=n=k: measured per-phase volume matches eq. (4)
        within 5% (exactly, for the divisible cube), messages exactly."""
        plan, res = _executed(P=64)
        report = check_audit(res, plan, byte_tol=0.05)  # must not raise
        assert report.max_rel_err <= 0.05
        for p in report.phases:
            if p.model_words > 0:
                assert p.measured_words == p.model_words  # exact volume
            assert p.measured_msgs == p.model_msgs

    def test_nruns_normalizes_accumulated_counters(self):
        plan, res = _executed(P=8, nruns=3)
        assert audit_run(res, plan, nruns=3).ok
        # the same counters read as a single run are ~3x the model
        assert not audit_run(res, plan, nruns=1, abs_tol_words=0.0).ok

    def test_extra_message_fails_the_phase(self):
        """One near-empty message more than eq. (4) schedules: its words
        hide under the 64-word floor, its count does not."""

        def one_more(comm):
            with comm.phase("cannon"):
                peer = comm.rank ^ 1
                comm.sendrecv(b"", peer, peer)

        plan, res = _executed(P=8, extra=one_more)
        report = audit_run(res, plan)
        cannon = next(p for p in report.phases if p.phase == "cannon")
        assert abs(cannon.excess_words) <= 64.0
        assert cannon.measured_msgs == cannon.model_msgs + 1
        assert not cannon.ok and not report.ok
        with pytest.raises(AuditError, match="cannon"):
            report.check()

    def test_unscheduled_phase_traffic_fails(self, spmd):
        plan = Ca3dmmPlan(32, 32, 32, 2)  # s == 1: no cannon scheduled
        assert plan.s == 1

        def f(comm):
            with comm.phase("cannon"):
                comm.allgather(np.zeros(8))

        report = audit_run(spmd(2, f), plan)
        assert not report.ok
        assert report.max_rel_err == math.inf
        with pytest.raises(AuditError):
            report.check()

    def test_mismatched_plan_raises(self):
        plan, res = _executed(P=8)
        other = Ca3dmmPlan(128, 128, 128, 8)
        assert not audit_run(res, other, abs_tol_words=0.0).ok
        with pytest.raises(AuditError):
            check_audit(res, other, abs_tol_words=0.0)


class TestAuditSchema:
    def test_to_dict_validates(self):
        import json

        plan, res = _executed()
        doc = audit_run(res, plan, machine=laptop()).to_dict()
        validate_audit_json(doc)
        json.dumps(doc)
        assert doc["ok"] is True
        assert doc["bounds"]["q_over_eq9"] > 0

    def test_missing_field_rejected(self):
        plan, res = _executed()
        doc = audit_run(res, plan).to_dict()
        del doc["bounds"]
        with pytest.raises(TraceSchemaError):
            validate_audit_json(doc)

    def test_format_renders(self):
        plan, res = _executed()
        text = audit_run(res, plan, machine=laptop()).format()
        assert "Communication audit" in text
        assert "pebbling" in text
        assert "allgather.bruck" in text

    def test_unscheduled_phase_with_traffic_is_inf_err(self):
        plan, res = _executed(m=32, n=32, k=32, P=4)
        report = audit_run(res, plan)
        for p in report.phases:
            if p.model_words == 0 and p.measured_words > 0:
                assert p.rel_err_model == math.inf
                assert not p.ok


class TestReportsAgree:
    """Audit, memtrace, ledger and metrics read one measurement and one
    set of closed forms, so their shared numbers are equal."""

    @staticmethod
    def _check_live_reports(plan, res, mach):
        audit = audit_run(res, plan, machine=mach)
        mem = memprof_run(res, plan)
        rec = ledger_record(res, plan, "test.agree")
        assert rec["traffic"]["q_words"] == audit.q_words
        assert rec["traffic"]["total_words"] == audit.total_words
        assert rec["memory"]["peak_live_words"] == audit.peak_live_words
        assert rec["memory"]["peak_live_words"] == mem.transport_peak_words
        assert rec["memory"]["resident_peak_words"] == mem.resident_peak_words
        assert rec["memory"]["by_purpose_words"] == mem.by_purpose_words
        assert rec["optimality"] == audit.to_dict()["bounds"]
        for p in audit.phases:
            assert rec["overlap"]["covered_by_phase"].get(p.phase, 0.0) == p.covered_s
        return audit, rec

    @pytest.mark.parametrize("overlap", ["none", "full"])
    @pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
    def test_clean_workloads(self, name, overlap):
        mach = pace_phoenix_cpu("mpi").with_overlap(overlap)
        plan, res = executed_workload(name, machine=mach)
        audit, rec = self._check_live_reports(plan, res, mach)
        # every phase moves what eq. (4) schedules, message for message
        assert audit.ok
        assert all(p.measured_msgs == p.model_msgs for p in audit.phases)
        # the host benchmark's old name for the audit is the audit
        assert obs.drift_report(res, plan, machine=mach).to_dict() == audit.to_dict()
        metrics = snapshot_run(res, plan)
        assert metrics.q_words == audit.q_words
        assert metrics.total_words == rec["traffic"]["total_words"]
        assert metrics.mem_by_purpose == rec["memory"]["by_purpose_words"]

    def test_killed_run_differs_by_the_dead_ranks_counters(self):
        from repro.ft import resilient_multiply
        from repro.mpi import FaultPlan, RankFault

        m = n = k = 96
        plan = Ca3dmmPlan(m, n, k, 16)

        def f(comm):
            a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
            b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
            resilient_multiply(comm, a, b, max_recoveries=2)

        faults = FaultPlan(seed=0, ranks=(
            RankFault(rank=5, phase="cannon", occurrence=1, kill=True),))
        mach = pace_phoenix_cpu("mpi")
        res = run_spmd(16, f, machine=mach, faults=faults)
        (dead,) = [t for t in res.traces if t.rank == 5]
        assert res.failed_ranks == [5] and dead.bytes_sent > 0

        _audit, rec = self._check_live_reports(plan, res, mach)
        metrics = snapshot_run(res, plan)  # every rank, the dead one included
        # words are multiples of 1/ITEM far below 2**53: the products are exact
        assert (metrics.total_words - rec["traffic"]["total_words"]) * ITEM \
            == dead.bytes_sent
        by_phase = rec["traffic"]["by_phase"]
        all_ranks = run_totals(res.traces).phases
        for phase, st in dead.phases.items():
            assert (all_ranks[phase].sum_words - by_phase[phase]["words"]) * ITEM \
                == st.bytes_sent
            assert all_ranks[phase].sum_msgs - by_phase[phase]["msgs"] == st.msgs_sent
