"""Rank-level memory tracing (`repro.obs.memtrace`) and the eq. (11) gate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import SCHEDULES
from repro.core import Ca3dmm
from repro.core.plan import Ca3dmmPlan
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, LinkFault, run_spmd
from repro.mpi.transport import MEM_INFLIGHT
from repro.obs.export import TraceSchemaError
from repro.obs.memtrace import (
    MemAuditError,
    check_mem,
    memprof_run,
    validate_memprof_json,
)
from tests.conftest import run_twice

ITEM = 8  # float64 bytes per matrix word


def replayed_peaks(memlog) -> dict[int, int]:
    """Each rank's watermark replayed from its memory timeline: the
    running total every record carries (checked against the records
    before it), and a pulse ``nbytes`` above it."""
    running: dict[int, int] = {}
    peak: dict[int, int] = {}
    for ev in memlog:
        cur = running.get(ev.rank, 0)
        cur += {"alloc": ev.nbytes, "free": -ev.nbytes, "pulse": 0}[ev.kind]
        assert cur == ev.resident_bytes  # event carries the total
        running[ev.rank] = cur
        top = cur + ev.nbytes if ev.kind == "pulse" else cur
        peak[ev.rank] = max(peak.get(ev.rank, 0), top)
    return peak


def _schedule_body(name: str, m: int = 24, n: int = 20, k: int = 28):
    """One ``SCHEDULES`` entry m×k · k×n from ``BlockCol1D`` operands."""

    def f(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 1))
        SCHEDULES[name](a, b)

    return f


def _executed(m=32, n=32, k=32, P=8, record_events=False, abft=False,
              faults=None):
    plan = Ca3dmmPlan(m, n, k, P)

    def f(comm):
        eng = Ca3dmm(comm, m, n, k, abft=abft)
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        eng.multiply(a, b)

    res = run_spmd(P, f, machine=laptop(), record_events=record_events,
                   faults=faults)
    return plan, res


# ----------------------------------------------- watermark property -- #
class TestWatermarkProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(8, 48), n=st.integers(8, 48), k=st.integers(8, 48),
        P=st.sampled_from([2, 4, 6, 8, 12]),
    )
    def test_resident_peak_brackets_the_working_set(self, m, n, k, P):
        """Every active rank's measured watermark covers its own tiles and
        stays within eq. (11) of its plan (ragged-split slack aside)."""
        plan, res = _executed(m, n, k, P)
        eq11 = plan.grid.memory_words(m, n, k)
        checked = 0
        for t in res.live_traces:
            role = plan.role(t.rank)
            if role is None or not t.resident_peak_bytes:
                continue
            a_blk = plan.a_cannon_block(role)
            b_blk = plan.b_cannon_block(role)
            c_elems = a_blk.rows * b_blk.cols
            tiles = (a_blk.rows * a_blk.cols
                     + b_blk.rows * b_blk.cols + c_elems) * ITEM
            # lower bound: the operand tiles and the partial-C
            # accumulator coexist at the cannon/reduce handoff
            assert t.resident_peak_bytes >= tiles, (
                f"rank {t.rank}: watermark {t.resident_peak_bytes} under "
                f"its own tile bytes {tiles}"
            )
            # upper bound: eq. (11) plus slack for ceil-ragged blocks on
            # small problems (the bench gate pins 10% on balanced ones)
            assert t.resident_peak_bytes <= eq11 * ITEM * 1.5, (
                f"rank {t.rank}: watermark {t.resident_peak_bytes} bytes "
                f"over eq. (11) = {eq11:.0f} words x 1.5"
            )
            checked += 1
        assert checked > 0

    def test_balanced_run_matches_eq11_exactly(self):
        plan, res = _executed(64, 64, 64, 8)
        eq11 = plan.grid.memory_words(64, 64, 64)
        peak = max(t.resident_peak_bytes for t in res.live_traces) / ITEM
        assert peak == pytest.approx(eq11)


# --------------------------------------------------- event balance -- #
class TestEventBalance:
    def test_all_spans_released_at_exit(self):
        plan, res = _executed(record_events=True)
        for t in res.live_traces:
            assert t.resident_bytes == 0, (
                f"rank {t.rank} leaks {t.mem_live}"
            )
            assert not t.mem_live

    def test_killed_rank_spans_released(self):
        """Dead-letter reclamation: a rank killed mid-algorithm cannot
        reach its own frees, so the runtime must release its open spans
        — the leak table stays clean, on the run and its replay."""
        from repro.ft import resilient_multiply
        from repro.mpi import RankFault

        m, n, k, P = 24, 20, 28, 6
        plan = FaultPlan(ranks=(
            RankFault(rank=1, phase="cannon", occurrence=1, kill=True),
        ))

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 7))
            b = DistMatrix.from_global(
                comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 8))
            resilient_multiply(comm, a, b, max_recoveries=2)

        res, _ = run_twice(P, f, machine=laptop(), faults=plan)
        assert res.failed_ranks == [1]
        for t in res.traces:
            assert not t.mem_live, f"rank {t.rank} leaks {t.mem_live}"
            assert t.resident_bytes == 0

    def test_memlog_allocs_and_frees_balance(self):
        """Allocs and frees cancel per purpose; a pulse is charged and
        released in one record, so it moves no balance."""
        plan, res = _executed(record_events=True)
        per_rank: dict[int, dict[str, int]] = {}
        for ev in res.tracer.memlog:
            assert ev.kind in ("alloc", "free", "pulse")
            assert ev.nbytes >= 0
            assert ev.resident_bytes >= 0
            bal = per_rank.setdefault(ev.rank, {})
            sign = {"alloc": 1, "free": -1, "pulse": 0}[ev.kind]
            bal[ev.purpose] = bal.get(ev.purpose, 0) + sign * ev.nbytes
        assert per_rank, "no memtrace events recorded"
        for rank, bal in per_rank.items():
            for purpose, leftover in bal.items():
                assert leftover == 0, (
                    f"rank {rank}: {purpose} allocs/frees unbalanced "
                    f"by {leftover} bytes"
                )

    def test_memlog_replays_the_watermark(self):
        """The event stream reproduces the counter: running resident per
        rank, a pulse peaking ``nbytes`` above it, peaks exactly at the
        trace's recorded watermark."""
        plan, res = _executed(record_events=True)
        peak = replayed_peaks(res.tracer.memlog)
        for t in res.live_traces:
            if t.rank in peak:
                assert peak[t.rank] == t.resident_peak_bytes

    def test_one_pulse_record_per_message(self):
        """Each send's packed copy is one ``pulse`` record of its bytes:
        no ``transport.inflight`` alloc or free is written."""
        plan, res = _executed(record_events=True)
        pulses = [ev for ev in res.tracer.memlog if ev.kind == "pulse"]
        assert {ev.purpose for ev in pulses} == {MEM_INFLIGHT}
        assert len(pulses) == sum(t.msgs_sent for t in res.traces)
        assert sum(ev.nbytes for ev in pulses) == sum(t.bytes_sent for t in res.traces)
        assert not [ev for ev in res.tracer.memlog
                    if ev.purpose == MEM_INFLIGHT and ev.kind != "pulse"]

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_every_schedule_replays_its_watermark(self, name):
        """On every rank of every schedule, the memlog replay peaks at
        ``resident_peak_bytes``."""
        res = run_spmd(16, _schedule_body(name), machine=laptop(), record_events=True)
        peak = replayed_peaks(res.tracer.memlog)
        assert [peak.get(t.rank, 0) for t in res.traces] == [
            t.resident_peak_bytes for t in res.traces]

    def test_a_pulse_watermark_replays(self):
        """``1d`` 256³ from ``BlockCol1D`` at P = 16: a rank's watermark is
        its in-flight pulse (32 768 words), above anything it allocates,
        so only the pulse records replay it."""
        res = run_spmd(16, _schedule_body("1d", 256, 256, 256), machine=laptop(),
                       record_events=True)
        memlog = res.tracer.memlog
        peak = replayed_peaks(memlog)
        settled = replayed_peaks([ev for ev in memlog if ev.kind != "pulse"])
        marks = [t.resident_peak_bytes for t in res.traces]
        assert max(marks) == 32_768 * ITEM
        assert [peak.get(t.rank, 0) for t in res.traces] == marks
        assert any(settled.get(t.rank, 0) < t.resident_peak_bytes for t in res.traces)

    def test_overfree_raises(self):
        def f(comm):
            comm.mem_alloc("tile.a", 100)
            with pytest.raises(ValueError, match="exceeds live"):
                comm.mem_free("tile.a", 101)
            comm.mem_free("tile.a", 100)

        run_spmd(2, f, machine=laptop())


# ----------------------------------------------- fault determinism -- #
class TestFaultedReplay:
    FAULTS = FaultPlan(seed=11, links=(
        LinkFault(phase="cannon", corrupt_at=(0,)),
    ))

    def test_seeded_fault_replay_is_identical(self):
        """Two runs under the same seeded FaultPlan produce the same raw
        memory timeline, event for event — the ABFT recompute's extra
        allocations included."""
        first, second = (
            _executed(24, 20, 28, 8, record_events=True, abft=True,
                      faults=self.FAULTS)[1].tracer.memlog
            for _ in range(2)
        )
        assert first and first == second


# ----------------------------------------------------- the report -- #
class TestMemReport:
    def test_clean_run_passes(self):
        plan, res = _executed()
        report = memprof_run(res, plan)
        assert report.ok
        assert report.resident_peak_words > 0
        assert report.peak_rank >= 0
        assert report.peak_over_eq11 is not None
        assert report.peak_over_eq11 <= 1.0 + report.tol
        assert not report.leaks
        for purpose in ("tile.a", "tile.b", "tile.c", "cannon.dblbuf"):
            assert report.by_purpose_words.get(purpose, 0) > 0, purpose

    def test_check_mem_returns_passing_report(self):
        plan, res = _executed()
        assert check_mem(res, plan).ok

    def test_tolerance_is_a_sharp_boundary(self):
        plan, res = _executed()
        t = max(res.live_traces, key=lambda t: t.resident_peak_bytes)
        # push the watermark 20% over eq. (11): the 10% gate trips,
        # a 30% gate does not
        eq11_bytes = plan.grid.memory_words(plan.m, plan.n, plan.k) * ITEM
        t.resident_peak_bytes = int(eq11_bytes * 1.2)
        with pytest.raises(MemAuditError, match="exceeds eq"):
            check_mem(res, plan, tol=0.10)
        assert memprof_run(res, plan, tol=0.30).ok

    def test_doctored_watermark_trips_the_gate(self):
        plan, res = _executed()
        t = max(res.live_traces, key=lambda t: t.resident_peak_bytes)
        t.resident_peak_bytes *= 10
        with pytest.raises(MemAuditError, match="resident peak"):
            check_mem(res, plan)

    def test_leak_is_reported(self):
        plan, res = _executed()
        t = res.live_traces[0]
        t.mem_live["tile.a"] = 800
        report = memprof_run(res, plan)
        assert report.leaks[t.rank]["tile.a"] == pytest.approx(100.0)
        assert "LEAKS" in report.format()

    def test_top_offenders_sorted(self):
        plan, res = _executed()
        report = memprof_run(res, plan)
        tops = report.top_offenders(3)
        assert len(tops) <= 3
        peaks = [r.resident_peak_words for r in tops]
        assert peaks == sorted(peaks, reverse=True)
        assert peaks[0] == report.resident_peak_words

    def test_top_zero_is_none_and_negative_is_refused(self):
        plan, res = _executed()
        report = memprof_run(res, plan)
        assert report.top_offenders(0) == []
        assert "ranks by resident peak" not in report.format(top=0)
        with pytest.raises(ValueError, match="count"):
            report.top_offenders(-1)

    def test_negative_tol_rejected(self):
        plan, res = _executed()
        with pytest.raises(ValueError):
            memprof_run(res, plan, tol=-0.1)

    def test_infeasible_cap_disables_the_cap_gate(self):
        m = n = k = 24
        P = 4
        plan = Ca3dmmPlan(m, n, k, P, memory_limit_words=10.0)
        assert plan.mem_limit_infeasible

        def f(comm):
            eng = Ca3dmm(comm, m, n, k, memory_limit_words=10.0)
            a = DistMatrix.from_global(
                comm, plan.a_dist, dense_random(m, k, 0))
            b = DistMatrix.from_global(
                comm, plan.b_dist, dense_random(k, n, 1))
            eng.multiply(a, b)

        with pytest.warns(UserWarning, match="excludes every candidate"):
            res = run_spmd(P, f, machine=laptop())
        report = memprof_run(res, plan)
        # the 10-word cap is hopeless, but eq. (11) still gates — and
        # the report flags the un-honoured cap rather than failing on it
        assert report.mem_limit_infeasible
        assert report.ok, report.violations


# ---------------------------------------------------------- schema -- #
class TestMemprofSchema:
    def test_to_dict_validates_and_is_json(self):
        import json

        plan, res = _executed()
        doc = memprof_run(res, plan).to_dict()
        validate_memprof_json(doc)
        json.dumps(doc)
        assert doc["ok"] is True
        assert doc["schema_version"] == 1
        assert doc["resident_peak_words"] > 0
        assert doc["ranks"]

    def test_missing_field_rejected(self):
        plan, res = _executed()
        doc = memprof_run(res, plan).to_dict()
        del doc["eq11_words"]
        with pytest.raises(TraceSchemaError):
            validate_memprof_json(doc)

    def test_format_renders(self):
        plan, res = _executed()
        text = memprof_run(res, plan).format()
        assert "eq. (11) prediction" in text
        assert "measured resident peak" in text
        assert "verdict: OK" in text
