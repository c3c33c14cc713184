"""Executed-run snapshots and the one pass over rank traces."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.obs.metrics import (
    ITEM,
    PhaseTotals,
    RunTotals,
    _critical_rank_overlap,
    format_metrics,
    overlap_by_phase,
    run_totals,
    snapshot_run,
    words,
)


def _executed(m=32, n=32, k=64, P=8, record_events=True):
    plan = Ca3dmmPlan(m, n, k, P)

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        ca3dmm_matmul(a, b)

    return plan, run_spmd(P, f, machine=laptop(), record_events=record_events)


class TestSnapshot:
    def test_headline_numbers_match_traces(self):
        plan, res = _executed()
        m = snapshot_run(res, plan)
        assert m.makespan == res.time
        assert m.q_words == max(t.bytes_sent for t in res.traces) / ITEM
        assert m.total_words == sum(t.bytes_sent for t in res.traces) / ITEM
        assert m.max_msgs == max(t.msgs_sent for t in res.traces)

    def test_per_phase_q_gauges(self):
        plan, res = _executed(m=64, n=64, k=64, P=16)  # c > 1: replication runs
        m = snapshot_run(res, plan)
        assert {"replicate", "cannon", "reduce"} <= set(m.phase_q_words)
        for phase, q in m.phase_q_words.items():
            expect = max(
                (t.phases[phase].bytes_sent for t in res.traces if phase in t.phases),
                default=0,
            ) / ITEM
            assert q == expect
            assert f"    {phase:<10}: {expect:.0f}" in format_metrics(m)

    def test_shift_latency_histogram_populated(self):
        plan, res = _executed()
        m = snapshot_run(res, plan)
        shifts = [e.duration for e in res.tracer.events
                  if e.phase == "cannon" and e.kind in ("recv", "wait") and e.duration > 0]
        assert shifts
        assert m.cannon_shift_s == tuple(sorted(shifts))
        assert m.cannon_shift_s[0] > 0
        assert f"shift latency       : n={len(shifts)} " in format_metrics(m)

    def test_overlap_ratio_in_unit_interval(self):
        plan, res = _executed()
        m = snapshot_run(res, plan)
        assert m.cannon_overlap_ratio is not None
        assert 0.0 <= m.cannon_overlap_ratio <= 1.0

    def test_k_group_imbalance_needs_plan_and_pk(self):
        plan, res = _executed(m=32, n=32, k=64, P=8)
        assert plan.pk > 1
        m = snapshot_run(res, plan)
        assert m.k_group_imbalance is not None
        assert 0.0 <= m.k_group_imbalance <= 1.0
        assert snapshot_run(res).k_group_imbalance is None

    def test_snapshot_without_events(self):
        plan, res = _executed(record_events=False)
        m = snapshot_run(res, plan)
        assert m.cannon_shift_s == ()
        assert "shift latency" not in format_metrics(m)
        assert m.q_words > 0

    def test_result_metrics_property_cached(self):
        _, res = _executed()
        assert res.metrics is res.metrics

    def test_format_metrics_renders(self):
        plan, res = _executed()
        text = format_metrics(snapshot_run(res, plan))
        assert "makespan" in text
        assert "per-phase Q" in text
        assert "cannon" in text

    def test_cannon_overlap_is_volume_weighted(self):
        plan, res = _executed()
        num = den = 0.0
        for t in res.traces:
            st = t.phases.get("cannon")
            if st is None or st.time <= 0:
                continue
            ratio = max(0.0, min(1.0, 1.0 - st.comm_time / st.time))
            weight = float(st.bytes_sent + st.bytes_recv)
            num += ratio * weight
            den += weight
        assert den > 0
        expect = num / den
        assert overlap_by_phase(res)["cannon"] == pytest.approx(expect)
        assert snapshot_run(res, plan).cannon_overlap_ratio == pytest.approx(expect)

    def test_cannon_overlap_critical_rank_variant(self):
        plan, res = _executed()
        crit = max(res.traces, key=lambda t: t.time)
        st = crit.phases["cannon"]
        expect = max(0.0, min(1.0, 1.0 - st.comm_time / st.time))
        assert _critical_rank_overlap(res) == pytest.approx(expect)
        m = snapshot_run(res, plan)
        assert m.cannon_overlap_critical_rank == pytest.approx(expect)

    def test_phase_overlap_gauges_match_aggregate(self):
        plan, res = _executed()
        m = snapshot_run(res, plan)
        ov = overlap_by_phase(res)
        assert ov and all(0.0 <= v <= 1.0 for v in ov.values())
        assert m.overlap_by_phase == pytest.approx(ov)
        assert m.to_dict()["overlap_by_phase"] == pytest.approx(ov)

    def test_to_dict_is_json_ready(self):
        import json

        plan, res = _executed()
        doc = snapshot_run(res, plan).to_dict()
        json.dumps(doc)  # must not raise
        assert doc["q_words"] > 0
        assert "registry" not in doc
        assert not {"phase_q_words", "cannon_shift_s"} & set(doc)  # text only

    def test_the_document_does_not_grow_with_the_world(self):
        """No per-rank number is in the snapshot: at 16 and 128 ranks its
        JSON differs only by the per-phase and per-purpose keys and the
        digits of the values (a per-rank registry made it 102 056 and
        628 590 bytes longer at 64^3 / P = 16 and 256^3 / P = 128)."""
        import json

        sizes = {}
        for nprocs in (16, 128):
            plan, res = _executed(m=64, n=64, k=64, P=nprocs)
            doc = snapshot_run(res, plan).to_dict()
            keyed = [v for k, v in doc.items() if k.endswith(("_by_phase", "_by_purpose"))]
            sizes[nprocs] = len(json.dumps(doc)) - sum(len(json.dumps(v)) for v in keyed)
        assert abs(sizes[16] - sizes[128]) <= 64, sizes


class TestShrunkWorld:
    """Faulted/shrunk worlds: dead ranks must not skew the snapshot."""

    def _killed_run(self):
        from repro.ft import resilient_multiply
        from repro.layout import BlockCol1D
        from repro.mpi import FaultPlan, RankFault

        m, n, k, nprocs = 24, 20, 28, 8

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((m, k), comm.size), dense_random(m, k, seed=7)
            )
            b = DistMatrix.from_global(
                comm, BlockCol1D((k, n), comm.size), dense_random(k, n, seed=8)
            )
            resilient_multiply(
                comm, a, b,
                c_dist=lambda cm: BlockCol1D((m, n), cm.size),
                max_recoveries=1,
            )

        faults = FaultPlan(seed=0, ranks=(
            RankFault(rank=3, phase="cannon", occurrence=1, kill=True),
        ))
        return run_spmd(
            nprocs, f, machine=laptop(), record_events=True, faults=faults
        )

    def test_live_traces_exclude_dead_ranks(self):
        res = self._killed_run()
        assert set(res.transport.dead_ranks()) == {3}
        assert {t.rank for t in res.live_traces} == {0, 1, 2, 4, 5, 6, 7}

    def test_overlap_and_snapshot_ignore_dead_ranks(self):
        import json

        res = self._killed_run()
        ov = overlap_by_phase(res)
        num = den = 0.0
        for t in res.traces:
            if t.rank == 3:
                continue
            st = t.phases.get("cannon")
            if st is None or st.time <= 0:
                continue
            ratio = max(0.0, min(1.0, 1.0 - st.comm_time / st.time))
            weight = float(st.bytes_sent + st.bytes_recv)
            num += ratio * weight
            den += weight
        assert den > 0
        assert ov["cannon"] == pytest.approx(num / den)

        m = snapshot_run(res)
        assert m.recoveries >= 1
        json.dumps(m.to_dict())  # the snapshot stays serializable on shrunk worlds


class TestRunTotals:
    """The shared pass against a straight-line recomputation from the
    ``RankTrace`` fields, for the all-ranks and the live-ranks list."""

    @staticmethod
    def _oracle(traces, nruns):
        phases = {}
        for name in dict.fromkeys(
            ph for t in traces for ph in (*t.phases, *t.colls)
        ):
            stats = [t.phases[name] for t in traces if name in t.phases]
            colls = {}
            for label in dict.fromkeys(
                lb for t in traces for lb in t.colls.get(name, ())
            ):
                cs = [t.colls[name][label] for t in traces
                      if label in t.colls.get(name, ())]
                colls[label] = {
                    "words": sum(c.bytes_sent / ITEM / nruns for c in cs),
                    "msgs": sum(c.msgs_sent / nruns for c in cs),
                }
            phases[name] = PhaseTotals(
                crit_words=max((s.bytes_sent / ITEM / nruns for s in stats), default=0.0),
                crit_msgs=max((s.msgs_sent // nruns for s in stats), default=0),
                sum_words=sum(s.bytes_sent / ITEM / nruns for s in stats),
                sum_msgs=sum(s.msgs_sent / nruns for s in stats),
                colls=colls,
            )
        covered = {}
        for name in phases:
            hidden = [t.phases[name].comm_covered_time / nruns for t in traces
                      if name in t.phases and t.phases[name].comm_covered_time > 0]
            if hidden:
                covered[name] = sum(hidden)
        resident = max((t.resident_peak_bytes for t in traces), default=0)
        purposes = {p for t in traces for p, b in t.mem_peaks.items() if b > 0}
        return RunTotals(
            q_words=max((t.bytes_sent for t in traces), default=0) / ITEM / nruns,
            total_words=sum(t.bytes_sent for t in traces) / ITEM / nruns,
            max_msgs=max((t.msgs_sent for t in traces), default=0) // nruns,
            peak_live_words=max((t.peak_live_bytes for t in traces), default=0) / ITEM,
            resident_peak_words=resident / ITEM,
            peak_rank=next(
                (t.rank for t in traces
                 if resident and t.resident_peak_bytes == resident), -1),
            mem_by_purpose={
                p: max(t.mem_peaks.get(p, 0) for t in traces) / ITEM
                for p in purposes
            },
            phases=phases,
            covered_by_phase=covered,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 96), n=st.integers(1, 96), k=st.integers(1, 96),
        nprocs=st.sampled_from([1, 2, 3, 5, 7, 8, 12, 16]),
        nruns=st.sampled_from([1, 3]),
        overlap=st.sampled_from(["none", "full"]),
        kill=st.one_of(st.none(), st.integers(0, 15)),
    )
    @example(m=96, n=96, k=96, nprocs=16, nruns=3, overlap="full", kill=5)
    @example(m=50, n=37, k=41, nprocs=12, nruns=3, overlap="none", kill=None)
    def test_every_field_matches_the_oracle(self, m, n, k, nprocs, nruns, overlap, kill):
        from repro.ft import resilient_multiply
        from repro.mpi import FaultPlan, RankFault

        faults = None
        if kill is not None and nprocs > 1:
            # tiny products on many ranks are outside what recovery handles
            m, n, k = max(m, 4), max(n, 4), max(k, 4)
            faults = FaultPlan(seed=0, ranks=(
                RankFault(rank=kill % nprocs, phase="cannon", occurrence=1, kill=True),
            ))
        plan = Ca3dmmPlan(m, n, k, nprocs)

        def f(comm):
            a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
            b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
            if faults is not None:
                resilient_multiply(comm, a, b, max_recoveries=2)
            else:
                for _ in range(nruns):
                    ca3dmm_matmul(a, b)

        res = run_spmd(nprocs, f, machine=laptop().with_overlap(overlap), faults=faults)
        assert (kill, nprocs) != (5, 16) or res.failed_ranks == [5]
        for traces in (res.traces, res.live_traces):
            assert run_totals(traces, nruns) == self._oracle(traces, nruns)

    def test_nruns_must_be_positive(self):
        with pytest.raises(ValueError, match="nruns"):
            run_totals([], nruns=0)

    def test_words_is_the_item_size(self):
        assert words(ITEM * 5) == 5.0
