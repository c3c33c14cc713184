"""Event recording and timeline rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.timeline import (
    critical_rank,
    event_totals,
    phase_spans,
    render_timeline,
)
from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.machine.model import MachineModel, laptop
from repro.mpi import run_spmd


def _run_recorded(m=32, n=32, k=64, P=8):
    plan = Ca3dmmPlan(m, n, k, P)

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        c = ca3dmm_matmul(a, b)
        return c.local_bytes()

    return run_spmd(P, f, machine=laptop(), record_events=True)


class TestEventRecording:
    def test_events_off_by_default(self, spmd):
        res = spmd(2, lambda comm: comm.allgather(comm.rank))
        assert res.tracer.events == []

    def test_events_cover_all_kinds(self):
        res = _run_recorded()
        kinds = {e.kind for e in res.tracer.events}
        assert {"send", "recv", "compute"} <= kinds

    def test_event_intervals_well_formed(self):
        res = _run_recorded()
        for e in res.tracer.events:
            assert e.t1 >= e.t0 >= 0.0
            assert 0 <= e.rank < res.transport.nprocs

    def test_event_times_bounded_by_makespan(self):
        res = _run_recorded()
        assert max(e.t1 for e in res.tracer.events) <= res.time + 1e-15

    def test_event_totals_match_phase_stats(self):
        res = _run_recorded()
        totals = event_totals(res)
        for trace in res.traces:
            if trace.rank not in totals:
                continue
            recorded = sum(totals[trace.rank].values())
            assert recorded == pytest.approx(trace.time, rel=1e-9)

    def test_transfer_events_carry_peer_and_bytes(self):
        res = _run_recorded()
        sends = [e for e in res.tracer.events if e.kind == "send"]
        assert sends
        assert all(e.peer >= 0 and e.nbytes > 0 for e in sends)


class TestRendering:
    def test_render_produces_one_lane_per_rank(self):
        res = _run_recorded(P=8)
        text = render_timeline(res, width=60)
        assert text.count("rank") == 8
        assert "legend" in text
        assert "#" in text  # some compute is visible

    def test_render_subset_of_ranks(self):
        res = _run_recorded(P=8)
        text = render_timeline(res, width=40, ranks=[0, 3])
        assert text.count("rank") == 2

    def test_render_without_events_explains_itself(self, spmd):
        res = spmd(2, lambda comm: None)
        text = render_timeline(res)
        assert "no events recorded" in text
        assert "record_events=True" in text

    def test_render_zero_makespan_explains_itself(self):
        from repro.obs.tracer import Event

        res = run_spmd(2, lambda comm: None, machine=laptop(), record_events=True)
        # a degenerate zero-duration event at t=0: clock never advanced
        res.tracer.events.append(
            Event(rank=0, kind="compute", t0=0.0, t1=0.0, phase="", peer=-1, nbytes=0)
        )
        text = render_timeline(res)
        assert "no timeline" in text
        assert "clock never advanced" in text

    def test_right_edge_event_does_not_bleed_past_makespan(self):
        res = _run_recorded(P=4)
        width = 50
        text = render_timeline(res, width=width)
        for line in text.splitlines():
            if line.lstrip().startswith("rank"):
                lane = line.split("|", 1)[1]
                assert len(lane) == width

    def test_phase_spans_ordered(self):
        res = _run_recorded()
        spans = phase_spans(res)
        assert "cannon" in spans and "reduce" in spans
        # the k-reduction happens after Cannon starts
        assert spans["reduce"][1] >= spans["cannon"][0]

    def test_critical_rank_is_makespan_owner(self):
        res = _run_recorded()
        cr = critical_rank(res)
        assert res.traces[cr].time == pytest.approx(res.time)


class TestOverlapVisibility:
    def test_dual_buffer_overlap_shows_compute_over_transfer(self):
        """With slow links, waiting appears; with fast links it does not —
        the timeline makes the overlap model observable."""
        m = n = k = 48
        P = 4
        plan = Ca3dmmPlan(m, n, k, P)

        def f(comm):
            a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
            b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
            ca3dmm_matmul(a, b)

        slow = MachineModel(
            alpha_intra=1e-3, beta_intra=1e-6, alpha=1e-3, nic_beta=1e-6,
            ranks_per_node=10 ** 9, gamma=1e-12,
        )
        # fast network, compute-bound: transfers hide under GEMMs
        fast = MachineModel(
            alpha_intra=1e-9, beta_intra=1e-12, alpha=1e-9, nic_beta=1e-12,
            ranks_per_node=10 ** 9, gamma=1e-8,
        )
        res_slow = run_spmd(P, f, machine=slow, record_events=True)
        res_fast = run_spmd(P, f, machine=fast, record_events=True)
        wait_slow = sum(
            e.duration for e in res_slow.tracer.events if e.kind in ("wait", "recv")
        )
        comp_fast = sum(
            e.duration for e in res_fast.tracer.events if e.kind == "compute"
        )
        assert wait_slow > 0
        assert comp_fast > 0
        # fast network: communication is a small share of the makespan
        comm_fast = sum(
            e.duration for e in res_fast.tracer.events if e.kind != "compute"
        )
        assert comm_fast < comp_fast


class TestCriticalHighlight:
    def test_overlay_paints_uppercase_glyphs(self):
        res = _run_recorded(P=4)
        text = render_timeline(res, width=60, highlight_critical=True)
        assert "(upper-case: critical path)" in text
        lanes = [ln.split("|", 1)[1] for ln in text.splitlines() if "|" in ln]
        painted = set("".join(lanes))
        assert painted & set("CSRW")  # some chain cells are highlighted
        assert painted & set("#><. ")  # background work still visible

    def test_overlay_off_by_default(self):
        res = _run_recorded(P=4)
        text = render_timeline(res, width=60)
        lanes = [ln.split("|", 1)[1] for ln in text.splitlines() if "|" in ln]
        assert not set("".join(lanes)) & set("CSRW")
        assert "upper-case" not in text

    def test_highlight_covers_every_column_when_complete(self):
        """A complete chain spans [0, makespan]; with the overlay on, every
        time slice has at least one highlighted rank."""
        res = _run_recorded(P=4)
        text = render_timeline(res, width=40, highlight_critical=True)
        lanes = [ln.split("|", 1)[1] for ln in text.splitlines() if "|" in ln]
        for col in range(40):
            assert any(lane[col] in "CSRW" for lane in lanes)


class TestCriticalRankOnCritpath:
    def test_matches_the_chain_endpoint(self):
        from repro.obs.critpath import critical_path

        res = _run_recorded(P=8)
        assert critical_rank(res) == critical_path(res).final_rank

    def test_fallback_without_events(self, spmd):
        res = spmd(4, lambda comm: comm.allgather(comm.rank))
        cr = critical_rank(res)
        assert res.traces[cr].time == pytest.approx(res.time)
