"""Nested Comm.phase attribution: innermost charging and unwinding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.obs.tracer import CAT_COLLECTIVE, CAT_PHASE


class TestInnermostCharging:
    def test_nested_phase_charges_innermost_only(self, spmd):
        def f(comm):
            with comm.phase("outer"):
                with comm.phase("inner"):
                    comm.allgather(np.arange(16.0))

        res = spmd(4, f)
        for trace in res.traces:
            assert trace.phases["inner"].bytes_sent > 0
            assert trace.phases["inner"].msgs_sent > 0
            outer = trace.phases.get("outer")
            assert outer is None or outer.bytes_sent == 0

    def test_sibling_phases_are_separate(self, spmd):
        def f(comm):
            with comm.phase("first"):
                comm.allgather(np.arange(8.0))
            with comm.phase("second"):
                comm.allgather(np.arange(32.0))

        res = spmd(4, f)
        for trace in res.traces:
            assert 0 < trace.phases["first"].bytes_sent < trace.phases["second"].bytes_sent

    def test_phase_totals_partition_rank_totals(self, spmd):
        def f(comm):
            with comm.phase("a"):
                comm.allgather(np.arange(8.0))
            with comm.phase("b"):
                with comm.phase("c"):
                    comm.allgather(np.arange(8.0))

        res = spmd(4, f)
        for trace in res.traces:
            assert sum(st.bytes_sent for st in trace.phases.values()) == trace.bytes_sent


class TestExceptionUnwinding:
    def test_phase_stack_unwinds_on_exception(self, spmd):
        """An exception escaping a phase block must pop the phase, so
        later traffic is charged to the enclosing phase again."""

        def f(comm):
            with comm.phase("outer"):
                try:
                    with comm.phase("doomed"):
                        comm.allgather(np.arange(4.0))
                        raise RuntimeError("boom")
                except RuntimeError:
                    pass
                comm.allgather(np.arange(4.0))

        res = spmd(2, f)
        for trace in res.traces:
            assert trace.phases["doomed"].bytes_sent > 0
            assert trace.phases["outer"].bytes_sent > 0
            assert trace.phases["outer"].bytes_sent == trace.phases["doomed"].bytes_sent

    def test_spans_close_on_exception(self):
        def f(comm):
            try:
                with comm.phase("doomed"):
                    comm.allgather(np.arange(4.0))
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            with comm.phase("after"):
                comm.allgather(np.arange(4.0))

        res = run_spmd(2, f, machine=laptop(), record_events=True)
        spans = res.spans
        assert all(s.closed for s in spans)
        doomed = [s for s in spans if s.name == "doomed"]
        after = [s for s in spans if s.name == "after"]
        assert len(doomed) == len(after) == 2
        # "after" is a fresh root, not a child of the unwound "doomed"
        assert all(s.parent == -1 for s in after)


class TestSpanRecording:
    def test_phase_spans_nest_collective_spans(self):
        def f(comm):
            with comm.phase("work"):
                comm.allgather(comm.rank)

        res = run_spmd(2, f, machine=laptop(), record_events=True)
        phase = [s for s in res.spans if s.cat == CAT_PHASE and s.name == "work"]
        colls = [s for s in res.spans if s.cat == CAT_COLLECTIVE]
        assert len(phase) == 2 and colls
        by_sid = {s.sid: s for s in res.spans}
        for c in colls:
            assert by_sid[c.parent].name == "work"
            assert c.attrs["comm_size"] == 2

    def test_phase_span_carries_counter_deltas(self):
        def f(comm):
            with comm.phase("work"):
                comm.allgather(np.arange(16.0))

        res = run_spmd(4, f, machine=laptop(), record_events=True)
        for s in res.spans:
            if s.cat == CAT_PHASE:
                assert s.attrs["bytes_sent"] > 0
                assert s.attrs["msgs_sent"] > 0

    def test_user_span_does_not_redirect_phase_stats(self):
        def f(comm):
            with comm.phase("work"):
                with comm.span("inner-region", step=3):
                    comm.allgather(np.arange(8.0))

        res = run_spmd(2, f, machine=laptop(), record_events=True)
        # traffic still charged to the phase, not a span-named phase
        for trace in res.traces:
            assert trace.phases["work"].bytes_sent > 0
            assert "inner-region" not in trace.phases
        user = [s for s in res.spans if s.name == "inner-region"]
        assert len(user) == 2
        assert all(s.attrs["step"] == 3 and s.attrs["bytes_sent"] > 0 for s in user)

    def test_spans_off_without_record_events(self, spmd):
        def f(comm):
            with comm.phase("work"):
                with comm.span("region"):
                    comm.allgather(comm.rank)

        res = spmd(2, f)
        assert res.spans == []
        # phase accounting still works with the tracer off
        assert all(t.phases["work"].msgs_sent > 0 for t in res.traces)


@pytest.mark.parametrize("overlap", ["none", "full"])
def test_counters_follow_phase_and_collective_repointing(overlap):
    """A rank's current counters are re-pointed when a phase or a
    collective label is pushed or popped: every message lands in the
    (phase, outermost collective) active when it was posted, and
    re-entering a phase continues its old entry."""

    def f(comm):
        t, me = comm.transport, comm.world_rank

        def xfer(words):
            if comm.rank == 0:
                comm.send(np.zeros(words), dest=1)
            else:
                comm.recv(source=0)

        xfer(1)  # other / p2p
        t.push_phase(me, "A")
        xfer(2)  # A / p2p
        t.push_coll(me, "outer")
        t.push_coll(me, "inner")
        xfer(4)  # A / outer: the outermost label wins
        assert t.pop_coll(me) == "inner"
        xfer(8)  # A / outer still
        assert t.pop_coll(me) == "outer"
        xfer(16)  # A / p2p
        assert t.pop_phase(me) == "A"
        xfer(32)  # other / p2p
        with comm.phase("A"):
            xfer(64)  # A / p2p, the entry opened above

    res = run_spmd(2, f, machine=laptop().with_overlap(overlap))
    want_phases = {"other": (8 * (1 + 32), 2), "A": (8 * (2 + 4 + 8 + 16 + 64), 5)}
    want_colls = {
        "other": {"p2p": (8 * (1 + 32), 2)},
        "A": {"p2p": (8 * (2 + 16 + 64), 3), "outer": (8 * (4 + 8), 2)},
    }
    # Rank 0 only sends and rank 1 only receives, the same seven messages.
    for trace, way in zip(res.traces, ("sent", "recv")):
        def counts(st):
            return getattr(st, f"bytes_{way}"), getattr(st, f"msgs_{way}")

        assert {ph: counts(st) for ph, st in trace.phases.items()} == want_phases
        assert {
            ph: {c: counts(st) for c, st in by_coll.items()}
            for ph, by_coll in trace.colls.items()
        } == want_colls
    assert res.traces[0].msgs_recv == res.traces[1].msgs_sent == 0
