"""Span tracer unit tests (nesting, unwinding, attributes, ordering)."""

from __future__ import annotations

import threading
import tracemalloc

import pytest

from repro.mpi.transport import RankState
from repro.obs.tracer import (
    CAT_COLLECTIVE, CAT_PHASE, CAT_USER, Event, MemEvent, MsgRecord, Span, Tracer,
)


class TestSpanBasics:
    def test_duration_and_closed(self):
        s = Span(sid=0, parent=-1, rank=0, name="x", t0=1.0, t1=3.5)
        assert s.duration == 2.5
        assert s.closed
        open_span = Span(sid=1, parent=-1, rank=0, name="y", t0=2.0)
        assert open_span.duration == 0.0
        assert not open_span.closed

    def test_categories_are_distinct(self):
        assert len({CAT_PHASE, CAT_COLLECTIVE, CAT_USER}) == 3


class TestTracerNesting:
    def test_parent_pointers_follow_the_stack(self):
        tr = Tracer()
        a = tr.begin(0, "outer", 0.0)
        b = tr.begin(0, "inner", 1.0)
        tr.end(0, b, 2.0)
        tr.end(0, a, 3.0)
        spans = {s.name: s for s in tr.spans}
        assert spans["outer"].parent == -1
        assert spans["inner"].parent == a

    def test_stacks_are_per_rank(self):
        tr = Tracer()
        a0 = tr.begin(0, "r0", 0.0)
        a1 = tr.begin(1, "r1", 0.0)
        # rank 1's span is not a child of rank 0's open span
        assert tr._spans[a1].parent == -1
        tr.end(1, a1, 1.0)
        tr.end(0, a0, 1.0)

    def test_end_closes_abandoned_deeper_spans(self):
        """A non-local exit (exception) may skip inner end() calls; ending
        the outer span must close the abandoned inner ones too."""
        tr = Tracer()
        outer = tr.begin(0, "outer", 0.0)
        inner = tr.begin(0, "inner", 1.0)
        deepest = tr.begin(0, "deepest", 2.0)
        tr.end(0, outer, 5.0)  # skips inner/deepest ends
        spans = {s.sid: s for s in tr.spans}
        assert spans[inner].closed and spans[inner].t1 == 5.0
        assert spans[deepest].closed and spans[deepest].t1 == 5.0
        # the stack fully unwound: a new span is a root again
        fresh = tr.begin(0, "fresh", 6.0)
        assert spans is not tr._spans or tr._spans[fresh].parent == -1
        tr.end(0, fresh, 7.0)

    def test_end_clamps_negative_durations(self):
        tr = Tracer()
        sid = tr.begin(0, "x", 5.0)
        tr.end(0, sid, 4.0)  # clock cannot run backwards; clamp to t0
        (span,) = tr.spans
        assert span.t1 == span.t0 == 5.0


class TestTracerAttributes:
    def test_begin_attrs_copied_and_end_attrs_merged(self):
        tr = Tracer()
        attrs = {"k": 1}
        sid = tr.begin(0, "x", 0.0, attrs=attrs)
        attrs["k"] = 99  # caller's dict must not alias the span's
        tr.end(0, sid, 1.0, attrs={"bytes": 64})
        (span,) = tr.spans
        assert span.attrs == {"k": 1, "bytes": 64}

    def test_span_carries_its_ranks_traffic_after_its_attrs(self):
        ranks = [RankState(rank=0), RankState(rank=1)]
        tr = Tracer(ranks)
        sid = tr.begin(1, "x", 0.0, attrs={"step": 3})
        ranks[1].bytes_sent, ranks[1].msgs_sent = 64, 1
        ranks[0].bytes_recv = 64  # another rank's traffic is not the span's
        tr.end(1, sid, 1.0)
        (span,) = tr.spans
        assert list(span.attrs.items()) == [
            ("step", 3), ("bytes_sent", 64), ("bytes_recv", 0),
            ("msgs_sent", 1), ("msgs_recv", 0),
        ]

    def test_none_closes_the_innermost_open_span(self):
        tr = Tracer()
        outer = tr.begin(0, "outer", 0.0)
        inner = tr.begin(0, "inner", 1.0)
        tr.end(0, None, 2.0)
        assert tr._spans[inner].t1 == 2.0 and tr._spans[outer].t1 is None
        tr.end(0, None, 3.0)
        assert tr._spans[outer].t1 == 3.0
        tr.end(0, None, 4.0)  # nothing open: a no-op


class TestTracerQueries:
    def _populated(self):
        tr = Tracer()
        a = tr.begin(0, "phase", 1.0, cat=CAT_PHASE)
        b = tr.begin(0, "coll", 2.0, cat=CAT_COLLECTIVE)
        tr.end(0, b, 3.0)
        tr.end(0, a, 4.0)
        c = tr.begin(1, "phase", 0.5, cat=CAT_PHASE)
        tr.end(1, c, 2.0)
        return tr

    def test_spans_sorted_by_start_time(self):
        tr = self._populated()
        starts = [s.t0 for s in tr.spans]
        assert starts == sorted(starts)

    def test_epoch_is_earliest_start(self):
        tr = self._populated()
        assert tr.epoch() == 0.5
        assert Tracer().epoch() == 0.0

    def test_len(self):
        assert len(self._populated().spans) == 3


class TestThreadSafety:
    def test_concurrent_begin_end_from_many_ranks(self):
        tr = Tracer()
        n, per = 8, 50

        def worker(rank):
            for i in range(per):
                sid = tr.begin(rank, f"s{i}", float(i))
                tr.end(rank, sid, float(i) + 0.5)

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr.spans) == n * per
        assert all(s.closed for s in tr.spans)
        sids = [s.sid for s in tr.spans]
        assert len(set(sids)) == len(sids)


class TestStaleSidEnd:
    """Ending a sid that is not on the stack must not unwind live spans."""

    def test_double_end_leaves_open_spans_alone(self):
        tr = Tracer()
        outer = tr.begin(0, "outer", 0.0)
        inner = tr.begin(0, "inner", 1.0)
        tr.end(0, inner, 2.0)
        tr.end(0, inner, 3.0)  # stale: inner already closed and popped
        spans = {s.name: s for s in tr.spans}
        assert spans["inner"].t1 == 2.0  # first close wins
        assert spans["outer"].t1 is None  # outer survived the stale end
        # the stack is intact: a new span still nests under outer
        child = tr.begin(0, "child", 4.0)
        assert tr._spans[child].parent == outer
        tr.end(0, child, 5.0)
        tr.end(0, outer, 6.0)

    def test_stale_open_sid_is_closed_in_place(self):
        """A sid evicted from the stack by an outer unwind but never
        explicitly ended gets a t1 without disturbing other ranks."""
        tr = Tracer()
        outer = tr.begin(0, "outer", 0.0)
        inner = tr.begin(0, "inner", 1.0)
        tr.end(0, outer, 2.0)  # unwinds inner too
        other = tr.begin(0, "other", 3.0)
        tr.end(0, inner, 4.0)  # stale and already closed: no-op
        assert tr._spans[inner].t1 == 2.0
        assert tr._spans[other].t1 is None
        tr.end(0, other, 5.0)

    def test_unknown_sid_is_a_noop(self):
        tr = Tracer()
        a = tr.begin(0, "a", 0.0)
        tr.end(0, 999, 1.0)
        assert tr._spans[a].t1 is None
        tr.end(0, a, 2.0)
        assert tr._spans[a].t1 == 2.0


class TestSortedViewCache:
    def test_spans_returns_a_fresh_list(self):
        tr = Tracer()
        a = tr.begin(0, "a", 0.0)
        view = tr.spans
        view.clear()  # caller mutation must not corrupt the tracer
        assert [s.sid for s in tr.spans] == [a]
        tr.end(0, a, 1.0)

    def test_cache_invalidated_by_begin(self):
        tr = Tracer()
        tr.begin(1, "late", 5.0)
        assert [s.t0 for s in tr.spans] == [5.0]
        tr.begin(0, "early", 1.0)
        assert [s.t0 for s in tr.spans] == [1.0, 5.0]

    def test_order_is_stable_across_ends(self):
        tr = Tracer()
        a = tr.begin(0, "a", 0.0)
        b = tr.begin(1, "b", 0.0)  # same t0: sid breaks the tie
        before = [s.sid for s in tr.spans]
        tr.end(1, b, 9.0)
        tr.end(0, a, 1.0)
        assert [s.sid for s in tr.spans] == before == [a, b]


class TestRecords:
    """The three log records are tuples: immutable, without a ``__dict__``,
    with the dataclass ``repr`` the transport and engine digests hash."""

    EVENT = (0, "send", "cannon", 0.5, 1.25, 64, 1, 3, False)
    MSG = (3, 0, 1, 0.5, 1.25, 64, 7, 2, "cannon", False, "allgather.bruck")
    MEM = (0, "alloc", "tile.a", "redist", 0.5, 64, 128)

    def records(self):
        return Event(*self.EVENT), MsgRecord(*self.MSG), MemEvent(*self.MEM)

    def test_a_field_cannot_be_assigned_and_there_is_no_dict(self):
        for rec in self.records():
            with pytest.raises(AttributeError):
                rec.phase = "other"
            assert not hasattr(rec, "__dict__")

    def test_repr_is_the_dataclass_one(self):
        assert list(map(repr, self.records())) == [
            "Event(rank=0, kind='send', phase='cannon', t0=0.5, t1=1.25, nbytes=64, "
            "peer=1, seq=3, injected=False)",
            "MsgRecord(seq=3, src=0, dst=1, t_post=0.5, arrival=1.25, nbytes=64, tag=7, "
            "ctx=2, phase='cannon', injected=False, coll='allgather.bruck')",
            "MemEvent(rank=0, kind='alloc', purpose='tile.a', phase='redist', t=0.5, "
            "nbytes=64, resident_bytes=128)",
        ]

    def test_defaults_and_derived_fields(self):
        e = Event(0, "compute", "cannon", 1.0, 3.5)
        assert (e.nbytes, e.peer, e.seq, e.injected, e.duration) == (0, -1, -1, False, 2.5)
        m = MsgRecord(1, 0, 1, 0.5, 2.0, 8, 0, 0, "p")
        assert (m.injected, m.coll, m.flight) == (False, "p2p", 1.5)

    def test_redelivered_replaces_the_record_in_place(self):
        tr = Tracer()
        first, second = (1, 0, 1, 0.5, 1.0, 8, 0, 0, "p"), (2, 1, 0, 0.5, 1.5, 8, 0, 0, "p")
        tr.message(*first)
        tr.message(*second)
        tr.redelivered(1, 4.0)
        assert tr.msglog == [MsgRecord(*first)._replace(arrival=4.0, injected=True),
                             MsgRecord(*second)]
        assert tr.msg_record(1) is tr.msglog[0] and tr.msg_record(1).flight == 3.5
        tr.redelivered(9, 5.0)  # an unknown message: nothing to replace
        assert len(tr.msglog) == 2

    @pytest.mark.parametrize("cls, fields, bound", [
        (Event, EVENT, 128), (MsgRecord, MSG, 144), (MemEvent, MEM, 112)])
    def test_bytes_per_record(self, cls, fields, bound):
        """tracemalloc's bytes per record, 32 under what the frozen
        dataclasses took (152 / 168 / 136 on CPython 3.11)."""
        n = 2000
        rows = [(i, *fields[1:]) for i in range(1000, 1000 + n)]  # ints made beforehand
        held = [None] * n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, row in enumerate(rows):
                held[i] = cls(*row)
            per_record = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_record <= bound, per_record
