"""The one recorder of a virtual MPI run: everything ``record_events`` turns on.

A world started with ``run_spmd(..., record_events=True)`` builds one
:class:`Tracer` (``Transport.tracer``; ``None`` otherwise), and it alone
holds what such a run records beyond the always-on counters:

* ``events`` — one :class:`Event` per simulated-time interval a rank
  clock moved through (send, recv, wait, compute);
* ``msglog`` — one :class:`MsgRecord` per message (post time, arrival,
  phase and collective of the sender), indexed by its sequence number;
* ``memlog`` — the tagged alloc/free/pulse timeline (:class:`MemEvent`)
  behind the transport's always-on resident-memory watermarks;
* spans — a :class:`Span` is one named, nested interval on one rank's
  *simulated* clock: a phase of the CA3DMM schedule, a collective, or
  any region a caller brackets with :meth:`~repro.mpi.comm.Comm.span`.
  A span carries its attributes plus the bytes and messages its rank
  sent and received while it was open, and a parent pointer, so every
  collective sits inside the CA3DMM stage that issued it.

Design constraints:

* **Nothing when off.**  An unrecorded world has no tracer at all: each
  recording site in the transport and the collectives pays one
  ``tracer is not None`` test and nothing else.
* **A record is a tuple.**  :class:`Event`, :class:`MsgRecord` and
  :class:`MemEvent` are ``NamedTuple`` classes: immutable, without a
  ``__dict__``, built without a ``__setattr__`` per field, and equal
  when their fields are; a record changes only by being replaced
  (``rec._replace(...)``).  Their ``repr`` is the one the transport and
  engine digests hash.
* **One writer at a time.**  Ranks share one tracer, and only the
  strand that owns the world (:mod:`repro.mpi.des`) records into it,
  so the logs need no lock of their own.
* **Clock alignment.**  All ranks advance clocks derived from the same
  simulated epoch (t = 0 at ``run_spmd`` start), so spans are globally
  ordered by construction; :meth:`Tracer.epoch` exposes the earliest
  span start so exporters can re-zero traces of a later multiply in a
  long-lived engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, NamedTuple, Sequence

#: Span categories used by the built-in instrumentation.
CAT_PHASE = "phase"  #: a CA3DMM schedule stage (redist/replicate/cannon/...)
CAT_COLLECTIVE = "collective"  #: one collective call on one communicator
CAT_USER = "user"  #: caller-opened span (``Comm.span``)

#: The rank counters a span reports the change of, in attribute order.
_TRAFFIC = ("bytes_sent", "bytes_recv", "msgs_sent", "msgs_recv")
_traffic = attrgetter(*_TRAFFIC)


class Event(NamedTuple):
    """One simulated-time interval on a rank.

    ``kind`` is one of ``"send"``, ``"recv"``, ``"wait"`` (clock raised
    to a message arrival or request completion), or ``"compute"``.
    ``peer`` is the world rank on the other side of a transfer (-1 for
    compute/wait).  ``seq`` is the transport sequence number of the
    message behind a send/recv interval (-1 otherwise); it keys into
    :attr:`Tracer.msglog`, so the critical-path analyzer
    (:mod:`repro.obs.critpath`) can match every blocking receive to the
    exact send that released it.  Intervals use the simulated clock, in
    seconds.
    """

    rank: int
    kind: str
    phase: str
    t0: float
    t1: float
    nbytes: int = 0
    peer: int = -1
    seq: int = -1
    injected: bool = False  #: interval caused/extended by fault injection

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class MsgRecord(NamedTuple):
    """One message's life on the wire.

    ``t_post`` is the sender's simulated clock when the message was
    posted; ``arrival = t_post + msg_time`` is when it becomes
    receivable.  ``seq`` matches :attr:`Event.seq` on both the send- and
    recv-side events, giving the wait-for DAG its edges.
    """

    seq: int
    src: int
    dst: int
    t_post: float
    arrival: float
    nbytes: int
    tag: int
    ctx: int
    phase: str  #: the sender's active phase at post time
    injected: bool = False  #: flight perturbed (delayed/dropped) by a fault
    #: the sender's originating collective algorithm (raw point-to-point: "p2p")
    coll: str = "p2p"

    @property
    def flight(self) -> float:
        return self.arrival - self.t_post


class MemEvent(NamedTuple):
    """One tagged allocation, free or pulse on a rank's resident-memory timeline.

    ``kind`` is ``"alloc"``, ``"free"`` or ``"pulse"`` — ``nbytes``
    charged and released at the same instant (a send's packed copy), so
    it moves the watermarks only: the rank peaked at ``resident_bytes +
    nbytes``.  ``purpose`` is the span tag (``tile.a``, ``replicate.buf``,
    ``cannon.dblbuf``, ``abft.checksum``, ``ckpt.staging``,
    ``transport.inflight``, ...); ``t`` is the rank's simulated clock at
    the event and ``resident_bytes`` the rank's total tracked resident
    bytes *after* applying it.  Events are appended in
    the owning rank's program order, so the per-rank timeline — and every
    watermark derived from it — replays byte-identically under a seeded
    :class:`~repro.mpi.faults.FaultPlan`.
    """

    rank: int
    kind: str
    purpose: str
    phase: str
    t: float
    nbytes: int
    resident_bytes: int


@dataclass
class Span:
    """One nested interval on one rank's simulated clock."""

    sid: int  #: unique span id (per tracer)
    parent: int  #: sid of the enclosing span on the same rank, or -1
    rank: int  #: world rank
    name: str
    cat: str = CAT_USER
    t0: float = 0.0
    t1: float | None = None  #: None while the span is still open
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    @property
    def closed(self) -> bool:
        return self.t1 is not None


class Tracer:
    """Records the events, messages, memory timeline and spans of one world.

    ``ranks`` are the world's live per-rank counter records
    (:class:`~repro.mpi.transport.RankState`); a span reads its rank's
    traffic counters when it opens and closes.  A tracer built without
    them records spans with no traffic attributes.
    """

    def __init__(self, ranks: Sequence[Any] = ()):
        self._ranks = ranks
        self.events: list[Event] = []
        #: per-message records, list index == seq - 1
        self.msglog: list[MsgRecord] = []
        self.memlog: list[MemEvent] = []
        self._ids = itertools.count()
        self._spans: dict[int, Span] = {}
        self._stacks: dict[int, list[int]] = {}
        #: sid -> its rank's traffic counters when it opened
        self._opened: dict[int, tuple[int, ...]] = {}
        #: cached start-ordered view; invalidated when a span is added.
        self._sorted: list[Span] | None = None

    # ---------------------------------------------------- transport logs -- #
    def interval(self, *fields: Any) -> None:
        """Record one interval a rank clock moved through (every field of
        :class:`Event`, in order)."""
        self.events.append(Event(*fields))

    def message(self, *fields: Any) -> None:
        """Record the next posted message (every field of
        :class:`MsgRecord`, in order)."""
        self.msglog.append(MsgRecord(*fields))

    def redelivered(self, seq: int, arrival: float) -> None:
        """A retransmit moved message ``seq``'s arrival: its record is
        replaced in place, so the critical-path walk sees the true one."""
        rec = self.msg_record(seq)
        if rec is not None:
            self.msglog[seq - 1] = rec._replace(arrival=arrival, injected=True)

    def msg_record(self, seq: int) -> MsgRecord | None:
        """The :class:`MsgRecord` for a message seq (None when unknown)."""
        i = seq - 1
        if 0 <= i < len(self.msglog) and self.msglog[i].seq == seq:
            return self.msglog[i]
        return None

    def mem(self, *fields: Any) -> None:
        """Record one tagged allocation, free or pulse (every field of
        :class:`MemEvent`, in order)."""
        self.memlog.append(MemEvent(*fields))

    # ------------------------------------------------------------- spans -- #
    def begin(
        self,
        rank: int,
        name: str,
        t: float,
        cat: str = CAT_USER,
        attrs: dict[str, Any] | None = None,
    ) -> int:
        """Open a span on ``rank`` at simulated time ``t``; returns its id."""
        sid = next(self._ids)
        stack = self._stacks.setdefault(rank, [])
        span = Span(
            sid=sid,
            parent=stack[-1] if stack else -1,
            rank=rank,
            name=name,
            cat=cat,
            t0=t,
            attrs=dict(attrs) if attrs else {},
        )
        self._spans[sid] = span
        stack.append(sid)
        self._sorted = None
        if self._ranks:
            self._opened[sid] = _traffic(self._ranks[rank])
        return sid

    def end(
        self, rank: int, sid: int | None, t: float, attrs: dict[str, Any] | None = None
    ) -> None:
        """Close span ``sid`` at simulated time ``t``; ``None`` closes the
        rank's innermost open span (a phase's: spans nest like the
        context managers that open them).

        Spans must close innermost-first (context managers guarantee
        this); closing a span also closes any deeper spans left open by
        a non-local exit, so the stack never wedges on exceptions.  A
        stale ``sid`` — already closed, e.g. by an ancestor's non-local
        exit, or never opened on this rank — only updates that span's
        end time/attrs and leaves the rank's stack untouched.  The span
        gains its rank's traffic since it opened, then ``attrs``.
        """
        stack = self._stacks.get(rank, [])
        if sid is None:
            if not stack:
                return
            sid = stack[-1]
        span = self._spans.get(sid)
        if span is None:
            return
        if sid in stack:
            while stack:
                top = stack.pop()
                inner = self._spans[top]
                if inner.t1 is None:
                    inner.t1 = max(t, inner.t0)
                if top == sid:
                    break
        elif span.t1 is None:
            span.t1 = max(t, span.t0)
        opened = self._opened.pop(sid, None)
        if opened is not None:
            now = _traffic(self._ranks[rank])
            span.attrs.update(zip(_TRAFFIC, (b - a for a, b in zip(opened, now))))
        if attrs:
            span.attrs.update(attrs)

    # ----------------------------------------------------------- inspect -- #
    @property
    def spans(self) -> list[Span]:
        """All spans, ordered by start time then id (open ones included).

        The sort is computed once and cached until the next ``begin``
        (span end times never reorder the ``(t0, sid)`` key), so
        repeated access costs a copy, not a re-sort.
        """
        if self._sorted is None:
            self._sorted = sorted(self._spans.values(), key=lambda s: (s.t0, s.sid))
        return list(self._sorted)

    def epoch(self) -> float:
        """Earliest span start (0.0 when no spans were recorded)."""
        return min((s.t0 for s in self._spans.values()), default=0.0)
