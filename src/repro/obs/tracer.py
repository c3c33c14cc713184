"""Low-overhead span tracer for the virtual MPI runtime.

A :class:`Span` is one named, nested interval on one rank's *simulated*
clock — a phase of the CA3DMM schedule, a collective, or any region a
caller brackets with :meth:`~repro.mpi.comm.Comm.span`.  Spans carry
attributes (byte/message deltas are attached automatically by the
transport) and a parent pointer, so an executed run yields a full causal
trace: every collective sits inside the CA3DMM stage that issued it, and
every stage sits inside the run.

Design constraints:

* **Low overhead when off.**  The tracer is enabled together with
  ``record_events``; when disabled, instrumentation sites pay one
  attribute read (``tracer.enabled``) and nothing else.
* **One writer at a time.**  Ranks share one tracer, and only the
  strand that owns the world (:mod:`repro.mpi.des`) records into it,
  so the span list needs no lock of its own.
* **Clock alignment.**  All ranks advance clocks derived from the same
  simulated epoch (t = 0 at ``run_spmd`` start), so spans are globally
  ordered by construction; :meth:`Tracer.epoch` exposes the earliest
  span start so exporters can re-zero traces of a later multiply in a
  long-lived engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Span categories used by the built-in instrumentation.
CAT_PHASE = "phase"  #: a CA3DMM schedule stage (redist/replicate/cannon/...)
CAT_COLLECTIVE = "collective"  #: one collective call on one communicator
CAT_USER = "user"  #: caller-opened span (``Comm.span``)


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
    """Collects :class:`Span` records from all ranks of one transport."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._ids = itertools.count()
        self._spans: dict[int, Span] = {}
        self._stacks: dict[int, list[int]] = {}
        #: cached start-ordered view; invalidated when a span is added.
        self._sorted: list[Span] | None = None

    # ------------------------------------------------------------ record -- #
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
        return sid

    def end(self, rank: int, sid: int, t: float, attrs: dict[str, Any] | None = None) -> None:
        """Close span ``sid`` at simulated time ``t``.

        Spans must close innermost-first (context managers guarantee
        this); closing a span also closes any deeper spans left open by
        a non-local exit, so the stack never wedges on exceptions.  A
        stale ``sid`` — already closed, e.g. by an ancestor's non-local
        exit, or never opened on this rank — only updates that span's
        end time/attrs and leaves the rank's stack untouched.
        """
        span = self._spans.get(sid)
        if span is None:
            return
        stack = self._stacks.get(rank, [])
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
        if attrs:
            span.attrs.update(attrs)

    def annotate(self, sid: int, **attrs: Any) -> None:
        """Attach attributes to an already-recorded span."""
        self._spans[sid].attrs.update(attrs)

    def take_attr(self, sid: int, key: str) -> Any:
        """Remove and return an attribute (None if absent)."""
        return self._spans[sid].attrs.pop(key, None)

    # ----------------------------------------------------------- inspect -- #
    def _sorted_view(self) -> list[Span]:
        """The cached start-ordered span list (shared; do not mutate)."""
        if self._sorted is None:
            self._sorted = sorted(self._spans.values(), key=lambda s: (s.t0, s.sid))
        return self._sorted

    @property
    def spans(self) -> list[Span]:
        """All spans, ordered by start time then id (open ones included).

        The sort is computed once and cached until the next ``begin``
        (span end times never reorder the ``(t0, sid)`` key), so
        repeated access — exporters iterating per rank, per name, per
        parent — costs a copy, not a re-sort.
        """
        return list(self._sorted_view())

    def spans_of(self, rank: int) -> list[Span]:
        return [s for s in self._sorted_view() if s.rank == rank]

    def named(self, name: str) -> list[Span]:
        return [s for s in self._sorted_view() if s.name == name]

    def epoch(self) -> float:
        """Earliest span start (0.0 when no spans were recorded)."""
        return min((s.t0 for s in self._spans.values()), default=0.0)

    def children(self, sid: int) -> list[Span]:
        return [s for s in self._sorted_view() if s.parent == sid]

    def roots(self, rank: int | None = None) -> Iterator[Span]:
        for s in self._sorted_view():
            if s.parent == -1 and (rank is None or s.rank == rank):
                yield s

    def __len__(self) -> int:
        return len(self._spans)
