"""Critical-path analysis of executed runs: where the makespan goes.

The transport's per-rank traffic counters say how much each CA3DMM phase
*moves*; this module says which dependency chain actually *bounds*
``SpmdResult.time``.  Following COSMA's decomposition discipline
(Kwasniewski et al., SC 2019), the makespan is not the sum of per-phase
elapsed times — phases overlap across ranks — but the length of one
connected wait-for chain through the run's events.

From a run recorded with ``run_spmd(..., record_events=True)`` the
tracer keeps, besides the per-rank :class:`~repro.obs.tracer.Event`
intervals, a :class:`~repro.obs.tracer.MsgRecord` per message carrying
its post time and arrival.  Every clock movement is evented, so each
rank's events tile ``[0, clock]`` exactly; every blocking receive carries
the ``seq`` of the message that released it.  That makes the wait-for DAG
exact, and the binding chain recoverable by walking *backward* from the
makespan:

* a ``compute`` (or bare ``wait``) interval ending at the cursor keeps
  the chain on the same rank;
* a ``send`` interval (blocking send, or an ``isend`` settled at
  ``wait``) binds the chain to the rank's own outgoing transfer — the
  chain follows the flight back to its post time on the same rank;
* a ``recv`` interval means the rank idled until a message arrived — the
  chain crosses to the *sender* at the message's post time, and the
  flight itself becomes a chain segment.

The resulting :class:`CriticalPath` is a connected sequence of segments
whose endpoints coincide to the float (each hop lands exactly on an
event boundary, because post times are clock snapshots), so its total
duration telescopes to the makespan.  On top of it:
:func:`rank_decomposition` (per-rank compute/comm/wait/idle summing to
the makespan), :func:`phase_blame` (critical vs elapsed seconds per
phase — the executed analogue of the paper's Fig. 5 bars),
:func:`stragglers` (ranks holding an outsized share of the chain), and
:func:`critpath_report` bundling everything into a schema-validated
document for the ``repro critpath`` CLI and the perf baselines.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SpmdResult
    from .tracer import Event

#: Relative tolerance when anchoring a chain cursor on an event boundary.
_REL_TOL = 1e-9

#: Chain-segment kinds (Event kinds, with "recv" meaning the flight).
SEG_COMPUTE = "compute"
SEG_SEND = "send"
SEG_RECV = "recv"
SEG_WAIT = "wait"


@dataclass(frozen=True)
class PathSegment:
    """One interval of the binding chain.

    ``rank`` is the rank whose activity bounds the interval; for a
    ``recv`` segment that is the *sender* of the releasing message (the
    chain continues there) and ``peer`` is the blocked receiver.  For a
    ``send`` segment the interval is the rank's own outgoing flight and
    ``peer`` is the destination.  ``phase`` is the phase blamed for the
    interval — the blocked side's phase for transfers.
    """

    kind: str
    rank: int
    t0: float
    t1: float
    phase: str
    peer: int = -1
    nbytes: int = 0
    seq: int = -1
    injected: bool = False  #: interval caused/extended by fault injection

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "rank": self.rank,
            "t0_s": self.t0,
            "t1_s": self.t1,
            "dur_s": self.duration,
            "phase": self.phase,
            "peer": self.peer,
            "nbytes": self.nbytes,
            "seq": self.seq,
            "injected": self.injected,
        }


@dataclass
class CriticalPath:
    """The binding chain of one executed run, in chronological order."""

    segments: list[PathSegment]
    makespan: float
    final_rank: int  #: the rank whose clock realizes the makespan
    complete: bool  #: True when the backward walk reached t = 0

    @property
    def total(self) -> float:
        """Chain length in seconds (== makespan when ``complete``)."""
        return sum(s.duration for s in self.segments)

    @property
    def injected_s(self) -> float:
        """Chain seconds on segments tagged ``injected`` (fault layer)."""
        return sum(s.duration for s in self.segments if s.injected)

    @property
    def ranks(self) -> list[int]:
        """Ranks appearing on the chain, in order of first appearance."""
        seen: list[int] = []
        for s in self.segments:
            if s.rank not in seen:
                seen.append(s.rank)
        return seen

    def rank_residency(self) -> dict[int, float]:
        """Seconds each rank spends on the chain (flights charge the sender)."""
        out: dict[int, float] = {}
        for s in self.segments:
            out[s.rank] = out.get(s.rank, 0.0) + s.duration
        return out

    def connected(self, rel_tol: float = _REL_TOL) -> bool:
        """True when consecutive segment endpoints coincide to the float."""
        for a, b in zip(self.segments, self.segments[1:]):
            scale = max(1.0, abs(a.t1))
            if abs(a.t1 - b.t0) > rel_tol * scale:
                return False
        return True


@dataclass(frozen=True)
class WaitEdge:
    """One wait-for DAG edge: a message that released a blocked interval.

    ``released`` is ``"recv"`` when the receiver idled for the message
    and ``"send"`` when the sender itself settled its own nonblocking
    flight at ``wait`` time (a self-edge in rank space).
    """

    seq: int
    src: int
    dst: int
    t_post: float
    arrival: float
    nbytes: int
    released: str
    blocked_from: float  #: when the released rank started idling

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "src": self.src,
            "dst": self.dst,
            "t_post_s": self.t_post,
            "arrival_s": self.arrival,
            "nbytes": self.nbytes,
            "released": self.released,
            "blocked_from_s": self.blocked_from,
        }


@dataclass
class RankBreakdown:
    """Per-rank decomposition of the makespan into activity classes.

    ``compute + comm + wait + tail_idle == makespan`` to float precision:
    events tile ``[0, finish]`` and ``tail_idle`` covers the remainder
    (the rank finished and idled until the slowest rank's clock).
    """

    rank: int
    compute_s: float
    comm_s: float  #: occupied by the rank's own outgoing transfers
    wait_s: float  #: idle, blocked on arrivals (recv) or bare waits
    tail_idle_s: float
    finish_s: float

    @property
    def total(self) -> float:
        return self.compute_s + self.comm_s + self.wait_s + self.tail_idle_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "wait_s": self.wait_s,
            "tail_idle_s": self.tail_idle_s,
            "finish_s": self.finish_s,
        }


@dataclass
class PhaseBlame:
    """Critical vs elapsed seconds of one phase.

    ``critical_s`` is the phase's presence on the binding chain — the
    seconds the makespan would shrink if the phase's chain segments
    vanished; ``elapsed_s`` is the wall interval the phase spanned
    across all ranks.  Critical times sum to the makespan; elapsed
    times generally overlap and sum to more.
    """

    phase: str
    critical_s: float
    elapsed_s: float
    critical_share: float  #: critical_s / makespan

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "critical_s": self.critical_s,
            "elapsed_s": self.elapsed_s,
            "critical_share": self.critical_share,
        }


@dataclass(frozen=True)
class Straggler:
    """A rank holding an outsized share of the binding chain."""

    rank: int
    residency_s: float
    share: float  #: residency / makespan
    finish_s: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "residency_s": self.residency_s,
            "share": self.share,
            "finish_s": self.finish_s,
        }


# ----------------------------------------------------------------- walk -- #
class _RankTimeline:
    """One rank's events, indexed for exact end-time lookup."""

    def __init__(self, events: list["Event"]):
        self.events = sorted(events, key=lambda e: e.t0)
        self._ends = [e.t1 for e in self.events]

    def ending_at(self, t: float) -> "Event | None":
        """The event whose t1 equals ``t`` (exact, with a float fallback)."""
        i = bisect_left(self._ends, t)
        for j in (i, i - 1, i + 1):
            if 0 <= j < len(self._ends):
                if self._ends[j] == t or abs(self._ends[j] - t) <= _REL_TOL * max(
                    1.0, abs(t)
                ):
                    return self.events[j]
        return None


def critical_path(result: "SpmdResult") -> CriticalPath:
    """Reconstruct the binding chain of an executed run.

    Requires ``record_events=True``; without events the returned path is
    empty (and marked complete only for a zero makespan).
    """
    tracer, nprocs = result.tracer, result.transport.nprocs
    makespan = result.time
    clocks = [t.time for t in result.traces]
    final_rank = min(
        (r for r in range(nprocs) if clocks[r] == makespan),
        default=0,
    )
    if not tracer.events or makespan <= 0.0:
        return CriticalPath(
            segments=[],
            makespan=makespan,
            final_rank=final_rank,
            complete=makespan <= 0.0,
        )

    by_rank: dict[int, list[Event]] = {r: [] for r in range(nprocs)}
    for e in tracer.events:
        by_rank[e.rank].append(e)
    timelines = {r: _RankTimeline(evs) for r, evs in by_rank.items()}

    segments: list[PathSegment] = []
    rank, t = final_rank, makespan
    complete = False
    max_steps = len(tracer.events) + len(tracer.msglog) + 4
    for _ in range(max_steps):
        if t <= 0.0:
            complete = True
            break
        e = timelines[rank].ending_at(t)
        if e is None:
            break  # untracked clock movement; report a partial chain
        msg = tracer.msg_record(e.seq) if e.seq >= 0 else None
        if e.kind == "recv" and msg is not None:
            # The rank idled until this message arrived: the chain is the
            # flight, continuing on the sender at its post time.
            segments.append(
                PathSegment(
                    kind=SEG_RECV,
                    rank=msg.src,
                    t0=msg.t_post,
                    t1=t,
                    phase=e.phase,
                    peer=e.rank,
                    nbytes=e.nbytes,
                    seq=e.seq,
                    injected=e.injected or msg.injected,
                )
            )
            rank, t = msg.src, msg.t_post
        elif e.kind == "send" and msg is not None:
            # Bound by the rank's own outgoing transfer; for an isend the
            # flight started before the wait, overlapping later events.
            segments.append(
                PathSegment(
                    kind=SEG_SEND,
                    rank=e.rank,
                    t0=msg.t_post,
                    t1=t,
                    phase=e.phase,
                    peer=e.peer,
                    nbytes=e.nbytes,
                    seq=e.seq,
                    injected=e.injected or msg.injected,
                )
            )
            t = msg.t_post
        else:
            segments.append(
                PathSegment(
                    kind=e.kind,
                    rank=e.rank,
                    t0=e.t0,
                    t1=t,
                    phase=e.phase,
                    peer=e.peer,
                    nbytes=e.nbytes,
                    seq=e.seq,
                    injected=e.injected,
                )
            )
            t = e.t0
    else:  # pragma: no cover - defensive: cycle in a corrupt event log
        complete = False
    segments.reverse()
    return CriticalPath(
        segments=segments,
        makespan=makespan,
        final_rank=final_rank,
        complete=complete,
    )


# ----------------------------------------------------------- wait-for DAG -- #
def waitfor_edges(result: "SpmdResult") -> list[WaitEdge]:
    """Every blocking dependency of the run, in arrival order.

    One edge per ``recv``/``send`` event that raised a clock — i.e. per
    message some rank actually idled for.  Messages that arrived before
    their receiver asked for them never block and contribute no edge.
    """
    tracer = result.tracer
    edges: list[WaitEdge] = []
    for e in tracer.events:
        if e.kind not in (SEG_RECV, SEG_SEND) or e.seq < 0:
            continue
        msg = tracer.msg_record(e.seq)
        if msg is None:
            continue
        edges.append(
            WaitEdge(
                seq=e.seq,
                src=msg.src,
                dst=msg.dst,
                t_post=msg.t_post,
                arrival=msg.arrival,
                nbytes=msg.nbytes,
                released=e.kind,
                blocked_from=e.t0,
            )
        )
    edges.sort(key=lambda w: (w.arrival, w.seq))
    return edges


# ----------------------------------------------------------- decomposition -- #
def rank_decomposition(result: "SpmdResult") -> dict[int, RankBreakdown]:
    """Per-rank makespan decomposition: compute / comm / wait / tail idle."""
    makespan = result.time
    sums: dict[int, dict[str, float]] = {
        r: {SEG_COMPUTE: 0.0, SEG_SEND: 0.0, SEG_WAIT: 0.0}
        for r in range(result.transport.nprocs)
    }
    for e in result.tracer.events:
        bucket = sums[e.rank]
        if e.kind == SEG_COMPUTE:
            bucket[SEG_COMPUTE] += e.duration
        elif e.kind == SEG_SEND:
            bucket[SEG_SEND] += e.duration
        else:  # recv + bare waits: the rank was idle, blocked
            bucket[SEG_WAIT] += e.duration
    out: dict[int, RankBreakdown] = {}
    for r, trace in enumerate(result.traces):
        b = sums[r]
        out[r] = RankBreakdown(
            rank=r,
            compute_s=b[SEG_COMPUTE],
            comm_s=b[SEG_SEND],
            wait_s=b[SEG_WAIT],
            tail_idle_s=makespan - trace.time,
            finish_s=trace.time,
        )
    return out


def phase_blame(
    result: "SpmdResult", path: CriticalPath | None = None
) -> dict[str, PhaseBlame]:
    """Critical vs elapsed seconds per phase (Fig. 5, executed and exact)."""
    if path is None:
        path = critical_path(result)
    critical: dict[str, float] = {}
    for s in path.segments:
        critical[s.phase] = critical.get(s.phase, 0.0) + s.duration
    extents: dict[str, tuple[float, float]] = {}
    for e in result.tracer.events:
        lo, hi = extents.get(e.phase, (float("inf"), 0.0))
        extents[e.phase] = (min(lo, e.t0), max(hi, e.t1))
    denom = max(path.makespan, 1e-300)
    out: dict[str, PhaseBlame] = {}
    for phase in sorted(set(critical) | set(extents)):
        crit = critical.get(phase, 0.0)
        lo, hi = extents.get(phase, (0.0, 0.0))
        out[phase] = PhaseBlame(
            phase=phase,
            critical_s=crit,
            elapsed_s=max(0.0, hi - lo),
            critical_share=crit / denom,
        )
    return out


def stragglers(
    result: "SpmdResult",
    path: CriticalPath | None = None,
    threshold: float | None = None,
) -> list[Straggler]:
    """Ranks holding an outsized share of the binding chain.

    A rank is a straggler when its chain residency exceeds
    ``threshold`` as a fraction of the makespan; the default threshold
    is twice the fair share ``1/P`` (capped at 1), so a perfectly
    balanced schedule reports none.  Sorted by descending residency.
    """
    if path is None:
        path = critical_path(result)
    nprocs = result.transport.nprocs
    if threshold is None:
        threshold = min(1.0, 2.0 / max(1, nprocs))
    denom = max(path.makespan, 1e-300)
    finish = {t.rank: t.time for t in result.traces}
    out = [
        Straggler(
            rank=r,
            residency_s=res,
            share=res / denom,
            finish_s=finish.get(r, 0.0),
        )
        for r, res in path.rank_residency().items()
        if res / denom >= threshold
    ]
    out.sort(key=lambda s: (-s.residency_s, s.rank))
    return out


# ------------------------------------------------------------------ report -- #
CRITPATH_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro critpath --json document",
    "type": "object",
    "required": [
        "schema_version",
        "makespan_s",
        "nprocs",
        "critical_rank",
        "complete",
        "path",
        "phase_blame",
        "rank_decomposition",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "makespan_s": {"type": "number", "minimum": 0},
        "nprocs": {"type": "integer", "minimum": 1},
        "critical_rank": {"type": "integer", "minimum": 0},
        "complete": {"type": "boolean"},
        "path_total_s": {"type": "number", "minimum": 0},
        "path": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "rank", "t0_s", "t1_s", "dur_s", "phase"],
                "properties": {
                    "kind": {"enum": ["compute", "send", "recv", "wait"]},
                    "rank": {"type": "integer", "minimum": 0},
                    "t0_s": {"type": "number", "minimum": 0},
                    "t1_s": {"type": "number", "minimum": 0},
                    "dur_s": {"type": "number", "minimum": 0},
                    "phase": {"type": "string"},
                    "peer": {"type": "integer"},
                    "nbytes": {"type": "integer", "minimum": 0},
                    "seq": {"type": "integer"},
                    "injected": {"type": "boolean"},
                },
            },
        },
        "injected_critical_s": {"type": "number", "minimum": 0},
        "phase_blame": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["critical_s", "elapsed_s", "critical_share"],
            },
        },
        "rank_decomposition": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["compute_s", "comm_s", "wait_s", "tail_idle_s"],
            },
        },
        "rank_residency": {"type": "object"},
        "stragglers": {"type": "array"},
        "phase_overlap": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "phase_covered_s": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
    },
}


def validate_critpath_json(doc: Any) -> None:
    """Raise ``TraceSchemaError`` unless ``doc`` matches the schema."""
    from .export import _validate

    _validate(doc, CRITPATH_JSON_SCHEMA)


@dataclass
class CritPathReport:
    """Everything the analyzer knows about one run, JSON- and text-ready."""

    path: CriticalPath
    blame: dict[str, PhaseBlame]
    ranks: dict[int, RankBreakdown]
    stragglers: list[Straggler] = field(default_factory=list)
    nprocs: int = 0
    #: measured overlap efficiency per phase (volume-weighted over live
    #: ranks, :func:`repro.obs.metrics.overlap_by_phase`) — how much of
    #: each phase's traffic hid behind compute, beside the blame table.
    phase_overlap: dict[str, float] = field(default_factory=dict)
    #: comm seconds the async engine covered per phase (summed over live
    #: ranks) — the *covered* half of the exposed-vs-covered taxonomy;
    #: what remains in the blame table's recv/wait segments is exposed.
    phase_covered_s: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "schema_version": 1,
            "makespan_s": self.path.makespan,
            "nprocs": self.nprocs,
            "critical_rank": self.path.final_rank,
            "complete": self.path.complete,
            "path_total_s": self.path.total,
            "injected_critical_s": self.path.injected_s,
            "path": [s.to_dict() for s in self.path.segments],
            "phase_blame": {p: b.to_dict() for p, b in self.blame.items()},
            "rank_decomposition": {
                str(r): b.to_dict() for r, b in self.ranks.items()
            },
            "rank_residency": {
                str(r): v for r, v in sorted(self.path.rank_residency().items())
            },
            "stragglers": [s.to_dict() for s in self.stragglers],
            "phase_overlap": dict(self.phase_overlap),
        }
        # Schema-optional: only present when the engine hid anything, so
        # overlap="none" documents stay byte-identical to the old format.
        if self.phase_covered_s:
            doc["phase_covered_s"] = dict(sorted(self.phase_covered_s.items()))
        validate_critpath_json(doc)
        return doc

    def format(self, max_segments: int = 12) -> str:
        p = self.path
        ms = p.makespan * 1e3
        lines = [
            f"Critical path: {len(p.segments)} segment(s), "
            f"{p.total * 1e3:.6f} ms of {ms:.6f} ms makespan "
            f"({'complete' if p.complete else 'PARTIAL'}), "
            f"ends on rank {p.final_rank}",
            f"  chain visits {len(p.ranks)} of {self.nprocs} rank(s)",
        ]
        if p.injected_s > 0.0:
            lines.append(
                f"  injected faults hold {p.injected_s * 1e3:.6f} ms of the "
                f"chain ({100 * p.injected_s / max(p.makespan, 1e-300):.1f}% "
                f"of makespan; segments marked '!')"
            )
        if self.blame:
            lines.append("  phase blame (critical | elapsed | share | overlap):")
            for b in sorted(
                self.blame.values(), key=lambda b: -b.critical_s
            ):
                ov = self.phase_overlap.get(b.phase)
                cov = self.phase_covered_s.get(b.phase, 0.0)
                lines.append(
                    f"    {b.phase:<10} {b.critical_s * 1e3:9.4f} ms | "
                    f"{b.elapsed_s * 1e3:9.4f} ms | {100 * b.critical_share:5.1f}%"
                    + (f" | {100 * ov:5.1f}%" if ov is not None else "")
                    + (f" | hidden {cov * 1e3:.4f} ms" if cov > 0 else "")
                )
        lines.append("  per-rank decomposition (compute/comm/wait/idle ms):")
        for r in sorted(self.ranks):
            b = self.ranks[r]
            lines.append(
                f"    rank {r:>3}  {b.compute_s * 1e3:8.4f} "
                f"{b.comm_s * 1e3:8.4f} {b.wait_s * 1e3:8.4f} "
                f"{b.tail_idle_s * 1e3:8.4f}"
            )
        if self.stragglers:
            lines.append("  stragglers (chain residency):")
            for s in self.stragglers:
                lines.append(
                    f"    rank {s.rank:>3}  {s.residency_s * 1e3:8.4f} ms "
                    f"({100 * s.share:.1f}% of makespan)"
                )
        if p.segments:
            tail = p.segments[-max_segments:]
            lines.append(
                f"  binding chain (last {len(tail)} of {len(p.segments)}):"
            )
            for s in tail:
                arrow = (
                    f"{s.rank}->{s.peer}" if s.kind == SEG_RECV else f"{s.rank}"
                )
                lines.append(
                    f"    [{s.t0 * 1e3:10.6f}, {s.t1 * 1e3:10.6f}] ms "
                    f"{s.kind:<7} r{arrow:<7} {s.phase}"
                    f"{'  !injected' if s.injected else ''}"
                )
        return "\n".join(lines)


def critpath_report(result: "SpmdResult") -> CritPathReport:
    """Run the full analysis on one executed run."""
    from .metrics import overlap_by_phase, run_totals

    path = critical_path(result)
    return CritPathReport(
        path=path,
        blame=phase_blame(result, path),
        ranks=rank_decomposition(result),
        stragglers=stragglers(result, path),
        nprocs=result.transport.nprocs,
        phase_overlap=overlap_by_phase(result),
        phase_covered_s=run_totals(result.live_traces).covered_by_phase,
    )
