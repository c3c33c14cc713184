"""Run snapshots and the one pass over rank traces, for executed runs.

:func:`snapshot_run` distils one :class:`~repro.mpi.runtime.SpmdResult`
into a :class:`RunMetrics` snapshot of headline numbers: Q, total words
and messages, memory watermarks, per-phase overlap and hidden comm time,
per-k-task-group imbalance, the fault and ABFT totals, and the Cannon
shift latencies behind :func:`format_metrics`' p50/p95 line.  Per-rank
numbers are not copied into it: they live in the rank traces
(``result.traces[r]``) and the JSONL ``rank`` records.

``SpmdResult.metrics`` calls :func:`snapshot_run` lazily, so every
executed run carries its metrics without extra plumbing at call sites.

:func:`run_totals` is the one pass that turns a list of rank traces into
measured words and messages; every report (metrics, audit,
memtrace, ledger, the exporters) reads it and none counts bytes itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .. import args
from ..analysis.costs import ITEM  # bytes per word, defined once

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import Ca3dmmPlan
    from ..mpi.runtime import SpmdResult
    from ..mpi.transport import RankTrace


# ------------------------------------------------------------- snapshots -- #
@dataclass
class RunMetrics:
    """One executed run distilled into its headline figures."""

    makespan: float
    q_words: float  #: max over ranks of words sent (the paper's Q)
    total_words: float
    max_msgs: int
    k_group_imbalance: float | None  #: None without a plan / single group
    #: volume-weighted overlap efficiency per phase over live ranks
    overlap_by_phase: dict[str, float] = field(default_factory=dict)
    #: simulated seconds of communication the async comm engine hid
    #: under compute, per phase, summed over live ranks (0 with
    #: ``overlap="none"`` — there is no engine to hide anything)
    covered_by_phase: dict[str, float] = field(default_factory=dict)
    #: historical critical-rank-only cannon overlap (slowest live trace)
    cannon_overlap_critical_rank: float | None = None
    total_retries: int = 0  #: fault-injection retransmits across ranks
    total_timeouts: int = 0  #: fault-injection recv timeouts across ranks
    injected_wait_s: float = 0.0  #: simulated seconds added by injected faults
    recoveries: int = 0  #: shrink-replan-redistribute rounds (max over ranks)
    corruptions_injected: int = 0  #: payload flips injected, across ranks
    corruptions_detected: int = 0  #: ABFT checksum violations, across ranks
    #: injected payload flips per algorithm phase, summed across ranks
    corruptions_injected_by_phase: dict[str, int] = field(default_factory=dict)
    #: checksum/CRC detections per algorithm phase, summed across ranks
    corruptions_detected_by_phase: dict[str, int] = field(default_factory=dict)
    recomputed_flops: float = 0.0  #: extra flops spent on ABFT/recovery recomputes
    reused_flops: float = 0.0  #: flops avoided by reusing retained partials/checkpoints
    #: measured resident watermark (max over ranks of tracked resident words)
    resident_peak_words: float = 0.0
    #: max over ranks of each allocation purpose's high-water mark (words)
    mem_by_purpose: dict[str, float] = field(default_factory=dict)
    #: the plan's memory_limit_words filtered out every candidate grid
    mem_limit_infeasible: bool = False
    #: max over ranks of words sent per phase (per-phase Q; text only)
    phase_q_words: dict[str, float] = field(default_factory=dict)
    #: sorted Cannon recv/wait durations of a recorded run (text only)
    cannon_shift_s: tuple[float, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan,
            "q_words": self.q_words,
            "total_words": self.total_words,
            "max_msgs": self.max_msgs,
            "resident_peak_words": self.resident_peak_words,
            "mem_by_purpose": dict(sorted(self.mem_by_purpose.items())),
            "mem_limit_infeasible": self.mem_limit_infeasible,
            "cannon_overlap_critical_rank": self.cannon_overlap_critical_rank,
            "overlap_by_phase": dict(self.overlap_by_phase),
            "covered_by_phase": dict(sorted(self.covered_by_phase.items())),
            "k_group_imbalance": self.k_group_imbalance,
            "total_retries": self.total_retries,
            "total_timeouts": self.total_timeouts,
            "injected_wait_s": self.injected_wait_s,
            "recoveries": self.recoveries,
            "corruptions_injected": self.corruptions_injected,
            "corruptions_detected": self.corruptions_detected,
            "corruptions_injected_by_phase": dict(
                sorted(self.corruptions_injected_by_phase.items())
            ),
            "corruptions_detected_by_phase": dict(
                sorted(self.corruptions_detected_by_phase.items())
            ),
            "recomputed_flops": self.recomputed_flops,
            "reused_flops": self.reused_flops,
        }


def words(nbytes: float) -> float:
    """``nbytes`` as matrix words.  With :func:`run_totals`, the only code
    outside :mod:`repro.analysis.costs` that knows a word is ``ITEM`` bytes."""
    return nbytes / ITEM


@dataclass
class PhaseTotals:
    """One phase's traffic over a set of ranks, per multiply."""

    crit_words: float = 0.0  #: max over ranks of words sent
    crit_msgs: int = 0  #: max over ranks of ``msgs_sent // nruns``
    sum_words: float = 0.0  #: words sent, summed over ranks
    sum_msgs: float = 0.0  #: messages sent, summed over ranks
    #: collective label -> ``{"words", "msgs"}`` summed over ranks
    colls: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class RunTotals:
    """What a list of rank traces measured, in words (see :func:`run_totals`)."""

    q_words: float  #: max over ranks of words sent (the paper's Q)
    total_words: float  #: words sent, summed over ranks
    max_msgs: int  #: max over ranks of messages sent
    #: max memtrace resident watermark: the measured M of eq. (11) and
    #: the pebbling bound
    resident_peak_words: float
    peak_rank: int  #: the rank holding that watermark (-1 without memtrace)
    mem_by_purpose: dict[str, float]  #: max over ranks of each purpose's peak
    phases: dict[str, PhaseTotals]
    #: comm seconds the async engine hid, summed over ranks (phases where > 0)
    covered_by_phase: dict[str, float]


def run_totals(traces: "list[RankTrace]", nruns: int = 1) -> RunTotals:
    """Walk ``traces`` once and total what they measured, per multiply.

    The caller chooses the rank set (``result.traces``, or
    ``result.live_traces`` to leave killed ranks out).  Traffic counters
    accumulate over ``nruns`` multiplies and are divided term by term
    (``Σ(x/n)``, not ``(Σx)/n``); memory peaks are not divided.
    """
    nruns = args.count("nruns", nruns)
    peak_rank, resident_peak = -1, 0
    mem_by_purpose: dict[str, float] = {}
    phases: dict[str, PhaseTotals] = {}
    covered: dict[str, float] = {}
    for t in traces:
        if t.resident_peak_bytes > resident_peak:
            peak_rank, resident_peak = t.rank, t.resident_peak_bytes
        for purpose, peak in t.mem_peaks.items():
            purpose_words = peak / ITEM
            if purpose_words > mem_by_purpose.get(purpose, 0.0):
                mem_by_purpose[purpose] = purpose_words
        for phase, st in t.phases.items():
            pt = phases.setdefault(phase, PhaseTotals())
            pt.crit_words = max(pt.crit_words, st.bytes_sent / ITEM / nruns)
            pt.crit_msgs = max(pt.crit_msgs, st.msgs_sent // nruns)
            pt.sum_words += st.bytes_sent / ITEM / nruns
            pt.sum_msgs += st.msgs_sent / nruns
            if st.comm_covered_time > 0:
                covered[phase] = covered.get(phase, 0.0) + st.comm_covered_time / nruns
        for phase, by_coll in t.colls.items():
            slot = phases.setdefault(phase, PhaseTotals()).colls
            for label, cs in by_coll.items():
                agg = slot.setdefault(label, {"words": 0.0, "msgs": 0.0})
                agg["words"] += cs.bytes_sent / ITEM / nruns
                agg["msgs"] += cs.msgs_sent / nruns
    return RunTotals(
        q_words=max((t.bytes_sent for t in traces), default=0) / ITEM / nruns,
        total_words=sum(t.bytes_sent for t in traces) / ITEM / nruns,
        max_msgs=max((t.msgs_sent for t in traces), default=0) // nruns,
        resident_peak_words=resident_peak / ITEM,
        peak_rank=peak_rank,
        mem_by_purpose=mem_by_purpose,
        phases=phases,
        covered_by_phase=covered,
    )


def overlap_by_phase(result: "SpmdResult") -> dict[str, float]:
    """Volume-weighted overlap efficiency per phase, over live ranks.

    For each rank, ``1 - comm/total`` is the fraction of that phase's
    wall time whose traffic hid behind computation (the transport only
    charges the non-hidden remainder as comm time; transfers the async
    comm engine covered appear in ``PhaseStats.comm_covered_time`` and
    never inflate ``comm_time``, so engine-hidden communication raises
    this ratio automatically).  Ranks are weighted
    by the phase's bytes on the wire (sent + received), so ranks that
    moved no data don't dilute the efficiency of ranks that did; when a
    phase moved no bytes anywhere, time-weighting is the fallback.
    Dead ranks are excluded — their clocks stopped at the kill point.
    """
    acc: dict[str, list[float]] = {}  # phase -> [Σr·vol, Σvol, Σr·t, Σt]
    for trace in result.live_traces:
        for phase, st in trace.phases.items():
            if st.time <= 0:
                continue
            ratio = max(0.0, min(1.0, 1.0 - st.comm_time / st.time))
            weight = float(st.bytes_sent + st.bytes_recv)
            w = acc.setdefault(phase, [0.0, 0.0, 0.0, 0.0])
            w[0] += ratio * weight
            w[1] += weight
            w[2] += ratio * st.time  # time-weighted fallback
            w[3] += st.time
    out: dict[str, float] = {}
    for phase, (rw, w, rt, t) in sorted(acc.items()):
        if w > 0:
            out[phase] = rw / w
        elif t > 0:
            out[phase] = rt / t
    return out


def _critical_rank_overlap(result: "SpmdResult") -> float | None:
    """Overlap efficiency of the Cannon stage on the slowest live trace
    only (the volume-weighted aggregate is ``overlap_by_phase(result)``)."""
    traces = result.live_traces
    if not traces:
        return None
    crit = max(traces, key=lambda t: t.time)
    st = crit.phases.get("cannon")
    if st is None or st.time <= 0:
        return None
    return max(0.0, min(1.0, 1.0 - st.comm_time / st.time))


def _k_group_imbalance(
    result: "SpmdResult", plan: "Ca3dmmPlan | None"
) -> float | None:
    """Relative spread of per-k-task-group busy time: (max-min)/max."""
    if plan is None or plan.pk <= 1:
        return None
    group_time: dict[int, float] = {}
    for trace in result.live_traces:
        at = plan.grid.coords(trace.rank)
        if at is None:
            continue
        ik = at[2]
        group_time[ik] = max(group_time.get(ik, 0.0), trace.time)
    if not group_time:
        return None
    hi, lo = max(group_time.values()), min(group_time.values())
    return 0.0 if hi <= 0 else (hi - lo) / hi


def snapshot_run(
    result: "SpmdResult", plan: "Ca3dmmPlan | None" = None
) -> RunMetrics:
    """Distil an executed run into a :class:`RunMetrics` snapshot.

    ``plan`` (optional) enables plan-aware numbers such as the
    k-task-group imbalance.
    """
    totals = run_totals(result.traces)
    injected_by_phase: dict[str, int] = {}
    detected_by_phase: dict[str, int] = {}
    for trace in result.traces:
        for ph, n in trace.corruptions_injected_by_phase.items():
            injected_by_phase[ph] = injected_by_phase.get(ph, 0) + n
        for ph, n in trace.corruptions_detected_by_phase.items():
            detected_by_phase[ph] = detected_by_phase.get(ph, 0) + n

    return RunMetrics(
        makespan=result.time,
        q_words=totals.q_words,
        total_words=totals.total_words,
        max_msgs=totals.max_msgs,
        cannon_overlap_critical_rank=_critical_rank_overlap(result),
        overlap_by_phase=overlap_by_phase(result),
        # Hidden seconds are summed over survivors only: a killed rank's
        # clock stopped mid-phase.
        covered_by_phase=run_totals(result.live_traces).covered_by_phase,
        k_group_imbalance=_k_group_imbalance(result, plan),
        total_retries=sum(t.retries for t in result.traces),
        total_timeouts=sum(t.timeouts for t in result.traces),
        injected_wait_s=sum(t.injected_wait_s for t in result.traces),
        # Every survivor bumps its counter once per recovery round, so
        # the round count is the max, not the sum.
        recoveries=max((t.recoveries for t in result.traces), default=0),
        corruptions_injected=sum(t.corruptions_injected for t in result.traces),
        corruptions_detected=sum(t.corruptions_detected for t in result.traces),
        corruptions_injected_by_phase=injected_by_phase,
        corruptions_detected_by_phase=detected_by_phase,
        recomputed_flops=sum(t.recomputed_flops for t in result.traces),
        reused_flops=sum(t.reused_flops for t in result.traces),
        resident_peak_words=totals.resident_peak_words,
        mem_by_purpose=totals.mem_by_purpose,
        mem_limit_infeasible=bool(getattr(plan, "mem_limit_infeasible", False)),
        phase_q_words={ph: pt.crit_words for ph, pt in totals.phases.items()},
        cannon_shift_s=tuple(sorted(
            e.duration for e in result.tracer.events
            if e.phase == "cannon" and e.kind in ("recv", "wait") and e.duration > 0
        )),
    )


def _quantile(xs: tuple[float, ...], q: float) -> float:
    """Linear-interpolated quantile of the sorted, non-empty ``xs``."""
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def format_metrics(metrics: RunMetrics) -> str:
    """Human-readable one-screen rendering of a snapshot."""
    lines = [
        "Run metrics",
        f"  makespan            : {metrics.makespan * 1e3:.3f} ms (simulated)",
        f"  Q (max words sent)  : {metrics.q_words:.0f}",
        f"  total words sent    : {metrics.total_words:.0f}",
        f"  max messages / rank : {metrics.max_msgs}",
        f"  resident watermark  : {metrics.resident_peak_words:.0f} words (measured)",
    ]
    if metrics.mem_limit_infeasible:
        lines.append("  memory cap          : INFEASIBLE (min-memory grid used)")
    if metrics.mem_by_purpose:
        lines.append("  peak words by purpose:")
        for purpose, words in sorted(metrics.mem_by_purpose.items()):
            lines.append(f"    {purpose:<18}: {words:.0f}")
    cannon = metrics.overlap_by_phase.get("cannon")
    if cannon is not None:
        crit = metrics.cannon_overlap_critical_rank
        suffix = f" (critical rank {100 * crit:.1f} %)" if crit is not None else ""
        lines.append(f"  cannon overlap      : {100 * cannon:.1f} %" + suffix)
    if metrics.covered_by_phase:
        total_covered = sum(metrics.covered_by_phase.values())
        lines.append(
            f"  comm hidden (engine): {total_covered * 1e3:.3f} ms across ranks"
        )
        for ph, s in sorted(metrics.covered_by_phase.items()):
            lines.append(f"    {ph:<18}: {s * 1e3:.3f} ms covered")
    if metrics.k_group_imbalance is not None:
        lines.append(
            f"  k-group imbalance   : {100 * metrics.k_group_imbalance:.1f} %"
        )
    if metrics.total_retries or metrics.total_timeouts:
        lines.append(
            f"  injected faults     : {metrics.total_retries} retr"
            f"{'y' if metrics.total_retries == 1 else 'ies'}, "
            f"{metrics.total_timeouts} timeout(s), "
            f"{metrics.injected_wait_s * 1e3:.3f} ms injected wait"
        )
    if metrics.recoveries:
        lines.append(f"  recoveries          : {metrics.recoveries}")
    if metrics.reused_flops:
        lines.append(
            f"  partial reuse       : {metrics.reused_flops:.0f} flops reused, "
            f"{metrics.recomputed_flops:.0f} recomputed"
        )
    if metrics.corruptions_injected or metrics.corruptions_detected:
        lines.append(
            f"  corruption (ABFT)   : {metrics.corruptions_injected} injected, "
            f"{metrics.corruptions_detected} detected, "
            f"{metrics.recomputed_flops:.0f} flops recomputed"
        )
        phases = sorted(
            set(metrics.corruptions_injected_by_phase)
            | set(metrics.corruptions_detected_by_phase)
        )
        for ph in phases:
            lines.append(
                f"    {ph:<18}: "
                f"{metrics.corruptions_injected_by_phase.get(ph, 0)} injected, "
                f"{metrics.corruptions_detected_by_phase.get(ph, 0)} detected"
            )
    shift = metrics.cannon_shift_s
    if shift:
        lines.append(
            f"  shift latency       : n={len(shift)} "
            f"p50={_quantile(shift, 0.5) * 1e6:.2f}us p95={_quantile(shift, 0.95) * 1e6:.2f}us"
        )
    lines.append("  per-phase Q (words):")
    for phase, q in sorted(metrics.phase_q_words.items()):
        lines.append(f"    {phase:<10}: {q:.0f}")
    return "\n".join(lines)
