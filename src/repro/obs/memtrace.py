"""Rank-level memory-footprint report and the eq. (11) audit gate.

The transport's memtrace counters (:meth:`Transport.mem`, charged by
the engines through ``Comm.mem(purpose, nbytes)``) record every tagged
allocation span a rank holds: operand tiles, replication buffers,
Cannon double buffers, ABFT checksum borders, checkpoint staging
copies, write-behind delta snapshots (``ckpt.writebehind`` — resident
from the step that dirtied a matrix until the commit barrier proves the
flushed tiles durable), and in-flight transport payloads
(``transport.inflight``).  This module distils those counters into a
:class:`MemReport` — per-rank resident watermarks, per-purpose and
per-phase peaks, top-offender ranks — and closes the loop against the
paper's analytic model:

* **eq. (11)** (:meth:`GridSpec.memory_words`) predicts the peak matrix
  words an active process holds.  The measured resident watermark must
  not exceed it by more than a tolerance; :func:`check_mem` raises
  :class:`MemAuditError` when it does.
* a ``memory_limit_words`` cap (the Section V knob) is enforced the
  same way — unless the plan's ``mem_limit_infeasible`` flag records
  that the cap excluded every grid, in which case the cap is known to
  be un-honoured and only eq. (11) gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .. import args
from .metrics import run_totals, words

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import Ca3dmmPlan
    from ..mpi.runtime import SpmdResult


class MemAuditError(AssertionError):
    """Measured resident footprint violates eq. (11) or the memory cap."""


MEMPROF_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs.memtrace report",
    "type": "object",
    "required": [
        "schema_version",
        "problem",
        "eq11_words",
        "resident_peak_words",
        "peak_rank",
        "by_purpose_words",
        "ranks",
        "ok",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "problem": {
            "type": "object",
            "required": ["m", "n", "k", "nprocs"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "nprocs": {"type": "integer", "minimum": 1},
            },
        },
        "eq11_words": {"type": "number", "minimum": 0},
        "limit_words": {"type": ["number", "null"]},
        "mem_limit_infeasible": {"type": "boolean"},
        "tol": {"type": "number", "minimum": 0},
        "resident_peak_words": {"type": "number", "minimum": 0},
        "peak_rank": {"type": "integer", "minimum": -1},
        "peak_over_eq11": {"type": ["number", "null"]},
        "by_purpose_words": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "ranks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rank", "resident_peak_words"],
                "properties": {
                    "rank": {"type": "integer", "minimum": 0},
                    "resident_peak_words": {"type": "number", "minimum": 0},
                    "live_words": {"type": "number", "minimum": 0},
                    "by_purpose_words": {"type": "object"},
                    "by_phase_words": {"type": "object"},
                },
            },
        },
        "leaks": {"type": "object"},
        "ok": {"type": "boolean"},
        "violations": {"type": "array", "items": {"type": "string"}},
    },
}


def validate_memprof_json(doc: Any) -> None:
    """Raise :class:`TraceSchemaError` unless ``doc`` matches the schema."""
    from .export import _validate

    _validate(doc, MEMPROF_JSON_SCHEMA)


@dataclass(frozen=True)
class RankMemProfile:
    """One rank's memtrace summary."""

    rank: int
    resident_peak_words: float  #: high-water mark of tagged bytes, in words
    live_words: float  #: still-charged words at run exit (0 = balanced)
    by_purpose_words: dict[str, float] = field(default_factory=dict)
    by_phase_words: dict[str, float] = field(default_factory=dict)


@dataclass
class MemReport:
    """The measured-vs-analytic memory audit of one executed run."""

    m: int
    n: int
    k: int
    nprocs: int
    #: eq. (11) prediction for the plan's grid, words per active process.
    eq11_words: float
    #: the Section V cap the plan was built under, if any.
    limit_words: float | None
    #: the cap excluded every grid; the plan does not honour it.
    mem_limit_infeasible: bool
    #: relative headroom allowed over eq. (11) / the cap.
    tol: float
    #: max measured resident watermark over live ranks, words.
    resident_peak_words: float
    #: the rank holding the watermark (-1 when no memtrace data).
    peak_rank: int
    #: max-over-ranks peak per allocation purpose, words.
    by_purpose_words: dict[str, float] = field(default_factory=dict)
    ranks: list[RankMemProfile] = field(default_factory=list)
    #: ``{rank: {purpose: words}}`` still charged at exit.
    leaks: dict[int, dict[str, float]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def peak_over_eq11(self) -> float | None:
        """Measured / analytic ratio; the gate bounds it by ``1 + tol``."""
        if self.eq11_words <= 0 or self.resident_peak_words <= 0:
            return None
        return self.resident_peak_words / self.eq11_words

    def top_offenders(self, count: int = 3) -> list[RankMemProfile]:
        """The ``count`` ranks with the highest resident watermark."""
        count = args.count("count", count, 0)
        return sorted(
            self.ranks, key=lambda r: (-r.resident_peak_words, r.rank)
        )[:count]

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema_version": 1,
            "problem": {
                "m": self.m, "n": self.n, "k": self.k, "nprocs": self.nprocs,
            },
            "eq11_words": self.eq11_words,
            "limit_words": self.limit_words,
            "mem_limit_infeasible": self.mem_limit_infeasible,
            "tol": self.tol,
            "resident_peak_words": self.resident_peak_words,
            "peak_rank": self.peak_rank,
            "peak_over_eq11": self.peak_over_eq11,
            "by_purpose_words": dict(sorted(self.by_purpose_words.items())),
            "ranks": [
                {
                    "rank": r.rank,
                    "resident_peak_words": r.resident_peak_words,
                    "live_words": r.live_words,
                    "by_purpose_words": dict(sorted(r.by_purpose_words.items())),
                    "by_phase_words": dict(sorted(r.by_phase_words.items())),
                }
                for r in self.ranks
            ],
            "leaks": {
                str(rank): dict(sorted(purposes.items()))
                for rank, purposes in sorted(self.leaks.items())
            },
            "ok": self.ok,
            "violations": list(self.violations),
        }
        validate_memprof_json(doc)
        return doc

    def format(self, top: int = 3) -> str:
        """Human-readable memory profile (the CLI's default output)."""
        ratio = self.peak_over_eq11
        lines = [
            f"memory profile  {self.m}x{self.n}x{self.k}  P={self.nprocs}",
            f"  eq. (11) prediction      : {self.eq11_words:12.0f} words/process",
            f"  measured resident peak   : {self.resident_peak_words:12.0f} words"
            f"  (rank {self.peak_rank})",
            f"  measured / eq. (11)      : "
            + (f"{ratio:12.3f}" if ratio is not None else "         n/a")
            + f"  (gate: <= {1 + self.tol:.2f})",
        ]
        if self.limit_words is not None:
            cap = f"{self.limit_words:12.0f} words"
            if self.mem_limit_infeasible:
                cap += "  [INFEASIBLE: min-memory grid used, cap not honoured]"
            lines.append(f"  memory cap               : {cap}")
        if self.by_purpose_words:
            lines.append("  peak words by purpose (max over ranks):")
            for purpose, words in sorted(
                self.by_purpose_words.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"    {purpose:20s} {words:12.0f}")
        offenders = self.top_offenders(top)
        if offenders:
            lines.append(f"  top {len(offenders)} ranks by resident peak:")
            for r in offenders:
                worst = max(
                    r.by_purpose_words.items(),
                    key=lambda kv: kv[1],
                    default=(None, 0.0),
                )
                detail = f"  ({worst[0]}: {worst[1]:.0f})" if worst[0] else ""
                lines.append(
                    f"    rank {r.rank:4d} : {r.resident_peak_words:12.0f} words{detail}"
                )
        if self.leaks:
            lines.append("  LEAKS (still charged at exit):")
            for rank, purposes in sorted(self.leaks.items()):
                detail = ", ".join(
                    f"{p}={w:.0f}" for p, w in sorted(purposes.items())
                )
                lines.append(f"    rank {rank:4d} : {detail}")
        lines.append(
            "  verdict: " + ("OK" if self.ok else "; ".join(self.violations))
        )
        return "\n".join(lines)


def memprof_run(
    result: "SpmdResult",
    plan: "Ca3dmmPlan",
    tol: float = 0.10,
) -> MemReport:
    """Build the memory audit of an executed run against its plan.

    ``tol`` is the relative headroom allowed over the analytic bound:
    measured resident peak must satisfy ``peak <= eq11 * (1 + tol)``
    (and ``peak <= limit * (1 + tol)`` under a feasible cap).  The
    report is diagnostic; :func:`check_mem` turns it into a hard gate.
    """
    tol = args.amount("tol", tol)
    live = result.live_traces
    totals = run_totals(live)
    eq11 = plan.grid.memory_words(plan.m, plan.n, plan.k)
    limit = getattr(plan, "memory_limit_words", None)
    infeasible = bool(getattr(plan, "mem_limit_infeasible", False))

    ranks: list[RankMemProfile] = []
    leaks: dict[int, dict[str, float]] = {}
    for t in live:
        if not t.resident_peak_bytes and not t.mem_live:
            continue  # rank never charged a span (idle outside redistribute)
        ranks.append(RankMemProfile(
            rank=t.rank,
            resident_peak_words=words(t.resident_peak_bytes),
            live_words=words(t.resident_bytes),
            by_purpose_words={
                p: words(b) for p, b in sorted(t.mem_peaks.items())
            },
            by_phase_words={
                ph: words(b) for ph, b in sorted(t.phase_mem_peaks.items())
            },
        ))
        if t.mem_live:
            leaks[t.rank] = {p: words(b) for p, b in sorted(t.mem_live.items())}

    peak_rank, peak_words = totals.peak_rank, totals.resident_peak_words
    report = MemReport(
        m=plan.m, n=plan.n, k=plan.k, nprocs=plan.nprocs,
        eq11_words=eq11,
        limit_words=limit,
        mem_limit_infeasible=infeasible,
        tol=tol,
        resident_peak_words=peak_words,
        peak_rank=peak_rank,
        by_purpose_words=totals.mem_by_purpose,
        ranks=ranks,
        leaks=leaks,
    )

    if not ranks:
        report.violations.append(
            "no memtrace data: the run recorded no tagged allocation spans "
            "(engine not instrumented, or no rank was active)"
        )
        return report
    if peak_words > eq11 * (1.0 + tol):
        report.violations.append(
            f"resident peak {peak_words:.0f} words on rank {peak_rank} "
            f"exceeds eq. (11) = {eq11:.0f} words by more than "
            f"{100 * tol:.0f}% (ratio {peak_words / eq11:.3f})"
        )
    if limit is not None and not infeasible and peak_words > limit * (1.0 + tol):
        report.violations.append(
            f"resident peak {peak_words:.0f} words exceeds "
            f"memory_limit_words = {limit:.0f} by more than {100 * tol:.0f}%"
        )
    return report


def check_mem(
    result: "SpmdResult",
    plan: "Ca3dmmPlan",
    tol: float = 0.10,
) -> MemReport:
    """Run the memory audit and raise :class:`MemAuditError` on violation.

    The memory gate: measured resident watermark vs the eq. (11)
    prediction and any ``memory_limit_words`` cap, as a runtime
    assertion.  Returns the (passing) report otherwise.
    """
    report = memprof_run(result, plan, tol=tol)
    if not report.ok:
        raise MemAuditError(
            "memory audit failed:\n  - " + "\n  - ".join(report.violations)
            + "\n" + report.format()
        )
    return report
