"""Transport-truth communication audit for executed CA3DMM runs.

Where :mod:`repro.obs.drift` asserts that measured per-phase traffic
matches the paper's closed forms, the audit goes further and answers
*"is the run communication-optimal, as measured on the wire?"*:

* every message carries the collective algorithm that posted it
  (``RankTrace.colls``, written by the transport — binomial vs
  scatter+allgather broadcast, Bruck allgather, pairwise
  reduce-scatter, raw Cannon/redistribution ``p2p``), so the audit can
  attribute each phase's bytes to the algorithm that moved them;
* per phase, measured critical-rank words are compared against **two**
  predictions over the one block derivation of
  :mod:`repro.analysis.verify` — the paper's eq. (4)/Section III-D
  schedule (:func:`~repro.analysis.verify.expected_phase_traffic`, by
  the rule of :func:`repro.obs.drift.compare_phases`) and the α-β
  collective accounting (:func:`repro.machine.collcost.ca3dmm_phase_costs`)
  — with the excess attributed per collective algorithm;
* the run's Q (max words sent by any rank) is set against the paper's
  eq. (9) bound ``3(mnk/P)^(2/3)`` *and* the red-blue pebbling I/O
  lower bound ``2mnk/(P·√M)`` of Kwasniewski et al. (the COSMA bound,
  :func:`~repro.analysis.verify.pebbling_lower_bound`), using the
  **measured** footprint per rank as M;
* measured overlap efficiency per phase
  (:func:`repro.obs.metrics.overlap_by_phase`) rides along so the
  report shows not just how much moved but how much of the movement
  hid behind compute.

:func:`audit_run` builds the :class:`AuditReport`;
:meth:`AuditReport.check` is the drift-style gate raising a typed
:class:`AuditError` when measured bytes leave the tolerance band.  The
predictions model the fault-free, unguarded schedule: ABFT-verified
runs move slightly more (checksum borders ride the replicate / Cannon /
reduce traffic, CRC envelopes and detection votes ride the
redistributions), and corrupted runs add resend rounds on top — gate on
clean, unguarded configurations and read guarded runs diagnostically.
Attribution counters are always on (they are plain integers bumped
by the strand that posts or receives), so the audit needs no event
recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis.verify import (
    eq9_lower_bound,
    expected_phase_traffic,
    pebbling_lower_bound,
)
from ..machine.collcost import ca3dmm_phase_costs
from .drift import compare_phases
from .metrics import ITEM, overlap_by_phase, run_totals, words

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import Ca3dmmPlan
    from ..machine.model import MachineModel
    from ..mpi.runtime import SpmdResult


class AuditError(AssertionError):
    """Measured on-the-wire traffic violates the audit tolerance."""


AUDIT_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs.audit report",
    "type": "object",
    "required": [
        "schema_version",
        "ok",
        "problem",
        "q_words",
        "bounds",
        "phases",
        "overlap_by_phase",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "ok": {"type": "boolean"},
        "byte_tol": {"type": "number", "minimum": 0},
        "problem": {
            "type": "object",
            "required": ["m", "n", "k", "nprocs", "grid"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "nprocs": {"type": "integer", "minimum": 1},
                "grid": {"type": "string"},
            },
        },
        "q_words": {"type": "number", "minimum": 0},
        "total_words": {"type": "number", "minimum": 0},
        "peak_live_words": {"type": "number", "minimum": 0},
        "resident_peak_words": {"type": "number", "minimum": 0},
        "bounds": {
            "type": "object",
            "required": ["eq9_words", "pebbling_words", "q_over_eq9"],
            "properties": {
                "eq9_words": {"type": "number", "minimum": 0},
                "pebbling_words": {"type": "number", "minimum": 0},
                "q_over_eq9": {"type": ["number", "null"]},
                "q_over_pebbling": {"type": ["number", "null"]},
            },
        },
        "phases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "phase",
                    "measured_words",
                    "model_words",
                    "collcost_words",
                    "ok",
                ],
                "properties": {
                    "phase": {"type": "string"},
                    "measured_words": {"type": "number", "minimum": 0},
                    "model_words": {"type": "number", "minimum": 0},
                    "collcost_words": {"type": ["number", "null"]},
                    "measured_msgs": {"type": "integer", "minimum": 0},
                    "model_msgs": {"type": "integer", "minimum": 0},
                    "rel_err_model": {"type": "number"},
                    "rel_err_collcost": {"type": ["number", "null"]},
                    "excess_words": {"type": "number"},
                    "overlap": {"type": ["number", "null"]},
                    "covered_s": {"type": "number", "minimum": 0},
                    "colls": {"type": "object"},
                    "ok": {"type": "boolean"},
                },
            },
        },
        "overlap_by_phase": {"type": "object"},
    },
}


# ----------------------------------------------------------------- report -- #
@dataclass
class PhaseAudit:
    """Measured vs predicted on-the-wire traffic for one phase."""

    phase: str
    measured_words: float  #: critical-rank words sent, per multiply
    model_words: float  #: eq. (4)/Section III-D prediction
    collcost_words: float | None  #: α-β accounting (None when unscheduled)
    measured_msgs: int
    model_msgs: int
    rel_err_model: float
    rel_err_collcost: float | None
    excess_words: float  #: measured - model (signed)
    overlap: float | None  #: volume-weighted overlap efficiency
    #: comm seconds the async engine hid under compute (0 when off) —
    #: hidden *time*, never hidden *traffic*: the word columns above are
    #: unaffected, which is exactly what the gate verifies.
    covered_s: float = 0.0
    #: per-collective-algorithm attribution of this phase's traffic,
    #: summed over live ranks: label -> {"words": ..., "msgs": ...}.
    colls: dict[str, dict[str, float]] = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "phase": self.phase,
            "measured_words": self.measured_words,
            "model_words": self.model_words,
            "collcost_words": self.collcost_words,
            "measured_msgs": self.measured_msgs,
            "model_msgs": self.model_msgs,
            "rel_err_model": self.rel_err_model,
            "rel_err_collcost": self.rel_err_collcost,
            "excess_words": self.excess_words,
            "overlap": self.overlap,
            "colls": {c: dict(v) for c, v in sorted(self.colls.items())},
            "ok": self.ok,
        }
        # Schema-optional: absent when the engine hid nothing, so audit
        # documents from overlap="none" runs are byte-identical to the
        # pre-engine format.
        if self.covered_s > 0:
            doc["covered_s"] = self.covered_s
        return doc


@dataclass
class AuditReport:
    """Wire-truth conformance of one executed run."""

    m: int
    n: int
    k: int
    nprocs: int
    grid: str
    phases: list[PhaseAudit]
    q_words: float  #: measured critical-rank words sent (the paper's Q)
    total_words: float  #: words sent across all ranks
    #: transport in-flight / self-reported peak — NOT resident footprint
    peak_live_words: float
    eq9_words: float  #: analytic lower bound 3(mnk/P)^(2/3)
    pebbling_words: float  #: I/O lower bound 2mnk/(P·√M), measured M
    overlap_by_phase: dict[str, float] = field(default_factory=dict)
    byte_tol: float = 0.05
    #: memtrace resident watermark — the M the pebbling bound consumes
    #: (falls back to ``peak_live_words`` when no memtrace data exists)
    resident_peak_words: float = 0.0

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.phases)

    @property
    def q_over_eq9(self) -> float | None:
        return self.q_words / self.eq9_words if self.eq9_words > 0 else None

    @property
    def q_over_pebbling(self) -> float | None:
        return (
            self.q_words / self.pebbling_words if self.pebbling_words > 0 else None
        )

    @property
    def max_rel_err(self) -> float:
        return max((p.rel_err_model for p in self.phases), default=0.0)

    def check(self) -> "AuditReport":
        """Return self, or raise :class:`AuditError` listing violations."""
        if self.ok:
            return self
        bad = [p.to_dict() for p in self.phases if not p.ok]
        raise AuditError(
            "measured traffic violates the audit tolerance "
            f"({100 * self.byte_tol:.1f}%):\n"
            + "\n".join(f"  {b}" for b in bad)
        )

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "schema_version": 1,
            "ok": self.ok,
            "byte_tol": self.byte_tol,
            "problem": {
                "m": self.m,
                "n": self.n,
                "k": self.k,
                "nprocs": self.nprocs,
                "grid": self.grid,
            },
            "q_words": self.q_words,
            "total_words": self.total_words,
            "peak_live_words": self.peak_live_words,
            "resident_peak_words": self.resident_peak_words,
            "bounds": {
                "eq9_words": self.eq9_words,
                "pebbling_words": self.pebbling_words,
                "q_over_eq9": self.q_over_eq9,
                "q_over_pebbling": self.q_over_pebbling,
            },
            "phases": [p.to_dict() for p in self.phases],
            "overlap_by_phase": dict(self.overlap_by_phase),
        }
        validate_audit_json(doc)
        return doc

    def format(self) -> str:
        """Human-readable one-screen rendering."""
        lines = [
            f"Communication audit  {self.m}x{self.n}x{self.k}  "
            f"grid {self.grid}  (byte tol {100 * self.byte_tol:.1f}%): "
            + ("OK" if self.ok else "FAIL"),
            f"  Q (max words sent)       : {self.q_words:.0f}",
            f"  eq. (9) bound            : {self.eq9_words:.0f}"
            + (
                f"  (Q/bound {self.q_over_eq9:.3f})"
                if self.q_over_eq9 is not None
                else ""
            ),
            f"  pebbling bound 2mnk/(P√M): {self.pebbling_words:.0f}"
            + (
                f"  (Q/bound {self.q_over_pebbling:.3f}, "
                f"measured M={self.resident_peak_words:.0f} words "
                "resident watermark)"
                if self.q_over_pebbling is not None
                else ""
            ),
            f"  transport in-flight peak : {self.peak_live_words:.0f} words "
            "(not footprint)",
        ]
        for p in self.phases:
            cc = (
                f"{p.collcost_words:>12.0f}"
                if p.collcost_words is not None
                else " " * 11 + "-"
            )
            ov = f"{100 * p.overlap:5.1f}%" if p.overlap is not None else "    - "
            hid = f"  hidden {p.covered_s:.3e}s" if p.covered_s > 0 else ""
            lines.append(
                f"  {p.phase:<10} measured {p.measured_words:>12.0f} "
                f"model {p.model_words:>12.0f} collcost {cc} "
                f"({100 * p.rel_err_model:6.2f}%)  overlap {ov}  "
                + ("ok" if p.ok else "EXCESS")
                + hid
            )
            for label, stats in sorted(p.colls.items()):
                lines.append(
                    f"      {label:<26} {stats['words']:>12.0f} words  "
                    f"{stats['msgs']:>6.0f} msgs"
                )
        return "\n".join(lines)


def validate_audit_json(doc: Any) -> None:
    """Raise unless ``doc`` matches :data:`AUDIT_JSON_SCHEMA`."""
    from .export import _validate

    _validate(doc, AUDIT_JSON_SCHEMA)


# ------------------------------------------------------------------ audit -- #
def audit_run(
    result: "SpmdResult",
    plan: "Ca3dmmPlan",
    machine: "MachineModel | None" = None,
    byte_tol: float = 0.05,
    abs_tol_words: float = 64.0,
    nruns: int = 1,
) -> AuditReport:
    """Audit an executed run's wire traffic against the paper's model.

    Parameters mirror :func:`repro.obs.drift.drift_report`: ``byte_tol``
    is the allowed relative error on per-phase critical-rank words (the
    default 5% absorbs pickle framing on object sends; balanced
    divisible grids measure exact), ``abs_tol_words`` the absolute floor
    protecting tiny problems, ``nruns`` the number of multiplies the
    counters accumulated.  When ``machine`` is given, the α-β collective
    accounting of :func:`~repro.machine.collcost.ca3dmm_phase_costs`
    is included as a second prediction column (same blocks, α-β priced).
    """
    collcosts = {}
    if machine is not None:
        collcosts = ca3dmm_phase_costs(plan, machine, item=ITEM)
    totals = run_totals(result.live_traces, nruns)
    overlap = overlap_by_phase(result)
    phases: list[PhaseAudit] = []
    for r in compare_phases(
        totals, expected_phase_traffic(plan), byte_tol, abs_tol_words
    ):
        cc = collcosts.get(r.phase)
        cc_words = words(cc.bytes_sent) if cc is not None else None
        rel_cc = None
        if cc_words is not None and cc_words > 0:
            rel_cc = abs(r.measured_words - cc_words) / cc_words
        pt = totals.phases.get(r.phase)
        phases.append(
            PhaseAudit(
                phase=r.phase,
                measured_words=r.measured_words,
                model_words=r.expected_words,
                collcost_words=cc_words,
                measured_msgs=r.measured_msgs,
                model_msgs=r.expected_msgs,
                rel_err_model=r.words_rel_err,
                rel_err_collcost=rel_cc,
                excess_words=r.measured_words - r.expected_words,
                overlap=overlap.get(r.phase),
                covered_s=totals.covered_by_phase.get(r.phase, 0.0),
                colls=pt.colls if pt else {},
                ok=r.ok,
            )
        )

    # The pebbling M is the measured footprint: the memtrace resident
    # watermark, or the in-flight counter for self-reporting engines.
    mem_words = totals.footprint_words
    return AuditReport(
        m=plan.m,
        n=plan.n,
        k=plan.k,
        nprocs=plan.nprocs,
        grid=str(plan.grid),
        phases=phases,
        q_words=totals.q_words,
        total_words=totals.total_words,
        peak_live_words=totals.peak_live_words,
        eq9_words=eq9_lower_bound(plan.m, plan.n, plan.k, plan.nprocs),
        pebbling_words=pebbling_lower_bound(
            plan.m, plan.n, plan.k, plan.nprocs, mem_words
        ),
        overlap_by_phase=overlap,
        byte_tol=byte_tol,
        resident_peak_words=mem_words,
    )


def check_audit(
    result: "SpmdResult", plan: "Ca3dmmPlan", **kwargs: Any
) -> AuditReport:
    """:func:`audit_run` that raises :class:`AuditError` on violation."""
    return audit_run(result, plan, **kwargs).check()
