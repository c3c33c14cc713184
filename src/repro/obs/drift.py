"""Drift guard: executed per-phase traffic vs the paper's analytic model.

The paper's communication claims are per-phase and exact (Section III-D,
summing to eq. 9's Q on balanced grids).  :func:`drift_report` takes the
prediction from :func:`repro.analysis.verify.expected_phase_traffic` —
the one derivation, from the same :class:`~repro.core.plan.Ca3dmmPlan`
the executed engine runs — and the measurement from
:func:`repro.obs.metrics.run_totals`, and reports per-phase relative
error, failing above a configurable tolerance.  This turns the
eq. 9 / Table-1 checks into an always-on runtime assertion: any future
change that silently alters the communication schedule trips the guard.
:func:`compare_phases` is the one measured-vs-expected rule; the audit
(:mod:`repro.obs.audit`) wraps the same rows.

Volumes are compared tightly (they are scheduled, not timed); timing is
compared only when a ``machine`` is given, against
:func:`~repro.analysis.costs.ca3dmm_cost`, and only enforced when a
``time_tol`` is set — timing predictions carry model error that byte
counts do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis.verify import PhaseExpectation, expected_phase_traffic
from .metrics import RunTotals, run_totals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import Ca3dmmPlan
    from ..machine.model import MachineModel
    from ..mpi.runtime import SpmdResult

#: Executed phases with closed-form traffic predictions.
GUARDED_PHASES = ("replicate", "cannon", "reduce")


class DriftError(AssertionError):
    """Measured traffic drifted from the analytic prediction."""


@dataclass
class PhaseDrift:
    """Measured vs predicted traffic for one phase."""

    phase: str
    measured_words: float
    expected_words: float
    measured_msgs: int
    expected_msgs: int
    words_rel_err: float
    ok: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "measured_words": self.measured_words,
            "expected_words": self.expected_words,
            "measured_msgs": self.measured_msgs,
            "expected_msgs": self.expected_msgs,
            "words_rel_err": self.words_rel_err,
            "ok": self.ok,
        }


@dataclass
class TimeDrift:
    """Measured vs model-predicted seconds for one analytic bucket."""

    bucket: str
    measured_s: float
    predicted_s: float
    ok: bool | None  #: None when timing is report-only

    def to_dict(self) -> dict[str, Any]:
        return {
            "bucket": self.bucket,
            "measured_s": self.measured_s,
            "predicted_s": self.predicted_s,
            "ok": self.ok,
        }


@dataclass
class DriftReport:
    """Per-phase drift of one executed run against its plan."""

    phases: list[PhaseDrift]
    times: list[TimeDrift] = field(default_factory=list)
    byte_tol: float = 0.05

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.phases) and all(
            t.ok for t in self.times if t.ok is not None
        )

    @property
    def max_rel_err(self) -> float:
        return max((p.words_rel_err for p in self.phases), default=0.0)

    def check(self) -> "DriftReport":
        """Return self, or raise :class:`DriftError` listing violations."""
        if self.ok:
            return self
        bad = [p for p in self.phases if not p.ok] + [
            t for t in self.times if t.ok is False
        ]
        raise DriftError(
            "executed traffic drifted from the analytic model:\n"
            + "\n".join(f"  {b.to_dict()}" for b in bad)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "byte_tol": self.byte_tol,
            "max_rel_err": self.max_rel_err,
            "phases": [p.to_dict() for p in self.phases],
            "times": [t.to_dict() for t in self.times],
        }

    def format(self) -> str:
        lines = [
            f"Drift guard (byte tol {100 * self.byte_tol:.1f}%): "
            + ("OK" if self.ok else "FAIL")
        ]
        for p in self.phases:
            lines.append(
                f"  {p.phase:<10} words {p.measured_words:>12.0f} vs "
                f"{p.expected_words:>12.0f} ({100 * p.words_rel_err:6.2f}%)  "
                f"msgs {p.measured_msgs} vs {p.expected_msgs}  "
                + ("ok" if p.ok else "DRIFT")
            )
        for t in self.times:
            verdict = "report-only" if t.ok is None else ("ok" if t.ok else "DRIFT")
            lines.append(
                f"  t[{t.bucket:<9}] {t.measured_s * 1e3:9.3f} ms vs "
                f"{t.predicted_s * 1e3:9.3f} ms  {verdict}"
            )
        return "\n".join(lines)


# ------------------------------------------------------------ comparison -- #
def compare_phases(
    totals: RunTotals,
    expected: dict[str, PhaseExpectation],
    byte_tol: float,
    abs_tol_words: float,
) -> list[PhaseDrift]:
    """The one measured-vs-expected rule: a row per guarded phase whose
    ``ok`` is the words verdict (relative tolerance or absolute floor)."""
    rows = []
    for name in GUARDED_PHASES:
        pt = totals.phases.get(name)
        words, msgs = (pt.crit_words, pt.crit_msgs) if pt else (0.0, 0)
        exp = expected.get(name)
        if exp is None:
            # Phase not scheduled: any traffic at all is drift.
            ok = words == 0 and msgs == 0
            rows.append(PhaseDrift(name, words, 0.0, msgs, 0, 0.0 if ok else math.inf, ok))
            continue
        err = abs(words - exp.words)
        rel = err / exp.words if exp.words > 0 else (0.0 if err == 0 else math.inf)
        ok = rel <= byte_tol or err <= abs_tol_words
        rows.append(PhaseDrift(name, words, exp.words, msgs, exp.msgs, rel, ok))
    return rows


def _time_buckets(
    result: "SpmdResult",
    plan: "Ca3dmmPlan",
    machine: "MachineModel",
    time_tol: float | None,
) -> list[TimeDrift]:
    from ..analysis.costs import ca3dmm_cost

    rep = ca3dmm_cost(plan.m, plan.n, plan.k, plan.nprocs, machine, grid=plan.grid)
    crit = max(result.traces, key=lambda t: t.time)

    def phase_stat(name: str):
        return crit.phases.get(name)

    # Map measured phases onto the analytic buckets: the model books
    # Cannon shift traffic under "replicate" and the local GEMMs under
    # "compute" (Fig. 5's bucketing).
    repl = phase_stat("replicate")
    cann = phase_stat("cannon")
    redu = phase_stat("reduce")
    measured = {
        "replicate": (repl.time if repl else 0.0)
        + (cann.comm_time if cann else 0.0),
        "compute": (cann.compute_time if cann else 0.0)
        + (repl.compute_time if repl else 0.0),
        "reduce": redu.time if redu else 0.0,
    }
    out = []
    for bucket, meas in measured.items():
        pred = rep.phases[bucket].time if bucket in rep.phases else 0.0
        ok: bool | None = None
        if time_tol is not None:
            scale = max(pred, 1e-30)
            ok = abs(meas - pred) / scale <= time_tol
        out.append(TimeDrift(bucket=bucket, measured_s=meas, predicted_s=pred, ok=ok))
    return out


# ---------------------------------------------------------------- report -- #
def drift_report(
    result: "SpmdResult",
    plan: "Ca3dmmPlan",
    byte_tol: float = 0.05,
    abs_tol_words: float = 64.0,
    nruns: int = 1,
    machine: "MachineModel | None" = None,
    time_tol: float | None = None,
) -> DriftReport:
    """Compare an executed run's per-phase traffic against its plan.

    Parameters
    ----------
    byte_tol:
        Maximum allowed relative error on per-phase words sent.  The
        default 5% absorbs ragged-block rounding and the pickle framing
        on the replication allgather; balanced divisible grids measure
        exact (0%).
    abs_tol_words:
        Absolute floor below which byte differences never fail (protects
        tiny problems where framing dominates).  Message counts are
        compared exactly.
    nruns:
        Number of multiplies the trace accumulated (counters are
        divided by this before comparison).
    machine, time_tol:
        When ``machine`` is given, per-bucket timing vs
        :func:`~repro.analysis.costs.ca3dmm_cost` is included; it only
        affects :attr:`DriftReport.ok` when ``time_tol`` is set.
    """
    phases = compare_phases(
        run_totals(result.traces, nruns), expected_phase_traffic(plan),
        byte_tol, abs_tol_words,
    )
    for p in phases:  # message counts are compared exactly
        p.ok = p.ok and p.measured_msgs == p.expected_msgs
    times = (
        _time_buckets(result, plan, machine, time_tol) if machine is not None else []
    )
    return DriftReport(phases=phases, times=times, byte_tol=byte_tol)


def check_drift(result: "SpmdResult", plan: "Ca3dmmPlan", **kwargs: Any) -> DriftReport:
    """:func:`drift_report` that raises :class:`DriftError` on violation."""
    return drift_report(result, plan, **kwargs).check()
