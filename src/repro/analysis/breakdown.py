"""Runtime breakdowns (Fig. 5 of the paper) from both engines.

The paper's Fig. 5 buckets CA3DMM/COSMA runtime into "local computation",
"replicate A, B" (which for CA3DMM includes the Cannon shift traffic),
and "reduce C", normalized so COSMA's total is 1.  This module produces
that bucketing from

* an executed :class:`~repro.mpi.runtime.SpmdResult` — phase-tagged
  traffic measured by the transport, and
* an analytic :class:`~repro.analysis.costs.CostReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .costs import CostReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SpmdResult

#: Fig. 5 bucket names in display order.
BUCKETS = ("local computation", "replicate A, B", "reduce C", "other")

#: phase-tag -> bucket mapping for executed runs.  Communication time in
#: the "cannon"/"summa" phases is shift/panel traffic -> "replicate A, B";
#: its compute time is the local GEMM.
_PHASE_BUCKET = {
    "replicate": "replicate A, B",
    "cannon": "replicate A, B",
    "summa": "replicate A, B",
    "reduce": "reduce C",
    "compute": "local computation",
    "redist": "other",
    "other": "other",
}


@dataclass
class Breakdown:
    """Seconds per Fig. 5 bucket (one algorithm, one problem)."""

    algo: str
    local_compute: float = 0.0
    replicate_ab: float = 0.0
    reduce_c: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return self.local_compute + self.replicate_ab + self.reduce_c + self.other

    def normalized(self, denom: float) -> "Breakdown":
        if denom <= 0:
            return self
        return Breakdown(
            self.algo,
            self.local_compute / denom,
            self.replicate_ab / denom,
            self.reduce_c / denom,
            self.other / denom,
        )

    def as_row(self) -> dict[str, float]:
        return {
            "local computation": self.local_compute,
            "replicate A, B": self.replicate_ab,
            "reduce C": self.reduce_c,
            "other": self.other,
        }


def _charge(out: Breakdown, bucket: str, seconds: float) -> None:
    if bucket == "replicate A, B":
        out.replicate_ab += seconds
    elif bucket == "reduce C":
        out.reduce_c += seconds
    elif bucket == "local computation":
        out.local_compute += seconds
    else:
        out.other += seconds


def breakdown_from_traces(result: SpmdResult, algo: str) -> Breakdown:
    """Fig. 5 buckets from an executed run's phase-tagged traces.

    Uses the critical rank (largest simulated clock); within each phase
    the compute share goes to "local computation" and the communication
    share to the phase's bucket.
    """
    crit = max(result.traces, key=lambda t: t.time)
    out = Breakdown(algo)
    for name, stats in crit.phases.items():
        out.local_compute += stats.compute_time
        _charge(out, _PHASE_BUCKET.get(name, "other"), stats.time - stats.compute_time)
    return out


def breakdown_from_report(report: CostReport) -> Breakdown:
    """Fig. 5 buckets from an analytic cost report, through the same
    phase-tag map (CTF's "framework" and a layout conversion are "other")."""
    out = Breakdown(report.algo)
    for name, ph in report.phases.items():
        _charge(out, _PHASE_BUCKET.get(name, "other"), ph.time)
    return out
