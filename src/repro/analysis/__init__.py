"""Analytic cost engine and executed-vs-theory verification."""

from .breakdown import BUCKETS, Breakdown, breakdown_from_report, breakdown_from_traces
from .costs import (
    ITEM,
    CostReport,
    PhaseCost,
    ca3dmm_cost,
    cosma_cost,
    ctf_cost,
    redist_cost,
)
from .timeline import (
    critical_rank,
    event_totals,
    phase_spans,
    render_timeline,
)
from .verify import (
    PaperMetrics,
    eq9_lower_bound,
    theoretical_metrics,
)

__all__ = [
    "ITEM",
    "PhaseCost",
    "CostReport",
    "ca3dmm_cost",
    "cosma_cost",
    "ctf_cost",
    "redist_cost",
    "Breakdown",
    "BUCKETS",
    "breakdown_from_traces",
    "breakdown_from_report",
    "PaperMetrics",
    "theoretical_metrics",
    "eq9_lower_bound",
    "render_timeline",
    "phase_spans",
    "critical_rank",
    "event_totals",
]
