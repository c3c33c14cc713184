"""Observability for the executed engine: spans, metrics, exporters, audits.

The :mod:`repro.obs` subsystem makes the paper's quantitative claims
checkable on every run:

* :mod:`~repro.obs.tracer` — nested spans on the simulated clock,
  recorded by the transport for every CA3DMM phase and collective when
  ``run_spmd(..., record_events=True)``;
* :mod:`~repro.obs.metrics` — a run's headline numbers
  (``SpmdResult.metrics``) and :func:`~repro.obs.metrics.run_totals`,
  the one pass that turns rank traces into measured words;
* :mod:`~repro.obs.export` — Chrome-trace/Perfetto JSON and JSONL
  structured logs, schema-validated;
* :mod:`~repro.obs.audit` — transport-truth communication audit, the
  one check of measured per-phase traffic against eq. (4) (words within
  tolerance, message counts exact), with per-collective-algorithm
  attribution and the measured red-blue pebbling optimality ratio;
* :mod:`~repro.obs.memtrace` — per-rank resident-memory report from the
  transport's tagged allocation spans, gated against the paper's
  eq. (11) footprint prediction and any ``memory_limit_words`` cap;
* :mod:`~repro.obs.ledger` — append-only, schema-validated JSONL run
  history (``benchmarks/history/ledger.jsonl``).

See ``docs/OBSERVABILITY.md`` for the span model and exporter formats.
"""

from .audit import (
    AUDIT_JSON_SCHEMA,
    AuditError,
    AuditReport,
    PhaseAudit,
    audit_run,
    check_audit,
    pebbling_lower_bound,
    validate_audit_json,
)
from .baseline import (
    BASELINE_JSON_SCHEMA,
    BaselineStore,
    PerfDelta,
    PerfDiff,
    capture_baseline,
    compare_baseline,
    validate_baseline_json,
)
from .critpath import (
    CRITPATH_JSON_SCHEMA,
    CriticalPath,
    CritPathReport,
    PathSegment,
    PhaseBlame,
    RankBreakdown,
    Straggler,
    WaitEdge,
    critical_path,
    critpath_report,
    phase_blame,
    rank_decomposition,
    stragglers,
    validate_critpath_json,
    waitfor_edges,
)
from .drift import drift_report
from .export import (
    CHROME_TRACE_SCHEMA,
    RUN_JSON_SCHEMA,
    TraceSchemaError,
    chrome_trace,
    jsonl_records,
    validate_chrome_trace,
    validate_run_json,
    write_chrome_trace,
    write_jsonl,
)
from .ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_RECORD_SCHEMA,
    Ledger,
    LedgerError,
    ledger_record,
    validate_ledger_record,
)
from .memtrace import (
    MEMPROF_JSON_SCHEMA,
    MemAuditError,
    MemReport,
    RankMemProfile,
    check_mem,
    memprof_run,
    validate_memprof_json,
)
from .metrics import (
    RunMetrics,
    format_metrics,
    overlap_by_phase,
    snapshot_run,
)
from .tracer import Span, Tracer

__all__ = [
    "AUDIT_JSON_SCHEMA",
    "AuditError",
    "AuditReport",
    "BASELINE_JSON_SCHEMA",
    "BaselineStore",
    "CHROME_TRACE_SCHEMA",
    "CRITPATH_JSON_SCHEMA",
    "CritPathReport",
    "CriticalPath",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_RECORD_SCHEMA",
    "Ledger",
    "LedgerError",
    "MEMPROF_JSON_SCHEMA",
    "MemAuditError",
    "MemReport",
    "PathSegment",
    "PerfDelta",
    "PerfDiff",
    "PhaseAudit",
    "PhaseBlame",
    "RUN_JSON_SCHEMA",
    "RankBreakdown",
    "RankMemProfile",
    "RunMetrics",
    "Span",
    "Straggler",
    "TraceSchemaError",
    "Tracer",
    "WaitEdge",
    "audit_run",
    "capture_baseline",
    "check_audit",
    "check_mem",
    "chrome_trace",
    "compare_baseline",
    "critical_path",
    "critpath_report",
    "drift_report",
    "format_metrics",
    "jsonl_records",
    "ledger_record",
    "memprof_run",
    "overlap_by_phase",
    "pebbling_lower_bound",
    "phase_blame",
    "rank_decomposition",
    "snapshot_run",
    "stragglers",
    "validate_audit_json",
    "validate_baseline_json",
    "validate_chrome_trace",
    "validate_critpath_json",
    "validate_ledger_record",
    "validate_memprof_json",
    "validate_run_json",
    "waitfor_edges",
    "write_chrome_trace",
    "write_jsonl",
]
