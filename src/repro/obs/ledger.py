"""Append-only, schema-validated JSONL ledger of executed runs.

Every executed multiplication — CLI subcommands, the bench harness,
recovery/checkpoint demos — can append one :data:`LEDGER_RECORD_SCHEMA`
record to a shared history file (default
``benchmarks/history/ledger.jsonl``).  A record is the run's durable
trace: problem and grid, measured wire traffic, the resident watermark,
overlap efficiency, fault/recovery counters, and the measured
optimality ratios the audit computes.  Accumulated over time the ledger
is the calibration corpus the ROADMAP's cost-model work reads, and CI's
audit-gate compares fresh records against committed baselines.

Determinism contract: records contain **no wall-clock timestamps** —
every quantity is derived from the simulated clocks, which are
deterministic for a given seed.  Two identical runs therefore append
byte-identical lines modulo the ``run_id`` field (a fresh ``uuid4``
per record), which is exactly what the CI gate checks.  Lines are
canonical JSON (sorted keys, compact separators) so byte comparison is
meaningful.

Opt-in: nothing writes the ledger unless asked — pass ``--ledger`` to
a ``repro.cli`` run or set the ``REPRO_LEDGER`` environment
variable to a path (the literal value ``1`` selects the default path).
This keeps test runs from dirtying the working tree.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from ..analysis.verify import eq9_lower_bound, pebbling_lower_bound
from .metrics import overlap_by_phase, run_totals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import Ca3dmmPlan
    from ..mpi.runtime import SpmdResult

#: Default ledger location, relative to the repo / invocation root.
DEFAULT_LEDGER_PATH = "benchmarks/history/ledger.jsonl"

#: Environment variable enabling ledger writes (value = path, or "1").
LEDGER_ENV = "REPRO_LEDGER"


class LedgerError(ValueError):
    """A ledger record or file violates the schema."""


LEDGER_RECORD_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs.ledger record",
    "type": "object",
    "required": [
        "schema_version",
        "run_id",
        "kind",
        "problem",
        "grid",
        "makespan_s",
        "traffic",
        "memory",
        "overlap",
        "optimality",
        "faults",
    ],
    "properties": {
        "schema_version": {"const": 3},
        "run_id": {"type": "string", "pattern": "^[0-9a-f]{32}$"},
        "kind": {"type": "string", "minLength": 1},
        "problem": {
            "type": "object",
            "required": ["m", "n", "k", "nprocs"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "nprocs": {"type": "integer", "minimum": 1},
                "nruns": {"type": "integer", "minimum": 1},
            },
        },
        "grid": {
            "type": "object",
            "required": ["pm", "pn", "pk", "s", "c", "active"],
            "properties": {
                "pm": {"type": "integer", "minimum": 1},
                "pn": {"type": "integer", "minimum": 1},
                "pk": {"type": "integer", "minimum": 1},
                "s": {"type": "integer", "minimum": 1},
                "c": {"type": "integer", "minimum": 1},
                "active": {"type": "integer", "minimum": 1},
            },
        },
        "makespan_s": {"type": "number", "minimum": 0},
        "traffic": {
            "type": "object",
            "required": ["q_words", "total_words", "max_msgs"],
            "properties": {
                "q_words": {"type": "number", "minimum": 0},
                "total_words": {"type": "number", "minimum": 0},
                "max_msgs": {"type": "integer", "minimum": 0},
                "by_phase": {"type": "object"},
            },
        },
        "memory": {
            "type": "object",
            "required": ["resident_peak_words"],
            "properties": {
                # measured memtrace resident watermark (max over ranks)
                "resident_peak_words": {"type": "number", "minimum": 0},
                # per-purpose peaks, max over ranks, words
                "by_purpose_words": {
                    "type": "object",
                    "additionalProperties": {"type": "number", "minimum": 0},
                },
            },
        },
        "overlap": {
            "type": "object",
            "properties": {
                "by_phase": {"type": "object"},
                # seconds of comm the async engine hid, per phase
                "covered_by_phase": {
                    "type": "object",
                    "additionalProperties": {"type": "number", "minimum": 0},
                },
            },
        },
        "optimality": {
            "type": "object",
            "required": ["q_over_eq9"],
            "properties": {
                "eq9_words": {"type": "number", "minimum": 0},
                "pebbling_words": {"type": "number", "minimum": 0},
                "q_over_eq9": {"type": ["number", "null"]},
                "q_over_pebbling": {"type": ["number", "null"]},
            },
        },
        "faults": {
            "type": "object",
            "properties": {
                "retries": {"type": "integer", "minimum": 0},
                "timeouts": {"type": "integer", "minimum": 0},
                "recoveries": {"type": "integer", "minimum": 0},
                "failed_ranks": {"type": "array", "items": {"type": "integer"}},
                "corruptions_injected": {"type": "integer", "minimum": 0},
                "corruptions_detected": {"type": "integer", "minimum": 0},
                "corruptions_injected_by_phase": {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 0},
                },
                "corruptions_detected_by_phase": {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 0},
                },
                "recomputed_flops": {"type": "number", "minimum": 0},
                "reused_flops": {"type": "number", "minimum": 0},
            },
        },
        "audit_ok": {"type": ["boolean", "null"]},
        "extra": {"type": "object"},
    },
}


def validate_ledger_record(doc: Any) -> None:
    """Raise :class:`LedgerError` unless ``doc`` is a valid record."""
    from .export import TraceSchemaError, _validate

    try:
        _validate(doc, LEDGER_RECORD_SCHEMA)
    except TraceSchemaError as exc:
        raise LedgerError(str(exc)) from exc


def canonical_json(record: dict[str, Any]) -> str:
    """One canonical line: sorted keys, compact separators, no NaN."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def ledger_path_from_env() -> Path | None:
    """The ledger path selected by :data:`LEDGER_ENV`, or None."""
    raw = os.environ.get(LEDGER_ENV, "").strip()
    if not raw:
        return None
    return Path(DEFAULT_LEDGER_PATH) if raw == "1" else Path(raw)


# ------------------------------------------------------------ record build -- #
def ledger_record(
    result: "SpmdResult",
    plan: "Ca3dmmPlan",
    kind: str,
    nruns: int = 1,
    run_id: str | None = None,
    audit_ok: bool | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Distil one executed run into a validated ledger record.

    ``kind`` names the producer (``cli.example``, ``bench.fig3``, ...);
    ``audit_ok`` carries the audit verdict when one ran; ``extra`` is a
    free-form producer-specific object (kept small — the ledger is a
    history, not an archive).  All measured quantities are per multiply
    (divided by ``nruns``) and derived from simulated clocks only, so
    the record is deterministic modulo ``run_id``.
    """
    totals = run_totals(result.live_traces, nruns)
    q_words = totals.q_words
    eq9 = eq9_lower_bound(plan.m, plan.n, plan.k, plan.nprocs)
    pebb = pebbling_lower_bound(
        plan.m, plan.n, plan.k, plan.nprocs, totals.resident_peak_words
    )
    metrics = result.metrics
    record: dict[str, Any] = {
        "schema_version": 3,
        "run_id": run_id if run_id is not None else uuid.uuid4().hex,
        "kind": kind,
        "problem": {
            "m": plan.m,
            "n": plan.n,
            "k": plan.k,
            "nprocs": plan.nprocs,
            "nruns": nruns,
        },
        "grid": {
            "pm": plan.pm,
            "pn": plan.pn,
            "pk": plan.pk,
            "s": plan.s,
            "c": plan.c,
            "active": plan.active,
        },
        "makespan_s": result.time,
        "traffic": {
            "q_words": q_words,
            "total_words": totals.total_words,
            "max_msgs": totals.max_msgs,
            "by_phase": {
                ph: {"words": pt.sum_words, "msgs": pt.sum_msgs}
                for ph, pt in sorted(totals.phases.items())
            },
        },
        "memory": {
            "resident_peak_words": totals.resident_peak_words,
            "by_purpose_words": dict(sorted(totals.mem_by_purpose.items())),
        },
        "overlap": {
            "by_phase": dict(sorted(overlap_by_phase(result).items())),
            "covered_by_phase": dict(sorted(totals.covered_by_phase.items())),
        },
        "optimality": {
            "eq9_words": eq9,
            "pebbling_words": pebb,
            "q_over_eq9": q_words / eq9 if eq9 > 0 else None,
            "q_over_pebbling": q_words / pebb if pebb > 0 else None,
        },
        "faults": {
            "retries": metrics.total_retries,
            "timeouts": metrics.total_timeouts,
            "recoveries": metrics.recoveries,
            "failed_ranks": result.failed_ranks,
            "corruptions_injected": metrics.corruptions_injected,
            "corruptions_detected": metrics.corruptions_detected,
            "corruptions_injected_by_phase": dict(
                sorted(metrics.corruptions_injected_by_phase.items())
            ),
            "corruptions_detected_by_phase": dict(
                sorted(metrics.corruptions_detected_by_phase.items())
            ),
            "recomputed_flops": metrics.recomputed_flops,
            "reused_flops": metrics.reused_flops,
        },
        "audit_ok": audit_ok,
    }
    if extra:
        record["extra"] = extra
    validate_ledger_record(record)
    return record


# ----------------------------------------------------------------- ledger -- #
class Ledger:
    """The append-only history file.

    Appends validate before writing (a broken producer can't poison the
    history); reads validate each line and raise :class:`LedgerError`
    with the offending line number, so corruption is caught where it is
    noticed, not three tools downstream.
    """

    def __init__(self, path: str | Path = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Validate and append one record; returns it."""
        validate_ledger_record(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(canonical_json(record) + "\n")
        return record

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def records(self) -> Iterator[dict[str, Any]]:
        """Yield validated records in append order."""
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(
                        f"{self.path}:{lineno}: not JSON: {exc}"
                    ) from exc
                try:
                    validate_ledger_record(doc)
                except LedgerError as exc:
                    raise LedgerError(f"{self.path}:{lineno}: {exc}") from exc
                yield doc

    def query(
        self,
        kind: str | None = None,
        m: int | None = None,
        n: int | None = None,
        k: int | None = None,
        nprocs: int | None = None,
        last: int | None = None,
    ) -> list[dict[str, Any]]:
        """Filter records by producer kind and/or problem shape; ``last``
        keeps the newest ``last`` of them (0 keeps none)."""
        if last is not None and last < 0:
            raise ValueError(f"last must be >= 0, got {last}")
        out = []
        for rec in self.records():
            if kind is not None and rec["kind"] != kind:
                continue
            prob = rec["problem"]
            if m is not None and prob["m"] != m:
                continue
            if n is not None and prob["n"] != n:
                continue
            if k is not None and prob["k"] != k:
                continue
            if nprocs is not None and prob["nprocs"] != nprocs:
                continue
            out.append(rec)
        if last is not None:
            out = out[-last:] if last else []
        return out
