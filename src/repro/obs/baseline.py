"""Perf-regression baselines for executed runs.

The simulated clock is deterministic: a fixed workload on a fixed
machine model produces the same makespan, the same binding chain, and
the same traffic counters on every run, on every host.  That makes
executed schedules *diffable*: snapshot the numbers once, commit them
under ``benchmarks/baselines/``, and any later change that regresses a
schedule — a collective losing its overlap, a layout change inflating
the reduce, a transport fix stretching the critical path — shows up as
a numeric delta instead of going unnoticed.

A baseline document records, per workload: the makespan, the per-phase
*critical* seconds (presence on the binding chain, from
:mod:`repro.obs.critpath` — the quantity that actually prices the
schedule, unlike overlappable per-phase elapsed times), per-phase
elapsed seconds for context, and the traffic counters the paper's Q/L
metrics read.  :func:`compare_baseline` diffs two documents under the
tolerances below and classifies every metric as ok / improved /
regressed; ``repro perfdiff`` turns that into an exit code, and the CI
perf-gate job runs it against the committed baselines on every push.

Refreshing after an intentional change::

    python -m repro.bench all --baseline-dir benchmarks/baselines
    # or: python -m repro.cli perfdiff --update

then commit the rewritten JSON files alongside the change.

:func:`write_gate` / :func:`check_gate` are the one-sided gate behind
``repro audit --gate`` and ``repro memprof --gate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .critpath import critpath_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SpmdResult

BASELINE_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "executed perf baseline",
    "type": "object",
    "required": [
        "schema_version",
        "name",
        "workload",
        "makespan_s",
        "phase_critical_s",
        "traffic",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "name": {"type": "string"},
        "workload": {
            "type": "object",
            "required": ["m", "n", "k", "nprocs"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "nprocs": {"type": "integer", "minimum": 1},
            },
        },
        "machine": {"type": "string"},
        "makespan_s": {"type": "number", "minimum": 0},
        "phase_critical_s": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "phase_elapsed_s": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "traffic": {
            "type": "object",
            "required": ["max_bytes_sent", "total_bytes", "max_msgs_sent"],
            "properties": {
                "max_bytes_sent": {"type": "integer", "minimum": 0},
                "total_bytes": {"type": "integer", "minimum": 0},
                "max_msgs_sent": {"type": "integer", "minimum": 0},
            },
        },
        "critical_rank": {"type": "integer", "minimum": 0},
        "path_segments": {"type": "integer", "minimum": 0},
        "faults": {
            "type": "object",
            "properties": {
                "total_retries": {"type": "integer", "minimum": 0},
                "total_timeouts": {"type": "integer", "minimum": 0},
                "injected_wait_s": {"type": "number", "minimum": 0},
                "injected_critical_s": {"type": "number", "minimum": 0},
            },
        },
    },
}


def validate_baseline_json(doc: Any) -> None:
    """Raise ``TraceSchemaError`` unless ``doc`` is a valid baseline."""
    from .export import _validate

    _validate(doc, BASELINE_JSON_SCHEMA)


#: Allowed drift before a metric counts as a regression.  Executed runs
#: are deterministic, so these are tight: they absorb float noise, not
#: real schedule changes.  ``PHASE_ABS_S`` is an absolute floor under which
#: per-phase critical-time changes never fail (protects near-empty
#: phases where one latency α is a huge relative change); message
#: counts must match exactly.
TIME_REL = 0.03
PHASE_REL = 0.10
PHASE_ABS_S = 1e-7
BYTES_REL = 0.02


@dataclass(frozen=True)
class PerfDelta:
    """One compared metric: baseline vs current."""

    metric: str
    baseline: float
    current: float
    rel_change: float | None  #: (current - baseline) / |baseline|; None = new
    regressed: bool
    improved: bool

    @property
    def verdict(self) -> str:
        if self.regressed:
            return "REGRESSED"
        return "improved" if self.improved else "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "rel_change": self.rel_change,
            "verdict": self.verdict,
        }


@dataclass
class PerfDiff:
    """The comparison of one workload's run against its baseline."""

    name: str
    deltas: list[PerfDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.regressed for d in self.deltas)

    @property
    def regressions(self) -> list[PerfDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[PerfDelta]:
        return [d for d in self.deltas if d.improved]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def format(self, verbose: bool = False) -> str:
        head = f"{self.name}: " + ("OK" if self.ok else "REGRESSION")
        if self.improvements:
            head += f" ({len(self.improvements)} improved)"
        lines = [head]
        for d in self.deltas:
            if not verbose and not d.regressed and not d.improved:
                continue
            change = "new" if d.rel_change is None else f"{100 * d.rel_change:+.2f}%"
            lines.append(
                f"  {d.metric:<28} {d.baseline:.6e} -> {d.current:.6e} "
                f"({change:>8})  {d.verdict}"
            )
        return "\n".join(lines)


# ------------------------------------------------------------- capture -- #
def capture_baseline(
    result: "SpmdResult",
    name: str,
    workload: dict[str, int] | None = None,
    machine_label: str = "",
) -> dict[str, Any]:
    """Snapshot one executed run into a baseline document."""
    report = critpath_report(result)
    doc: dict[str, Any] = {
        "schema_version": 1,
        "name": name,
        "workload": dict(workload or {}),
        "machine": machine_label,
        "makespan_s": result.time,
        "phase_critical_s": {
            p: b.critical_s for p, b in sorted(report.blame.items())
        },
        "phase_elapsed_s": {
            p: b.elapsed_s for p, b in sorted(report.blame.items())
        },
        "traffic": {
            "max_bytes_sent": int(result.max_bytes_sent),
            "total_bytes": int(result.total_bytes),
            "max_msgs_sent": int(result.max_msgs_sent),
        },
        "critical_rank": report.path.final_rank,
        "path_segments": len(report.path.segments),
    }
    m = result.metrics
    if m.total_retries or m.total_timeouts or m.injected_wait_s or report.path.injected_s:
        # Only faulted runs carry the block, so organic baselines stay
        # byte-identical to pre-fault-layer captures.
        doc["faults"] = {
            "total_retries": m.total_retries,
            "total_timeouts": m.total_timeouts,
            "injected_wait_s": m.injected_wait_s,
            "injected_critical_s": report.path.injected_s,
        }
    validate_baseline_json(doc)
    return doc


# ------------------------------------------------------------- compare -- #
def _delta(
    metric: str,
    base: float,
    cur: float,
    rel_tol: float,
    abs_tol: float = 0.0,
    fail_on_decrease: bool = False,
) -> PerfDelta:
    diff = cur - base
    # no ratio to a zero baseline: the metric is new (or still zero)
    rel = diff / abs(base) if base else (None if diff else 0.0)
    over = diff > max(rel_tol * abs(base), abs_tol)
    under = -diff > max(rel_tol * abs(base), abs_tol)
    return PerfDelta(
        metric=metric,
        baseline=base,
        current=cur,
        rel_change=rel,
        regressed=over or (fail_on_decrease and under),
        improved=under and not fail_on_decrease,
    )


def compare_baseline(baseline: dict[str, Any], current: dict[str, Any]) -> PerfDiff:
    """Diff two baseline documents (``baseline`` committed, ``current`` fresh).

    Compared metrics: makespan, per-phase critical seconds (union of
    phases; a phase absent on one side counts as zero), max/total bytes
    sent, and max messages sent.  Message-count changes regress in
    *either* direction — a schedule that silently gained or lost rounds
    changed, whether or not it got faster — while time/byte improvements
    beyond tolerance are reported as such without failing.
    """
    deltas: list[PerfDelta] = [
        _delta(
            "makespan_s",
            float(baseline["makespan_s"]),
            float(current["makespan_s"]),
            TIME_REL,
        )
    ]
    base_ph = baseline.get("phase_critical_s", {})
    cur_ph = current.get("phase_critical_s", {})
    for phase in sorted(set(base_ph) | set(cur_ph)):
        deltas.append(
            _delta(
                f"phase_critical_s[{phase}]",
                float(base_ph.get(phase, 0.0)),
                float(cur_ph.get(phase, 0.0)),
                PHASE_REL,
                abs_tol=PHASE_ABS_S,
            )
        )
    base_tr = baseline.get("traffic", {})
    cur_tr = current.get("traffic", {})
    for key in ("max_bytes_sent", "total_bytes"):
        deltas.append(
            _delta(
                f"traffic[{key}]",
                float(base_tr.get(key, 0)),
                float(cur_tr.get(key, 0)),
                BYTES_REL,
            )
        )
    deltas.append(
        _delta(
            "traffic[max_msgs_sent]",
            float(base_tr.get("max_msgs_sent", 0)),
            float(cur_tr.get("max_msgs_sent", 0)),
            0.0,
            fail_on_decrease=True,
        )
    )
    return PerfDiff(name=str(current.get("name") or baseline.get("name") or ""), deltas=deltas)


# --------------------------------------------------------------- store -- #
class BaselineStore:
    """One ``*.json`` baseline per workload name under a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def names(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def load(self, name: str) -> dict[str, Any] | None:
        path = self.path(name)
        if not path.is_file():
            return None
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_baseline_json(doc)
        return doc

    def save(self, name: str, doc: dict[str, Any]) -> Path:
        validate_baseline_json(doc)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def compare(self, name: str, current: dict[str, Any]) -> PerfDiff | None:
        """Diff ``current`` against the stored baseline (None if missing).

        Raises :class:`GateError` when the stored document was captured
        for another ``workload`` than ``current``'s.
        """
        base = self.load(name)
        if base is None:
            return None
        if base["workload"] != current["workload"]:
            raise GateError(
                f"baseline {self.path(name)} is for workload {base['workload']}, "
                f"this run is {current['workload']}"
            )
        return compare_baseline(base, current)


# ---------------------------------------------------------------- gate -- #
class GateError(ValueError):
    """A gate file cannot judge this run: unreadable, malformed, or
    written for another workload."""


def write_gate(
    path: str | Path, workload: dict[str, int], values: dict[str, float | None]
) -> None:
    """Write the gate baseline ``{schema_version, workload, **values}``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "workload": workload, **values},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_gate(
    path: str | Path,
    workload: dict[str, int],
    measured: dict[str, float | None],
    tol: float,
    label: str,
) -> dict[str, Any]:
    """Gate ``measured`` against the baseline :func:`write_gate` left at ``path``.

    A key passes when ``measured <= baseline * (1 + tol)``; one the run
    could not measure (``None``) is skipped, and a gate that checked
    nothing fails.  Returns the reports' ``gate`` block, each check
    named under ``label``.  Raises :class:`GateError` unless the file is
    a JSON object whose ``workload`` is this run's and whose gated
    values are numbers.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            base = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"cannot read gate baseline: {exc}") from exc
    if not isinstance(base, dict):
        raise GateError(f"gate baseline {path} is not a JSON object")
    if base.get("workload") != workload:
        raise GateError(
            f"gate baseline {path} is for workload {base.get('workload')}, "
            f"this run is {workload}"
        )
    checks = []
    for key, value in measured.items():
        expected = base.get(key)
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            raise GateError(f"gate baseline {path}: {key!r} is not a number")
        if value is not None:
            checks.append({label: key, "measured": value, "baseline": expected,
                           "ok": value <= expected * (1.0 + tol)})
    return {"baseline": str(path), "tol": tol,
            "ok": bool(checks) and all(c["ok"] for c in checks), "checks": checks}
