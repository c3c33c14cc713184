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
metrics read.

:func:`check_gate` is the one place a measured value meets a committed
one, under a :class:`Rule` per key: ``repro perfdiff`` gates
:func:`perf_metrics` of a fresh run under :data:`PERF_RULES` (the CI
perf-gate job runs it against the committed baselines on every push),
and ``repro audit --gate`` / ``repro memprof --gate`` gate the files
:func:`write_gate` left under one relative tolerance.

Refreshing after an intentional change::

    python -m repro.bench all --baseline-dir benchmarks/baselines
    # or: python -m repro.cli perfdiff --update

then commit the rewritten JSON files alongside the change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

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


class Rule(NamedTuple):
    """How far a gated value may move from its baseline: by ``rel`` of
    the baseline's magnitude or by ``floor``, whichever is larger —
    upward only, or both ways when ``both`` (a count that must not
    change in either direction)."""

    rel: float
    floor: float = 0.0
    both: bool = False

    def verdict(self, baseline: float, measured: float) -> str:
        """``"ok"``, ``"REGRESSION"``, or ``"improved"``: a one-sided
        rule's value that fell by more than it may rise."""
        slack = max(self.rel * abs(baseline), self.floor)
        if measured > baseline + slack:
            return "REGRESSION"
        if measured < baseline - slack:
            return "REGRESSION" if self.both else "improved"
        return "ok"

    def __str__(self) -> str:
        floor = f" or {self.floor:g}" if self.floor else ""
        return f"tol {100 * self.rel:.1f}%{floor}" + (" both ways" if self.both else "")


#: Allowed drift before a perf metric counts as a regression.  Executed
#: runs are deterministic, so these are tight: they absorb float noise,
#: not real schedule changes.  ``PHASE_ABS_S`` is an absolute floor under
#: which per-phase critical-time changes never fail (protects near-empty
#: phases where one latency α is a huge relative change); message counts
#: must match exactly, in both directions — a schedule that silently
#: gained or lost rounds changed, whether or not it got faster.
TIME_REL = 0.03
PHASE_REL = 0.10
PHASE_ABS_S = 1e-7
BYTES_REL = 0.02

#: ``repro perfdiff``'s rule per metric; a rule named for a table
#: (``phase_critical_s``) covers each of its entries.
PERF_RULES: dict[str, Rule] = {
    "makespan_s": Rule(TIME_REL),
    "phase_critical_s": Rule(PHASE_REL, PHASE_ABS_S),
    "traffic[max_bytes_sent]": Rule(BYTES_REL),
    "traffic[total_bytes]": Rule(BYTES_REL),
    "traffic[max_msgs_sent]": Rule(0.0, both=True),
}


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


def perf_metrics(baseline: dict[str, Any], current: dict[str, Any]) -> dict[str, float]:
    """``current``'s compared metrics under their gate names: the
    makespan, ``phase_critical_s[<phase>]`` over the phases of both
    documents (a phase absent from ``current`` is zero), and
    ``traffic[<key>]`` for the bytes and message counters."""
    phases = current["phase_critical_s"]
    return {
        "makespan_s": current["makespan_s"],
        **{f"phase_critical_s[{p}]": phases.get(p, 0.0)
           for p in sorted(set(phases) | set(baseline["phase_critical_s"]))},
        **{f"traffic[{key}]": current["traffic"][key]
           for key in ("max_bytes_sent", "total_bytes", "max_msgs_sent")},
    }


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


def gate_rule(tol: float | Mapping[str, Rule], key: str) -> Rule:
    """The rule ``tol`` sets for ``key``: one relative tolerance that
    every key may rise by, or a table of rules by key, where a rule
    named for a table covers each ``table[entry]``."""
    if not isinstance(tol, Mapping):
        return Rule(tol)
    return tol[key] if key in tol else tol[key.partition("[")[0]]


def relative_change(baseline: float, measured: float) -> str:
    """``measured`` against ``baseline`` as a signed percentage, or
    ``"new"`` when the baseline is zero and the value is not: no ratio
    to zero is printed."""
    if not baseline:
        return "new" if measured else "+0.00%"
    return f"{100 * (measured - baseline) / abs(baseline):+.2f}%"


def check_gate(
    path: str | Path,
    workload: dict[str, int],
    measured: dict[str, float | None],
    tol: float | Mapping[str, Rule],
    label: str,
) -> dict[str, Any]:
    """Gate ``measured`` against the committed baseline at ``path``.

    Each key is judged by its :func:`gate_rule`: ``tol`` is a relative
    tolerance every key may rise by (``audit`` / ``memprof
    --gate-tol``) or a :class:`Rule` table (``perfdiff``'s
    :data:`PERF_RULES`).  A key ``table[entry]`` reads that entry of the
    baseline's table, zero when the table lacks it.  A key the run
    could not measure (``None``) is skipped, and a gate that checked
    nothing fails.  Returns the reports' ``gate`` block, each check
    named under ``label``.  Raises :class:`GateError` unless the file is
    a JSON object whose ``workload`` is this run's and whose gated
    values are all numeric.
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
        table, _, entry = key.partition("[")
        expected = base.get(table, {}).get(entry[:-1], 0.0) if entry else base.get(key)
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            raise GateError(f"gate baseline {path}: {key!r} is not a number")
        if value is not None:
            verdict = gate_rule(tol, key).verdict(expected, value)
            checks.append({label: key, "measured": value, "baseline": expected,
                           "ok": verdict != "REGRESSION"})
    if isinstance(tol, Mapping):  # the rule table, as JSON
        tol = {k: r._asdict() for k, r in tol.items()}
    return {"baseline": str(path), "tol": tol,
            "ok": bool(checks) and all(c["ok"] for c in checks), "checks": checks}
