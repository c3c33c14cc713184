"""Trace and metrics exporters: Chrome-trace/Perfetto JSON and JSONL.

:func:`chrome_trace` turns an executed run (``run_spmd(...,
record_events=True)``) into the Chrome Trace Event Format — the JSON
Array-of-events flavour inside an object, which both ``chrome://tracing``
and Perfetto load directly:

* one ``"X"`` (complete) event per tracer span — CA3DMM phases,
  collectives, user spans — with the span's byte/message deltas in
  ``args``;
* optionally one fine-grained ``"X"`` event per transport event
  (send/recv/wait/compute slices), category ``transport``;
* optionally one ``"C"`` (counter) event per memtrace alloc or free,
  none per pulse — each rank's settled resident footprint as a
  step-function track (a pulse is charged and released at one instant,
  so a sample of it would have no width; the watermark it may set is in
  the rank traces, :mod:`repro.obs.memtrace` and the JSONL rank records);
* ``"M"`` metadata events naming the process and one thread per rank.

Timestamps are microseconds of *simulated* time, re-zeroed to the trace
epoch.  :data:`CHROME_TRACE_SCHEMA` is the JSON Schema every export is
checked against, each event of it, before a byte is written;
:func:`validate_chrome_trace` applies it through :mod:`repro.obs.schema`,
the generated checker all the package's schemas share (numpy is the only
dependency; ``jsonschema`` is the tests' reference for it).  The text is
the C encoder's, complete before the file is opened: what JSON cannot
hold — a NaN, a value of a type it does not know, a cycle — is a
:class:`TraceSchemaError` naming its JSON path, found only on that
error path.  The transport and memory events are built by unpacking the
tracer's records, which are tuples, in field order.

:func:`jsonl_records` / :func:`write_jsonl` produce a line-per-record
structured log (run header, spans, per-rank summaries) for downstream
tooling; :data:`RUN_JSON_SCHEMA` covers the CLI's ``--json`` document.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .metrics import run_totals
from .schema import TraceSchemaError, compile as compile_schema, json_path
from .tracer import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SpmdResult

#: displayTimeUnit for Chrome; ts values are always microseconds.
_DISPLAY_UNIT = "ms"


# ------------------------------------------------------------- schemas -- #
CHROME_TRACE_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Chrome Trace Event Format export",
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ph", "pid", "tid", "name"],
                "properties": {
                    "ph": {"enum": ["X", "M", "i", "C"]},
                    "pid": {"type": "integer", "minimum": 0},
                    "tid": {"type": "integer", "minimum": 0},
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "args": {"type": "object"},
                },
                "allOf": [
                    {
                        "if": {"properties": {"ph": {"const": "X"}}},
                        "then": {"required": ["ts", "dur", "cat"]},
                    },
                    {
                        "if": {"properties": {"ph": {"const": "C"}}},
                        "then": {"required": ["ts", "args"]},
                    },
                ],
            },
        },
        "displayTimeUnit": {"type": "string"},
        "otherData": {"type": "object"},
    },
}

RUN_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.cli --json run document",
    "type": "object",
    "required": ["schema_version", "problem", "partition", "phases", "correctness"],
    "properties": {
        "schema_version": {"const": 1},
        "problem": {
            "type": "object",
            "required": ["m", "n", "k", "nprocs", "transA", "transB", "device"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "nprocs": {"type": "integer", "minimum": 1},
                "transA": {"enum": ["N", "T", "C"]},
                "transB": {"enum": ["N", "T", "C"]},
                "device": {"enum": ["cpu", "gpu"]},
            },
        },
        "partition": {
            "type": "object",
            "required": ["pm", "pn", "pk", "s", "c", "utilization_pct"],
            "properties": {
                "pm": {"type": "integer", "minimum": 1},
                "pn": {"type": "integer", "minimum": 1},
                "pk": {"type": "integer", "minimum": 1},
                "s": {"type": "integer", "minimum": 1},
                "c": {"type": "integer", "minimum": 1},
                "utilization_pct": {"type": "number"},
                "q_over_lower_bound": {"type": "number"},
                "work_cuboid": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "phases": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["avg_ms"],
                "properties": {"avg_ms": {"type": "number", "minimum": 0}},
            },
        },
        "runs": {"type": "array", "items": {"type": "object"}},
        "correctness": {
            "type": "object",
            "required": ["validated", "errors"],
            "properties": {
                "validated": {"type": "boolean"},
                "errors": {"type": "integer", "minimum": 0},
            },
        },
        "peak_bytes": {"type": "integer", "minimum": 0},
        "metrics": {"type": "object"},
        "audit": {"type": "object"},
    },
}


#: id(schema) -> (its compiled check, the schema — held, so the id stays its own).
_COMPILED: dict[int, tuple[Callable[[Any], None], dict[str, Any]]] = {}


def _validate(doc: Any, schema: dict[str, Any]) -> None:
    """Check the whole of ``doc``; ``schema`` is compiled the first time it is seen."""
    if id(schema) not in _COMPILED:
        _COMPILED[id(schema)] = (compile_schema(schema), schema)
    _COMPILED[id(schema)][0](doc)


def validate_chrome_trace(doc: Any) -> None:
    """Raise :class:`TraceSchemaError` unless ``doc`` is a valid export."""
    _validate(doc, CHROME_TRACE_SCHEMA)


def validate_run_json(doc: Any) -> None:
    """Raise :class:`TraceSchemaError` unless ``doc`` matches the CLI schema."""
    _validate(doc, RUN_JSON_SCHEMA)


# ---------------------------------------------------------- chrome trace -- #
def _span_event(span: Span, epoch: float) -> dict[str, Any]:
    t1 = span.t1 if span.t1 is not None else span.t0
    args = dict(span.attrs)
    args["sid"] = span.sid
    if span.parent >= 0:
        args["parent"] = span.parent
    return {
        "ph": "X",
        "pid": 0,
        "tid": span.rank,
        "name": span.name,
        "cat": span.cat,
        "ts": (span.t0 - epoch) * 1e6,
        "dur": max(0.0, (t1 - span.t0) * 1e6),
        "args": args,
    }


def chrome_trace(
    result: "SpmdResult",
    include_transport_events: bool = True,
    label: str = "repro run",
) -> dict[str, Any]:
    """Build a Chrome-trace document from an executed run.

    ``include_transport_events=False`` drops the per-message/per-GEMM
    slices and keeps only the structured spans (phases, collectives) —
    smaller files for large runs.
    """
    tracer, nprocs = result.tracer, result.transport.nprocs
    spans = tracer.spans
    epoch = min(
        tracer.epoch(),
        min((e.t0 for e in tracer.events), default=0.0),
        min((e.t for e in tracer.memlog), default=float("inf"))
        if tracer.memlog else 0.0,
    )
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": label}},
    ]
    for rank in range(nprocs):
        events.append(
            {"ph": "M", "pid": 0, "tid": rank, "name": "thread_name",
             "args": {"name": f"rank {rank}"}}
        )
    events.extend(_span_event(s, epoch) for s in spans)
    if include_transport_events:
        events += [
            {
                "ph": "X",
                "pid": 0,
                "tid": rank,
                "name": kind,
                "cat": "transport",
                "ts": (t0 - epoch) * 1e6,
                "dur": max(0.0, (t1 - t0) * 1e6),
                "args": {"phase": phase, "nbytes": nbytes, "peer": peer},
            }
            for rank, kind, phase, t0, t1, nbytes, peer, _seq, _injected in tracer.events
        ]
        # One "C" sample per memtrace alloc or free: Perfetto draws each
        # rank's resident footprint as a step-function counter track.  A
        # pulse leaves the footprint where it was, so it has no sample.
        # Args stay purely numeric — string args would become series.
        counters = [f"resident_bytes rank {rank}" for rank in range(nprocs)]
        events += [
            {
                "ph": "C",
                "pid": 0,
                "tid": rank,
                "name": counters[rank],
                "cat": "memory",
                "ts": max(0.0, (t - epoch) * 1e6),
                "args": {"resident_bytes": resident},
            }
            for rank, kind, _purpose, _phase, t, _nbytes, resident in tracer.memlog
            if kind != "pulse"
        ]
    return {
        "traceEvents": events,
        "displayTimeUnit": _DISPLAY_UNIT,
        "otherData": {
            "generator": "repro.obs",
            "nprocs": nprocs,
            "makespan_us": result.time * 1e6,
            "q_words": run_totals(result.traces).q_words,
        },
    }


#: The C encoder, built once.  It keeps no markers of the containers it is
#: inside: a cycle recurses until ``RecursionError``, and ``_unwritable``
#: names where it closes.
_STRICT = json.JSONEncoder(allow_nan=False, check_circular=False)


def _strict_json(doc: Any, *at: Any) -> str:
    """``json.dumps(doc)``, refusing what no strict parser reads back;
    ``at`` locates ``doc`` when it is one part of what is written."""
    try:
        return _STRICT.encode(doc)
    except (TypeError, ValueError, RecursionError) as exc:
        found, deepest = _unwritable(doc, at)
        if found is None and isinstance(exc, RecursionError):  # too deep: name its field
            named = [i for i, key in enumerate(deepest, 1) if isinstance(key, str)]
            field = deepest[:named[-1]] if named else at
            found = f"{json_path(field)}: nested {len(deepest) - len(field)} levels deep"
        found = found or f"{json_path(at)}: {exc}"
        raise TraceSchemaError(f"{found} cannot be written as JSON") from exc


def _finite_scalar(node: Any) -> bool:
    return (node is None or isinstance(node, (str, int))
            or isinstance(node, float) and math.isfinite(node))


def _unwritable(doc: Any, at: tuple[Any, ...]) -> tuple[str | None, tuple[Any, ...]]:
    """``$.path: value`` of the first part of ``doc`` JSON cannot hold — a
    NaN or infinity, an object of a type it does not know, a key that is
    not a scalar, or a container inside itself — and the deepest path
    walked.  The walk keeps its own stack, so it outlasts any nesting;
    ``above`` holds the ids of the containers on the way down, so a cycle
    ends it."""
    above: set[int] = set()
    walk: list[tuple[Any, tuple[Any, ...], Iterator[Any]]] = [(None, at, iter([(None, doc)]))]
    deepest = at
    while walk:
        container, where, children = walk[-1]
        step = next(children, None)
        if step is None:
            above.discard(id(container))
            walk.pop()
            continue
        key, node = step
        path = where if container is None else (*where, key)
        if isinstance(container, dict) and not _finite_scalar(key):
            return f"{json_path(where)}: the key {reprlib.repr(key)}", deepest
        if _finite_scalar(node):
            continue
        if isinstance(node, float):
            return f"{json_path(path)}: {node!r}", deepest
        if not isinstance(node, (dict, list, tuple)):
            what = f"(of type {type(node).__name__})"
            return f"{json_path(path)}: {reprlib.repr(node)} {what}", deepest
        if id(node) in above:
            return f"{json_path(path)}: {reprlib.repr(node)} (a container inside itself)", deepest
        above.add(id(node))
        walk.append((node, path, iter(node.items() if isinstance(node, dict) else enumerate(node))))
        deepest = max(deepest, path, key=len)
    return None, deepest


def write_chrome_trace(
    result: "SpmdResult", path: str | os.PathLike[str], **kwargs: Any
) -> dict[str, Any]:
    """Export, schema-validate, and write a Chrome trace; returns the doc.

    The text is complete before ``path`` is opened, so an export that
    fails leaves an existing file as it was.
    """
    doc = chrome_trace(result, **kwargs)
    validate_chrome_trace(doc)
    text = _strict_json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return doc


# ---------------------------------------------------------------- jsonl -- #
def jsonl_records(result: "SpmdResult") -> Iterator[dict[str, Any]]:
    """Structured-log records for one run: header, spans, rank summaries."""
    transport, tracer = result.transport, result.tracer
    yield {
        "type": "run",
        "nprocs": transport.nprocs,
        "makespan_s": result.time,
        "record_events": transport.tracer is not None,
    }
    epoch = tracer.epoch()
    for span in tracer.spans:
        yield {
            "type": "span",
            "sid": span.sid,
            "parent": span.parent,
            "rank": span.rank,
            "name": span.name,
            "cat": span.cat,
            "t0_s": span.t0 - epoch,
            "t1_s": (span.t1 if span.t1 is not None else span.t0) - epoch,
            "attrs": dict(span.attrs),
        }
    for trace in result.traces:
        yield {
            "type": "rank",
            "rank": trace.rank,
            "clock_s": trace.time,
            "bytes_sent": trace.bytes_sent,
            "bytes_recv": trace.bytes_recv,
            "msgs_sent": trace.msgs_sent,
            "msgs_recv": trace.msgs_recv,
            "resident_peak_bytes": trace.resident_peak_bytes,
            "resident_bytes": trace.resident_bytes,  # nonzero = leak
            "mem_peaks": dict(sorted(trace.mem_peaks.items())),
            "phase_mem_peaks": dict(sorted(trace.phase_mem_peaks.items())),
            "phases": {
                name: {
                    "time_s": st.time,
                    "comm_time_s": st.comm_time,
                    "compute_time_s": st.compute_time,
                    "bytes_sent": st.bytes_sent,
                    "bytes_recv": st.bytes_recv,
                    "msgs_sent": st.msgs_sent,
                    "msgs_recv": st.msgs_recv,
                }
                for name, st in sorted(trace.phases.items())
            },
            "colls": {
                phase: {
                    label: {
                        "bytes_sent": cs.bytes_sent,
                        "bytes_recv": cs.bytes_recv,
                        "msgs_sent": cs.msgs_sent,
                        "msgs_recv": cs.msgs_recv,
                    }
                    for label, cs in sorted(by_coll.items())
                }
                for phase, by_coll in sorted(trace.colls.items())
            },
        }


def write_jsonl(result: "SpmdResult", path: str | os.PathLike[str]) -> int:
    """Write the structured log; returns the number of records.  Like
    :func:`write_chrome_trace`, it opens ``path`` only once every line exists."""
    lines = [_strict_json(rec, n) + "\n" for n, rec in enumerate(jsonl_records(result))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)
