"""Chrome-trace / JSONL exporters and the golden trace-schema test."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.bench.harness import executed_workload
from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.obs.export import (
    CHROME_TRACE_SCHEMA,
    TraceSchemaError,
    chrome_trace,
    jsonl_records,
    validate_chrome_trace,
    validate_run_json,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import CAT_PHASE


@pytest.fixture(scope="module")
def golden():
    """The fixed golden run: P=8, m=n=k=64, native layouts."""
    m = n = k = 64
    P = 8
    plan = Ca3dmmPlan(m, n, k, P)

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        ca3dmm_matmul(a, b)

    res = run_spmd(P, f, machine=laptop(), record_events=True)
    return plan, res


class TestGoldenTrace:
    """Acceptance: the fixed run's export is schema-valid and complete."""

    def test_schema_valid_with_jsonschema(self, golden):
        jsonschema = pytest.importorskip("jsonschema")
        _, res = golden
        doc = chrome_trace(res)
        jsonschema.validate(doc, CHROME_TRACE_SCHEMA)

    def test_one_span_per_phase_per_rank(self, golden):
        plan, res = golden
        phase_spans = [s for s in res.spans if s.cat == CAT_PHASE]
        per_rank: dict[int, list[str]] = {}
        for s in phase_spans:
            per_rank.setdefault(s.rank, []).append(s.name)
        assert set(per_rank) == set(range(8))
        for rank, names in per_rank.items():
            # exactly one replicate/cannon/reduce span; two redists (A, B)
            assert names.count("replicate") == 1
            assert names.count("cannon") == 1
            assert names.count("reduce") == 1
            assert names.count("redist") == 2

    def test_events_cover_metadata_spans_and_transport(self, golden):
        _, res = golden
        doc = chrome_trace(res)
        phs = {}
        for ev in doc["traceEvents"]:
            phs.setdefault(ev["ph"], []).append(ev)
        # process_name + one thread_name per rank
        assert len(phs["M"]) == 1 + 8
        cats = {ev["cat"] for ev in phs["X"]}
        assert {"phase", "collective", "transport"} <= cats

    def test_timestamps_rezeroed_and_nonnegative(self, golden):
        _, res = golden
        doc = chrome_trace(res)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert min(ev["ts"] for ev in xs) == 0.0
        assert all(ev["ts"] >= 0 and ev["dur"] >= 0 for ev in xs)
        assert all(0 <= ev["tid"] < 8 for ev in xs)

    def test_span_events_carry_byte_deltas(self, golden):
        _, res = golden
        doc = chrome_trace(res)
        cannon = [
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev["name"] == "cannon"
        ]
        assert len(cannon) == 8
        for ev in cannon:
            assert ev["args"]["bytes_sent"] > 0
            assert not any(k.startswith("_") for k in ev["args"])

    def test_other_data_headline(self, golden):
        _, res = golden
        doc = chrome_trace(res)
        assert doc["otherData"]["nprocs"] == 8
        assert doc["otherData"]["q_words"] > 0
        assert doc["displayTimeUnit"] == "ms"

    def test_written_file_roundtrips(self, golden, tmp_path):
        _, res = golden
        path = tmp_path / "golden.trace.json"
        doc = write_chrome_trace(res, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        validate_chrome_trace(loaded)

    def test_a_counter_sample_per_alloc_or_free_none_per_pulse(self, golden, monkeypatch):
        """One ``"C"`` sample per ``alloc`` or ``free`` record.  Built again
        from the same run with each pulse written the old way — an alloc
        and a free at one clock — the export differs only by those
        pulses' samples: every ``"X"``/``"M"`` event, the epoch and
        ``otherData`` are the same."""
        _, res = golden
        memlog = res.tracer.memlog
        doc = chrome_trace(res)
        samples = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        assert len(samples) == sum(ev.kind != "pulse" for ev in memlog)
        assert len(samples) < len(memlog)

        expanded, from_pulse = [], []
        for ev in memlog:
            if ev.kind == "pulse":
                peak = ev.resident_bytes + ev.nbytes
                expanded += [ev._replace(kind="alloc", resident_bytes=peak),
                             ev._replace(kind="free")]
                from_pulse += [True, True]
            else:
                expanded.append(ev)
                from_pulse.append(False)
        monkeypatch.setattr(res.tracer, "memlog", expanded)
        old = chrome_trace(res)
        old_samples = [ev for ev in old["traceEvents"] if ev["ph"] == "C"]
        assert len(old_samples) == len(expanded)
        assert samples == [ev for ev, pulse in zip(old_samples, from_pulse) if not pulse]
        assert ([ev for ev in doc["traceEvents"] if ev["ph"] != "C"]
                == [ev for ev in old["traceEvents"] if ev["ph"] != "C"])
        assert {**doc, "traceEvents": None} == {**old, "traceEvents": None}

    def test_transport_events_can_be_dropped(self, golden):
        _, res = golden
        full = chrome_trace(res)
        lean = chrome_trace(res, include_transport_events=False)
        assert len(lean["traceEvents"]) < len(full["traceEvents"])
        assert all(
            ev.get("cat") != "transport" for ev in lean["traceEvents"]
        )


class TestValidation:
    def test_missing_trace_events_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_x_event_without_ts_rejected(self):
        doc = {
            "traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "x", "cat": "c"}],
            "displayTimeUnit": "ms",
        }
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(doc)

    def test_fallback_validator_matches_on_basics(self):
        """The three inputs the structural fallback was held to, before
        the compiled checker replaced it and ``jsonschema`` both."""
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x"}], "displayTimeUnit": "ms"}
            )
        validate_chrome_trace({"traceEvents": [], "displayTimeUnit": "ms"})

    def test_run_json_schema_rejects_bad_op(self):
        doc = {
            "schema_version": 1,
            "problem": {"m": 1, "n": 1, "k": 1, "nprocs": 1,
                        "transA": "X", "transB": "N", "device": "cpu"},
            "partition": {"pm": 1, "pn": 1, "pk": 1, "s": 1, "c": 1,
                          "utilization_pct": 100.0},
            "phases": {},
            "correctness": {"validated": True, "errors": 0},
        }
        with pytest.raises(TraceSchemaError):
            validate_run_json(doc)
        doc["problem"]["transA"] = "T"
        validate_run_json(doc)


def _cycle():
    loop: list = []
    loop.append(loop)
    return loop


def _nested(depth: int) -> list:
    """A list ``depth`` lists deep: past the interpreter's recursion limit
    at 3 000, where the encoder and a recursive walk both give up."""
    inner: list = []
    for _ in range(depth):
        inner = [inner]
    return inner


class TestUnwritable:
    """What a span attribute may hold and JSON may not passes the schema
    (``args`` is any object; ``NaN < 0`` is false): a NaN, which Perfetto
    and every strict parser reject, a value of a type the encoder does not
    know, a key that is not a scalar, a list inside itself, a list nested
    past the recursion limit.  Each is refused by its JSON path before the
    file is opened."""

    @pytest.mark.parametrize("value, found", [
        (float("nan"), r"\.residual: nan"),
        (float("-inf"), r"\.residual: -inf"),
        (np.int64(3), r"\.residual: .*3\)? \(of type int64\)"),
        ({1, 2}, r"\.residual: \{1, 2\} \(of type set\)"),
        ([0, {"deep": {0.5, 1.5}}], r"\.residual\[1\]\.deep: .* \(of type set\)"),
        ({(0, 1): 2}, r"\.residual: the key \(0, 1\)"),
        (_cycle(), r"\.residual\[0\]: .* \(a container inside itself\)"),
        (_nested(3000), r"\.residual: nested 3000 levels deep"),
    ], ids=["nan", "-inf", "int64", "set", "nested-set", "tuple-key", "cycle", "too-deep"])
    @pytest.mark.parametrize("write, at", [
        (write_chrome_trace, r"\$\.traceEvents\[\d+\]\.args"),
        (write_jsonl, r"\$\[\d+\]\.attrs"),
    ], ids=["chrome", "jsonl"])
    def test_refused_by_name_and_the_previous_file_kept(self, tmp_path, value, found, write, at):
        def f(comm):
            with comm.span("solve", residual=value):
                comm.barrier()

        run = run_spmd(2, f, machine=laptop(), record_events=True)
        validate_chrome_trace(chrome_trace(run))
        path = tmp_path / "export"
        path.write_text("the previous export")
        with pytest.raises(TraceSchemaError, match=at + found + " cannot be written as JSON"):
            write(run, path)
        assert path.read_text() == "the previous export"

    def test_a_shared_list_is_no_cycle(self, tmp_path):
        shared = [1.5]

        def f(comm):
            with comm.span("solve", a=shared, b=[shared, shared]):
                comm.barrier()

        run = run_spmd(2, f, machine=laptop(), record_events=True)
        assert write_jsonl(run, tmp_path / "run.jsonl") > 0


def calls_per_exported_event(result, path, **kwargs) -> float:
    """Python calls per event of one warm ``write_chrome_trace``: ``call`` +
    ``c_call`` events of ``sys.setprofile``, the count of
    ``tests.mpi.test_message_path``.  A count, not a stopwatch — also what
    the ``des-smoke`` CI job holds flat up to its 1024-rank trace."""
    validate_chrome_trace({"traceEvents": [], "displayTimeUnit": "ms"})  # compiles the schema
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(hook)
    try:
        doc = write_chrome_trace(result, path, **kwargs)
    finally:
        sys.setprofile(None)
    return calls / len(doc["traceEvents"])


def test_export_budget_and_bytes(tmp_path):
    """≤ 20 calls per exported event (14.3 on 3.11 since the checker is
    generated source with every keyword inlined; 45.5 while it was a tree
    of closures, 831 while ``jsonschema`` walked every event and
    ``json.dump`` ran the pure-Python encoder), and the file is byte for
    byte the one ``json.dump`` wrote."""
    _, result = executed_workload("fig3")
    path = tmp_path / "fig3.trace.json"
    per_event = calls_per_exported_event(result, path)
    assert per_event <= 20, per_event
    assert path.read_text() == json.dumps(chrome_trace(result))


class TestJsonl:
    def test_records_structure(self, golden):
        _, res = golden
        recs = list(jsonl_records(res))
        kinds = [r["type"] for r in recs]
        assert kinds[0] == "run"
        assert kinds.count("rank") == 8
        assert kinds.count("span") == len(res.spans)
        run = recs[0]
        assert run["nprocs"] == 8 and run["record_events"] is True
        rank_recs = [r for r in recs if r["type"] == "rank"]
        assert all("cannon" in r["phases"] for r in rank_recs)

    def test_write_jsonl(self, golden, tmp_path):
        _, res = golden
        path = tmp_path / "run.jsonl"
        n = write_jsonl(res, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == n
        for line in lines:
            json.loads(line)
