"""Perf baselines: capture, store round-trips, tolerance classification."""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import (
    baseline_artifact,
    executed_workload,
    workload_baseline,
)
from repro.machine.model import laptop, pace_phoenix_cpu
from repro.obs.baseline import (
    BaselineStore,
    GateError,
    capture_baseline,
    check_gate,
    compare_baseline,
    validate_baseline_json,
    write_gate,
)
from repro.obs.export import TraceSchemaError

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

def _captured():
    _plan, result = executed_workload("fig2", machine=laptop())
    return capture_baseline(
        result, "fig2", workload={"m": 32, "n": 64, "k": 16, "nprocs": 8},
        machine_label="laptop",
    )


class TestCapture:
    def test_document_is_schema_valid(self):
        doc = _captured()
        validate_baseline_json(doc)
        assert doc["name"] == "fig2"
        assert doc["makespan_s"] > 0
        assert doc["traffic"]["total_bytes"] > 0
        assert doc["path_segments"] > 0

    def test_phase_critical_sums_to_makespan(self):
        doc = _captured()
        total = sum(doc["phase_critical_s"].values())
        assert total == pytest.approx(doc["makespan_s"], rel=1e-12)

    def test_capture_is_deterministic(self):
        assert _captured() == _captured()


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        store = BaselineStore(tmp_path)
        doc = _captured()
        path = store.save("fig2", doc)
        assert path == tmp_path / "fig2.json"
        assert store.names() == ["fig2"]
        assert store.load("fig2") == doc

    def test_missing_baseline_is_none(self, tmp_path):
        store = BaselineStore(tmp_path)
        assert store.load("nope") is None
        assert store.compare("nope", _captured()) is None
        assert store.names() == []

    def test_save_rejects_invalid_documents(self, tmp_path):
        with pytest.raises(TraceSchemaError):
            BaselineStore(tmp_path).save("bad", {"schema_version": 1})

    def test_load_rejects_corrupt_files(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"nope": 1}))
        with pytest.raises(TraceSchemaError):
            BaselineStore(tmp_path).load("bad")

    def test_compare_refuses_a_baseline_for_another_workload(self, tmp_path):
        store = BaselineStore(tmp_path)
        other = _captured()
        other["workload"] = {"m": 64, "n": 64, "k": 64, "nprocs": 8}
        store.save("fig2", other)
        with pytest.raises(GateError, match="workload"):
            store.compare("fig2", _captured())

    def test_compare_against_self_is_ok(self, tmp_path):
        store = BaselineStore(tmp_path)
        doc = _captured()
        store.save("fig2", doc)
        diff = store.compare("fig2", doc)
        assert diff is not None and diff.ok
        assert diff.regressions == [] and diff.improvements == []


class TestClassification:
    def _pair(self):
        base = _captured()
        return base, copy.deepcopy(base)

    def test_slower_makespan_regresses(self):
        base, cur = self._pair()
        cur["makespan_s"] *= 1.10  # 10% > 3% tolerance
        diff = compare_baseline(base, cur)
        assert not diff.ok
        assert [d.metric for d in diff.regressions] == ["makespan_s"]

    def test_faster_makespan_improves_without_failing(self):
        base, cur = self._pair()
        cur["makespan_s"] *= 0.80
        diff = compare_baseline(base, cur)
        assert diff.ok
        assert any(d.metric == "makespan_s" for d in diff.improvements)
        assert diff.deltas[0].verdict == "improved"

    def test_within_tolerance_is_ok(self):
        base, cur = self._pair()
        cur["makespan_s"] *= 1.01  # under the 3% default
        assert compare_baseline(base, cur).ok

    def test_phase_regression_is_named(self):
        base, cur = self._pair()
        phase = max(cur["phase_critical_s"], key=cur["phase_critical_s"].get)
        cur["phase_critical_s"][phase] *= 2.0
        diff = compare_baseline(base, cur)
        metrics = [d.metric for d in diff.regressions]
        assert f"phase_critical_s[{phase}]" in metrics

    def test_tiny_phase_shifts_under_abs_floor_pass(self):
        base, cur = self._pair()
        base["phase_critical_s"]["ghost"] = 1e-9
        cur["phase_critical_s"]["ghost"] = 3e-9  # 3x, but << phase_abs_s
        assert compare_baseline(base, cur).ok

    def test_msg_count_regresses_in_both_directions(self):
        for factor in (2, 0):
            base, cur = self._pair()
            cur["traffic"]["max_msgs_sent"] = (
                base["traffic"]["max_msgs_sent"] * factor + 1
            )
            diff = compare_baseline(base, cur)
            assert any(
                d.metric == "traffic[max_msgs_sent]" for d in diff.regressions
            )

    def test_traffic_bytes_regress(self):
        base, cur = self._pair()
        cur["traffic"]["total_bytes"] = int(base["traffic"]["total_bytes"] * 1.5)
        assert not compare_baseline(base, cur).ok

    def test_format_reports_verdicts(self):
        base, cur = self._pair()
        cur["makespan_s"] *= 2.0
        diff = compare_baseline(base, cur)
        text = diff.format()
        assert "REGRESSION" in text and "makespan_s" in text
        assert "REGRESSED" in text
        verbose = diff.format(verbose=True)
        assert "traffic[total_bytes]" in verbose

    def test_to_dict_round_trips_through_json(self):
        base, cur = self._pair()
        cur["makespan_s"] *= 2.0
        doc = json.loads(json.dumps(compare_baseline(base, cur).to_dict()))
        assert doc["ok"] is False
        assert any(d["verdict"] == "REGRESSED" for d in doc["deltas"])

    def test_phase_absent_from_the_baseline_is_new_not_a_percentage(self):
        """fig3's committed baseline (no replicate phase: 2x2x2) against a
        fig2 run (1x4x2 replicates A): the verdict stays, the ratio to
        zero is not printed as 300 digits."""
        base = BaselineStore(BASELINES).load("fig3")
        cur = workload_baseline("fig2")
        assert "replicate" not in base["phase_critical_s"]
        diff = compare_baseline(base, cur)
        (delta,) = [d for d in diff.deltas
                    if d.metric == "phase_critical_s[replicate]"]
        assert delta.baseline == 0.0 and delta.current > 0.0
        assert delta.regressed and delta.rel_change is None
        assert delta.to_dict()["rel_change"] is None
        line = next(ln for ln in diff.format().splitlines() if "replicate" in ln)
        assert "(     new)  REGRESSED" in line and len(line) < 100
        # zero on both sides is no change, as before
        same = compare_baseline(base, base)
        assert all(d.rel_change == 0.0 for d in same.deltas)


class TestBenchArtifact:
    def test_baseline_artifact_writes_valid_json(self, tmp_path):
        path = baseline_artifact("fig2", tmp_path, machine=laptop())
        assert path == tmp_path / "fig2.json"
        doc = json.loads(path.read_text())
        validate_baseline_json(doc)
        assert doc["workload"] == {"m": 32, "n": 64, "k": 16, "nprocs": 8}

    def test_doubled_link_costs_fail_the_gate(self):
        """The perf gate's self-test: fig2 re-executed on a machine whose
        α and β are doubled must regress against its own baseline."""
        machine = pace_phoenix_cpu("mpi")
        slow = replace(
            machine,
            alpha=2 * machine.alpha, nic_beta=2 * machine.nic_beta,
            alpha_intra=2 * machine.alpha_intra, beta_intra=2 * machine.beta_intra,
        )
        base, cur = workload_baseline("fig2"), workload_baseline("fig2", machine=slow)
        diff = compare_baseline(base, cur)
        assert not diff.ok
        (makespan,) = [d for d in diff.deltas if d.metric == "makespan_s"]
        assert makespan.regressed and makespan.current > makespan.baseline
        assert "REGRESSED" in diff.format()


class TestGate:
    W = {"m": 8, "n": 8, "k": 8, "nprocs": 2}

    def test_one_sided_within_tolerance(self, tmp_path):
        path = tmp_path / "gate.json"
        write_gate(path, self.W, {"ratio": 2.0, "context": None})
        assert json.loads(path.read_text()) == {
            "schema_version": 1, "workload": self.W, "ratio": 2.0, "context": None}
        for measured, ok in ((1.0, True), (2.04, True), (2.05, False)):
            gate = check_gate(path, self.W, {"ratio": measured}, 0.02, "ratio")
            assert gate["ok"] is ok
            assert gate["checks"] == [
                {"ratio": "ratio", "measured": measured, "baseline": 2.0, "ok": ok}]

    def test_unmeasured_key_is_skipped_and_an_empty_gate_fails(self, tmp_path):
        path = tmp_path / "gate.json"
        write_gate(path, self.W, {"a": 1.0, "b": 1.0})
        gate = check_gate(path, self.W, {"a": 1.0, "b": None}, 0.0, "quantity")
        assert gate["ok"] and [c["quantity"] for c in gate["checks"]] == ["a"]
        assert not check_gate(path, self.W, {"b": None}, 0.0, "quantity")["ok"]

    def test_refuses_what_it_cannot_judge(self, tmp_path):
        path = tmp_path / "gate.json"
        write_gate(path, self.W, {"a": 1.0, "b": None, "c": True})
        with pytest.raises(GateError, match="workload"):
            check_gate(path, {**self.W, "nprocs": 4}, {"a": 1.0}, 0.0, "ratio")
        for key in ("b", "c", "absent"):
            with pytest.raises(GateError, match="not a number"):
                check_gate(path, self.W, {key: 1.0}, 0.0, "ratio")
        with pytest.raises(GateError, match="cannot read"):
            check_gate(tmp_path / "absent.json", self.W, {"a": 1.0}, 0.0, "ratio")
