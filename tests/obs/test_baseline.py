"""Perf baselines: capture, store round-trips, and perfdiff's rules
judged through the one gate, ``check_gate``."""

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
from repro.cli import _print_checks
from repro.machine.model import laptop, pace_phoenix_cpu
from repro.obs.baseline import (
    PERF_RULES,
    BaselineStore,
    GateError,
    capture_baseline,
    check_gate,
    gate_rule,
    perf_metrics,
    relative_change,
    validate_baseline_json,
    write_gate,
)
from repro.obs.export import TraceSchemaError

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def _gate(root, base, cur):
    """``repro perfdiff``'s check of ``cur`` against ``base`` committed
    under ``root``."""
    path = BaselineStore(root).save(base["name"], base)
    return check_gate(path, cur["workload"], perf_metrics(base, cur), PERF_RULES, "metric")


def _verdicts(gate) -> dict[str, str]:
    return {c["metric"]: gate_rule(PERF_RULES, c["metric"]).verdict(c["baseline"], c["measured"])
            for c in gate["checks"]}


def _named(gate, verdict: str) -> list[str]:
    return [metric for metric, v in _verdicts(gate).items() if v == verdict]


def _text(gate, capsys, everything: bool = False) -> str:
    _print_checks(gate, PERF_RULES, "metric", 28, everything)
    return capsys.readouterr().out

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
        assert not store.path("nope").exists()
        assert store.names() == []

    def test_save_rejects_invalid_documents(self, tmp_path):
        with pytest.raises(TraceSchemaError):
            BaselineStore(tmp_path).save("bad", {"schema_version": 1})

    def test_load_rejects_corrupt_files(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"nope": 1}))
        with pytest.raises(TraceSchemaError):
            BaselineStore(tmp_path).load("bad")

    def test_compare_refuses_a_baseline_for_another_workload(self, tmp_path):
        other = _captured()
        other["workload"] = {"m": 64, "n": 64, "k": 64, "nprocs": 8}
        with pytest.raises(GateError, match="workload"):
            _gate(tmp_path, other, _captured())

    def test_compare_against_self_is_ok(self, tmp_path):
        doc = _captured()
        gate = _gate(tmp_path, doc, doc)
        assert gate["ok"] and all(c["ok"] for c in gate["checks"])
        assert set(_verdicts(gate).values()) == {"ok"}
        assert [c["metric"] for c in gate["checks"]] == [
            "makespan_s", *(f"phase_critical_s[{p}]" for p in sorted(doc["phase_critical_s"])),
            "traffic[max_bytes_sent]", "traffic[total_bytes]", "traffic[max_msgs_sent]"]


class TestClassification:
    def _pair(self):
        base = _captured()
        return base, copy.deepcopy(base)

    def test_slower_makespan_regresses(self, tmp_path):
        base, cur = self._pair()
        cur["makespan_s"] *= 1.10  # 10% > 3% tolerance
        gate = _gate(tmp_path, base, cur)
        assert not gate["ok"]
        assert [c["metric"] for c in gate["checks"] if not c["ok"]] == ["makespan_s"]

    def test_faster_makespan_improves_without_failing(self, tmp_path):
        base, cur = self._pair()
        cur["makespan_s"] *= 0.80
        gate = _gate(tmp_path, base, cur)
        assert gate["ok"]
        assert _named(gate, "improved") == ["makespan_s"]
        assert gate["checks"][0]["metric"] == "makespan_s"

    def test_within_tolerance_is_ok(self, tmp_path):
        base, cur = self._pair()
        cur["makespan_s"] *= 1.01  # under the 3% default
        assert _gate(tmp_path, base, cur)["ok"]

    def test_phase_regression_is_named(self, tmp_path):
        base, cur = self._pair()
        phase = max(cur["phase_critical_s"], key=cur["phase_critical_s"].get)
        cur["phase_critical_s"][phase] *= 2.0
        gate = _gate(tmp_path, base, cur)
        assert not gate["ok"]
        assert f"phase_critical_s[{phase}]" in _named(gate, "REGRESSION")

    def test_tiny_phase_shifts_under_abs_floor_pass(self, tmp_path):
        base, cur = self._pair()
        base["phase_critical_s"]["ghost"] = 1e-9
        cur["phase_critical_s"]["ghost"] = 3e-9  # 3x, but << phase_abs_s
        gate = _gate(tmp_path, base, cur)
        assert gate["ok"]
        assert _verdicts(gate)["phase_critical_s[ghost]"] == "ok"

    def test_msg_count_regresses_in_both_directions(self, tmp_path):
        for factor in (2, 0):
            base, cur = self._pair()
            cur["traffic"]["max_msgs_sent"] = (
                base["traffic"]["max_msgs_sent"] * factor + 1
            )
            gate = _gate(tmp_path, base, cur)
            assert not gate["ok"], factor
            assert _named(gate, "REGRESSION") == ["traffic[max_msgs_sent]"]

    def test_traffic_bytes_regress(self, tmp_path):
        base, cur = self._pair()
        cur["traffic"]["total_bytes"] = int(base["traffic"]["total_bytes"] * 1.5)
        gate = _gate(tmp_path, base, cur)
        assert not gate["ok"]
        assert _named(gate, "REGRESSION") == ["traffic[total_bytes]"]

    def test_format_reports_verdicts(self, tmp_path, capsys):
        base, cur = self._pair()
        cur["makespan_s"] *= 2.0
        gate = _gate(tmp_path, base, cur)
        text = _text(gate, capsys)
        assert "makespan_s" in text and "(+100.00%, tol 3.0%)  REGRESSION" in text
        assert "traffic[total_bytes]" not in text  # unchanged checks stay quiet
        verbose = _text(gate, capsys, everything=True)
        assert "traffic[total_bytes]" in verbose
        assert "traffic[max_msgs_sent]" in verbose and "both ways)  ok" in verbose

    def test_to_dict_round_trips_through_json(self, tmp_path):
        base, cur = self._pair()
        cur["makespan_s"] *= 2.0
        doc = json.loads(json.dumps(_gate(tmp_path, base, cur)))
        assert doc["ok"] is False
        assert [c["metric"] for c in doc["checks"] if not c["ok"]] == ["makespan_s"]
        assert doc["tol"]["traffic[max_msgs_sent]"] == {"rel": 0.0, "floor": 0.0, "both": True}

    def test_phase_absent_from_the_baseline_is_new_not_a_percentage(self, tmp_path, capsys):
        """fig3's committed baseline (no replicate phase: 2x2x2) against a
        fig2 run (1x4x2 replicates A), read as fig3's problem: the
        verdict stays, the ratio to zero is not printed as 300 digits."""
        base = BaselineStore(BASELINES).load("fig3")
        cur = {**workload_baseline("fig2"), "workload": base["workload"]}
        assert "replicate" not in base["phase_critical_s"]
        gate = _gate(tmp_path, base, cur)
        (check,) = [c for c in gate["checks"]
                    if c["metric"] == "phase_critical_s[replicate]"]
        assert check["baseline"] == 0.0 and check["measured"] > 0.0
        assert not check["ok"]
        assert relative_change(check["baseline"], check["measured"]) == "new"
        line = next(ln for ln in _text(gate, capsys).splitlines() if "replicate" in ln)
        assert "(new, tol 10.0% or 1e-07)  REGRESSION" in line and len(line) < 120
        # zero on both sides is no change, as before
        same = _gate(tmp_path, base, base)
        assert {relative_change(c["baseline"], c["measured"])
                for c in same["checks"]} == {"+0.00%"}


class TestBenchArtifact:
    def test_baseline_artifact_writes_valid_json(self, tmp_path):
        path = baseline_artifact("fig2", tmp_path, machine=laptop())
        assert path == tmp_path / "fig2.json"
        doc = json.loads(path.read_text())
        validate_baseline_json(doc)
        assert doc["workload"] == {"m": 32, "n": 64, "k": 16, "nprocs": 8}

    def test_doubled_link_costs_fail_the_gate(self, tmp_path, capsys):
        """The perf gate's self-test: fig2 re-executed on a machine whose
        α and β are doubled must regress against its own baseline."""
        machine = pace_phoenix_cpu("mpi")
        slow = replace(
            machine,
            alpha=2 * machine.alpha, nic_beta=2 * machine.nic_beta,
            alpha_intra=2 * machine.alpha_intra, beta_intra=2 * machine.beta_intra,
        )
        base, cur = workload_baseline("fig2"), workload_baseline("fig2", machine=slow)
        gate = _gate(tmp_path, base, cur)
        assert not gate["ok"]
        (makespan,) = [c for c in gate["checks"] if c["metric"] == "makespan_s"]
        assert not makespan["ok"] and makespan["measured"] > makespan["baseline"]
        assert "REGRESSION" in _text(gate, capsys)


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
