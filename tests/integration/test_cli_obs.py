"""CLI observability surfaces: --json, op codes, trace/stats subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import validate_chrome_trace, validate_run_json


class TestJsonMode:
    def test_json_document_is_schema_valid(self, capsys):
        rc = main(["-np", "8", "64", "64", "64", "N", "N", "1", "1", "0", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        validate_run_json(doc)
        assert doc["problem"] == {
            "m": 64, "n": 64, "k": 64, "nprocs": 8,
            "transA": "N", "transB": "N", "device": "cpu",
        }
        assert doc["correctness"] == {"validated": True, "errors": 0}
        assert doc["partition"]["pm"] * doc["partition"]["pn"] * doc["partition"]["pk"] <= 8

    def test_json_carries_metrics_and_drift(self, capsys):
        rc = main(["-np", "8", "64", "64", "64", "N", "N", "1", "1", "0", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["drift"]["ok"] is True
        assert doc["metrics"]["q_words"] > 0
        assert set(doc["phases"]) >= {"cannon", "reduce"}

    def test_json_mode_emits_only_json(self, capsys):
        main(["-np", "4", "32", "32", "32", "0", "0", "1", "1", "0", "--json"])
        out = capsys.readouterr().out
        json.loads(out)  # the whole stdout is one JSON document

    def test_text_mode_unchanged_without_flag(self, capsys):
        rc = main(["-np", "4", "32", "32", "32", "0", "0", "1", "1", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CA3DMM output : 0 error(s)" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestOpCodes:
    def test_letter_codes_accepted(self, capsys):
        rc = main(["-np", "6", "40", "30", "50", "T", "T", "1", "1", "0"])
        assert rc == 0
        assert "Transpose A / B             : 1 / 1" in capsys.readouterr().out

    def test_numeric_codes_still_accepted(self, capsys):
        rc = main(["-np", "6", "40", "30", "50", "1", "0", "1", "1", "0"])
        assert rc == 0
        assert "Transpose A / B             : 1 / 0" in capsys.readouterr().out

    def test_conjugate_transpose_runs(self, capsys):
        rc = main(["-np", "4", "24", "24", "24", "C", "N", "1", "1", "0", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["problem"]["transA"] == "C"
        assert doc["correctness"]["errors"] == 0

    def test_bad_code_rejected(self):
        with pytest.raises(SystemExit):
            main(["-np", "4", "24", "24", "24", "Q", "N", "1", "1", "0"])


class TestTraceSubcommand:
    def test_writes_valid_trace_and_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "out.trace.json"
        log = tmp_path / "out.jsonl"
        rc = main(["trace", "48", "48", "48", "-np", "8",
                   "-o", str(trace), "--jsonl", str(log)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote" in out and "Drift guard" in out
        validate_chrome_trace(json.loads(trace.read_text()))
        assert log.exists()

    def test_forced_grid_and_strict(self, tmp_path, capsys):
        trace = tmp_path / "g.trace.json"
        rc = main(["trace", "64", "64", "64", "-np", "8",
                   "--grid", "2", "2", "2", "-o", str(trace), "--strict"])
        assert rc == 0  # balanced grid: drift guard passes

    def test_oversized_grid_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "64", "64", "64", "-np", "4", "--grid", "2", "2", "2",
                  "-o", "/dev/null"])


class TestStatsSubcommand:
    def test_text_output(self, capsys):
        rc = main(["stats", "64", "64", "64", "-np", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Run metrics" in out
        assert "Drift guard" in out

    def test_json_output(self, capsys):
        rc = main(["stats", "64", "64", "64", "-np", "8", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["drift"]["ok"] is True
        assert doc["metrics"]["q_words"] > 0
        # byte fields come from the traces' byte counters (ints), and the
        # in-flight peak has one name
        assert "peak_live_bytes" not in doc
        assert doc["transport_inflight_peak_bytes"] == 8 * doc["metrics"]["peak_live_words"]
        assert doc["resident_peak_bytes"] == 8 * doc["metrics"]["resident_peak_words"]
        assert isinstance(doc["resident_peak_bytes"], int)
