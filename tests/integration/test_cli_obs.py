"""CLI observability surfaces: --json, op codes, trace/stats subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.audit import validate_audit_json
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
        # the audit is the one verdict on measured traffic vs eq. (4)
        assert "drift" not in doc
        assert doc["audit"]["ok"] is True
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
        assert "wrote" in out and "Communication audit" in out
        validate_chrome_trace(json.loads(trace.read_text()))
        assert log.exists()

    def test_forced_grid_and_strict(self, tmp_path, capsys):
        trace = tmp_path / "g.trace.json"
        rc = main(["trace", "64", "64", "64", "-np", "8",
                   "--grid", "2", "2", "2", "-o", str(trace), "--strict"])
        assert rc == 0  # balanced grid: the audit passes

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        rc = main(["trace", "64", "64", "64", "-np", "4", "--grid", "2", "2", "2",
                   "-o", "/dev/null"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "trace: grid 2x2x2 needs 8 > 4 ranks\n"

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        rc = main(["trace", "32", "32", "32", "-np", "4",
                   "-o", str(tmp_path / "missing" / "x.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("trace: cannot write trace: ") and err.count("\n") == 1


class TestInputErrors:
    """A grid the plan refuses exits 2 with one stderr line, before any
    rank runs; exit 1 stays "the run failed or regressed"."""

    @pytest.mark.parametrize("argv, message", [
        (["stats", "32", "32", "32", "-np", "8", "--grid", "2", "3", "1"],
         "stats: grid 2x3x1 (P=8, idle=2) violates constraint (7)"),
        (["stats", "32", "32", "32", "-np", "8", "--grid", "0", "1", "1"],
         "stats: pm=0: must be an int >= 1"),
        (["audit", "32", "32", "32", "-np", "8", "--grid", "4", "4", "4"],
         "audit: grid 4x4x4 needs 64 > 8 ranks"),
        (["-np", "8", "32", "32", "32", "N", "N", "1", "1", "0", "2", "3", "1"],
         "example_AB: grid 2x3x1 (P=8, idle=2) violates constraint (7)"),
        (["-np", "8", "32", "32", "32", "N", "N", "1", "1", "0", "4", "4", "4"],
         "example_AB: grid 4x4x4 needs 64 > 8 ranks"),
    ], ids=["stats-constraint-7", "stats-zero-dim", "audit-oversized",
            "example-constraint-7", "example-oversized"])
    def test_refused_grid_exits_two(self, argv, message, capsys):
        rc = main(argv)
        cap = capsys.readouterr()
        assert rc == 2
        assert cap.err == message + "\n"
        assert cap.out == ""

    @pytest.mark.parametrize("argv", [
        ["trace", "32", "32", "32", "--no-transport-events"],
        ["stats", "32", "32", "32", "--tol", "0.1"],
        ["critpath", "32", "32", "32", "--max-segments", "3"],
        ["perfdiff", "fig2", "--inject-latency", "2.0"],
        ["perfdiff", "fig2", "--time-tol", "5.0"],
    ], ids=["no-transport-events", "tol", "max-segments", "inject-latency", "time-tol"])
    def test_removed_flags_rejected(self, argv):
        """Flags nothing but tests set are gone; each is its default."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_zero_means_no_forced_grid_for_example_ab(self, capsys):
        rc = main(["-np", "8", "32", "32", "32", "N", "N", "1", "1", "0", "0", "1", "1"])
        assert rc == 0
        assert "CA3DMM output : 0 error(s)" in capsys.readouterr().out


class TestStatsSubcommand:
    def test_text_output(self, capsys):
        rc = main(["stats", "64", "64", "64", "-np", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Run metrics" in out
        assert "Communication audit" in out

    def test_json_output(self, capsys):
        rc = main(["stats", "64", "64", "64", "-np", "8", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert "drift" not in doc
        assert doc["audit"]["ok"] is True
        validate_audit_json(doc["audit"])
        assert doc["metrics"]["q_words"] > 0
        # each quantity is stated once, in the metrics snapshot
        assert set(doc) == {"metrics", "audit", "q_over_analytic"}
        metrics = doc["metrics"]
        assert metrics["resident_peak_words"] > 0
        assert metrics["mem_by_purpose"]["transport.inflight"] > 0
        assert 0.0 <= metrics["overlap_by_phase"]["cannon"] <= 1.0
