"""CLI critpath/perfdiff subcommands: text, JSON, exit codes, the gate."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.critpath import validate_critpath_json

_BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


class TestCritpathSubcommand:
    def test_text_report(self, capsys):
        rc = main(["critpath", "32", "32", "32", "-np", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Critical path:" in out
        assert "complete" in out
        assert "phase blame" in out

    def test_json_is_schema_valid(self, capsys):
        rc = main(["critpath", "32", "32", "32", "-np", "4", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        validate_critpath_json(doc)
        assert doc["complete"] is True
        assert doc["nprocs"] == 4
        assert doc["path_total_s"] == pytest.approx(doc["makespan_s"], rel=1e-12)

    def test_timeline_overlay(self, capsys):
        rc = main(["critpath", "32", "32", "32", "-np", "4", "--timeline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(upper-case: critical path)" in out
        assert "rank" in out


class TestPerfdiffSubcommand:
    def _update(self, tmp_path, capsys):
        rc = main(["perfdiff", "fig2", "--update",
                   "--baseline-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baseline refreshed" in out
        assert (tmp_path / "fig2.json").exists()

    def test_update_then_clean_compare(self, tmp_path, capsys):
        self._update(tmp_path, capsys)
        rc = main(["perfdiff", "fig2", "--baseline-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig2: OK" in out
        assert "perfdiff: OK" in out

    def test_json_mode(self, tmp_path, capsys):
        self._update(tmp_path, capsys)
        rc = main(["perfdiff", "fig2", "--baseline-dir", str(tmp_path),
                   "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["missing"] == []
        assert doc["workloads"][0]["name"] == "fig2"
        # each workload is its check_gate block: one check per metric
        (gate,) = doc["workloads"]
        assert gate["baseline"] == str(tmp_path / "fig2.json")
        assert gate["checks"][0]["metric"] == "makespan_s"
        assert all(c["ok"] and c["measured"] == c["baseline"] for c in gate["checks"])

    @pytest.mark.parametrize("edit, rc, listed", [
        (lambda d: d.update(makespan_s=d["makespan_s"] / 1.10), 1, "REGRESSION"),
        (lambda d: d.update(makespan_s=d["makespan_s"] / 0.80), 0, "improved"),
        (lambda d: d["phase_critical_s"].update(cannon=d["phase_critical_s"]["cannon"] / 2),
         1, "REGRESSION"),
        (lambda d: d["phase_critical_s"].update(ghost=5e-8), 0, None),
        (lambda d: d["traffic"].update(total_bytes=d["traffic"]["total_bytes"] // 2),
         1, "REGRESSION"),
        (lambda d: d["traffic"].update(max_msgs_sent=d["traffic"]["max_msgs_sent"] + 1),
         1, "REGRESSION"),
        (lambda d: d["traffic"].update(max_msgs_sent=d["traffic"]["max_msgs_sent"] - 1),
         1, "REGRESSION"),
    ], ids=["slower", "faster", "phase-x2", "phase-under-floor", "bytes-x2",
            "fewer-msgs", "more-msgs"])
    def test_edited_baseline_verdicts(self, tmp_path, capsys, edit, rc, listed):
        """A committed baseline edited to what the run misses or beats:
        exit 1 exactly when a rule is broken; only a changed metric is
        listed, an improvement without failing."""
        self._update(tmp_path, capsys)
        path = tmp_path / "fig2.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["perfdiff", "fig2", "--baseline-dir", str(tmp_path)]) == rc
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("fig2: OK" if rc == 0 else "fig2: REGRESSION")
        assert [ln.split()[-1] for ln in lines[1:-1]] == ([listed] if listed else [])

    def test_missing_baseline_fails_with_pointer(self, tmp_path, capsys):
        rc = main(["perfdiff", "fig2", "--baseline-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "NO BASELINE" in out
        assert "--update" in out

    def test_baseline_for_another_problem_exits_two(self, tmp_path, capsys):
        """A copied fig3.json (64^3) cannot judge fig2's 32x64x16 run:
        one stderr line and exit 2 — exit 1 stays "regression"."""
        shutil.copy(_BASELINE_DIR / "fig3.json", tmp_path / "fig2.json")
        rc = main(["perfdiff", "fig2", "--baseline-dir", str(tmp_path)])
        cap = capsys.readouterr()
        assert rc == 2
        assert "REGRESSION" not in cap.out
        assert len(cap.err.splitlines()) == 1
        assert cap.err.startswith("perfdiff: ") and "workload" in cap.err

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        rc = main(["perfdiff", "fig99", "--baseline-dir", str(tmp_path)])
        assert rc == 2


class TestCommittedBaselines:
    """The repo ships baselines for every trace workload and HEAD passes."""

    def test_all_workloads_have_committed_baselines(self):
        from repro.bench.harness import TRACE_WORKLOADS
        from repro.obs.baseline import BaselineStore

        store = BaselineStore(_BASELINE_DIR)
        # audit_gate.json / memory_gate.json are the communication- and
        # memory-audit baselines, not perf baselines (different schemas,
        # gated by `repro audit --gate` / `repro memprof --gate`)
        names = set(store.names()) - {"audit_gate", "memory_gate"}
        assert names == set(TRACE_WORKLOADS)
        for name in names:
            doc = store.load(name)
            assert doc["name"] == name

    def test_head_passes_the_gate_on_one_workload(self, capsys):
        rc = main(["perfdiff", "fig2", "--baseline-dir", str(_BASELINE_DIR)])
        out = capsys.readouterr().out
        assert rc == 0, out
