"""CLI `audit` / `ledger` subcommands: the ISSUE's acceptance story.

On a virtual 64-rank world at the Fig. 3 size, `repro audit` must
report measured bytes within 5% of eq. (4) per phase, print the
measured/pebbling ratio, gate against a committed baseline, and two
identical seeded runs must append byte-identical ledger records modulo
the run-id field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.audit import validate_audit_json
from repro.obs.ledger import Ledger, canonical_json

_BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
_GATE = _BASELINES / "audit_gate.json"
_W = ["64", "64", "64", "-np", "64"]
#: subcommand -> (its committed gate file, the workload that file is for)
_GATED = {
    "audit": (_GATE, _W),
    "memprof": (_BASELINES / "memory_gate.json", ["64", "64", "64", "-np", "8"]),
}


class TestAuditSubcommand:
    def test_fig3_size_on_64_ranks_within_tolerance(self, capsys):
        rc = main(["audit", *_W, "--strict", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        validate_audit_json(doc)
        assert doc["ok"] is True
        for phase in doc["phases"]:
            assert phase["rel_err_model"] <= 0.05, phase
        # Q is the multiply's words plus set-up's one context agreement
        # (one word per recursive-doubling round).  The reduce-scatter
        # sends (pk-1)/pk of the C block, so Q falls below eq. (9); the
        # pebbling bound still holds.
        rows = {phase["phase"]: phase["measured_words"] for phase in doc["phases"]}
        assert doc["q_words"] == rows["cannon"] + rows["reduce"] + math.ceil(math.log2(64))
        assert doc["bounds"]["q_over_pebbling"] >= 1.0

    def test_text_report_prints_the_ratios(self, capsys):
        rc = main(["audit", *_W])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Communication audit" in out
        assert "pebbling bound 2mnk/(P√M)" in out
        assert "Q/bound" in out

    def test_committed_gate_passes_at_head(self, capsys):
        rc = main(["audit", *_W, "--strict", "--gate", str(_GATE)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "audit gate: OK" in out

    def test_gate_cycle_update_then_fail_on_regression(self, tmp_path, capsys):
        gate = tmp_path / "gate.json"
        assert main(["audit", *_W, "--update-gate", str(gate)]) == 0
        capsys.readouterr()
        assert main(["audit", *_W, "--gate", str(gate)]) == 0
        capsys.readouterr()
        # tighten the committed ratios below what HEAD measures: must fail
        doc = json.loads(gate.read_text())
        doc["q_over_eq9"] *= 0.5
        doc["q_over_pebbling"] *= 0.5
        gate.write_text(json.dumps(doc))
        rc = main(["audit", *_W, "--gate", str(gate)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "audit gate: FAIL" in out


@pytest.mark.parametrize("sub", sorted(_GATED))
class TestTheOneGate:
    """Exit 0 = holds, 1 = regression, 2 = the file cannot judge this run."""

    def test_committed_gate_regenerates_byte_identically(self, sub, tmp_path, capsys):
        committed, workload = _GATED[sub]
        fresh = tmp_path / "gate.json"
        assert main([sub, *workload, "--update-gate", str(fresh)]) == 0
        assert fresh.read_bytes() == committed.read_bytes()
        assert main([sub, *workload, "--gate", str(fresh)]) == 0
        assert "gate: OK" in capsys.readouterr().out

    def test_regression_exits_1(self, sub, tmp_path, capsys):
        committed, workload = _GATED[sub]
        doc = json.loads(committed.read_text())
        for key, value in doc.items():
            if isinstance(value, float):
                doc[key] = value * 0.5
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(doc))
        assert main([sub, *workload, "--gate", str(tight)]) == 1
        assert "gate: FAIL" in capsys.readouterr().out

    def test_gate_for_another_problem_exits_2(self, sub, capsys):
        committed, _workload = _GATED[sub]
        rc = main([sub, "32", "32", "32", "-np", "8", "--gate", str(committed)])
        cap = capsys.readouterr()
        assert rc == 2
        assert "gate: OK" not in cap.out
        assert len(cap.err.splitlines()) == 1 and "workload" in cap.err

    @pytest.mark.parametrize("text", [
        "[1, 2]",               # not an object
        "{not json",            # not JSON
        None,                   # a gated value that is not a number
    ])
    def test_malformed_gate_file_exits_2(self, sub, text, tmp_path, capsys):
        committed, workload = _GATED[sub]
        if text is None:
            doc = json.loads(committed.read_text())
            gated = "q_over_eq9" if sub == "audit" else "peak_over_eq11"
            doc[gated] = "1.0"
            text = json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main([sub, *workload, "--gate", str(bad)])
        cap = capsys.readouterr()
        assert rc == 2
        assert len(cap.err.splitlines()) == 1 and cap.err.startswith(f"{sub}: ")

    def test_missing_gate_file_exits_2(self, sub, tmp_path, capsys):
        _committed, workload = _GATED[sub]
        assert main([sub, *workload, "--gate", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestLedgerRoundtrip:
    def test_identical_runs_append_identical_records(self, tmp_path, capsys):
        led_a = tmp_path / "a.jsonl"
        led_b = tmp_path / "b.jsonl"
        assert main(["audit", *_W, "--ledger", str(led_a)]) == 0
        assert main(["audit", *_W, "--ledger", str(led_b)]) == 0
        capsys.readouterr()

        def stripped(path):
            return [
                canonical_json({**r, "run_id": "0" * 32})
                for r in Ledger(path).records()
            ]

        a, b = stripped(led_a), stripped(led_b)
        assert a and a == b
        rec = next(Ledger(led_a).records())
        assert rec["kind"] == "cli.audit"
        assert rec["audit_ok"] is True

    def test_ledger_subcommand_renders_and_filters(self, tmp_path, capsys):
        led = tmp_path / "ledger.jsonl"
        assert main(["audit", *_W, "--ledger", str(led)]) == 0
        assert main(["stats", "32", "32", "64", "-np", "8",
                     "--ledger", str(led)]) == 0
        capsys.readouterr()

        rc = main(["ledger", "--path", str(led)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cli.audit" in out and "cli.stats" in out
        assert "Q/eq9" in out

        rc = main(["ledger", "--path", str(led), "--kind", "cli.stats",
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        docs = json.loads(out)
        assert len(docs) == 1
        assert docs[0]["kind"] == "cli.stats"
        assert docs[0]["problem"]["nprocs"] == 8

    @pytest.mark.parametrize("argv", [
        ["ledger", "--last", "-1"],
        ["memprof", "16", "16", "16", "-np", "4", "--top", "-1"],
    ])
    def test_a_negative_count_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a count >= 0" in capsys.readouterr().err

    def test_env_var_opt_in(self, tmp_path, capsys, monkeypatch):
        led = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(led))
        assert main(["stats", "32", "32", "64", "-np", "8"]) == 0
        capsys.readouterr()
        assert len(Ledger(led)) == 1
