"""The bench command-line front-end (python -m repro.bench)."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import TRACE_WORKLOADS
from repro.cli import main as cli_main


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table3" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available:" in capsys.readouterr().out

    def test_single_generator(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_multiple_generators(self, capsys):
        assert main(["fig5", "l_sweep"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5" in out and "l-sweep" in out

    def test_unknown_name(self, capsys):
        assert main(["nope"]) == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench", "table3"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Table III" in proc.stdout


class TestOneFrontDoor:
    """What ``repro.cli`` already does is not offered a second time."""

    @pytest.mark.parametrize("flag", [
        ["--fault-plan", "plan.json"],   # -> repro faults --plan
        ["--kill-rank", "1"],            # -> repro recover --kill-rank
        ["--history-dir", "hist"],       # -> repro audit --json
        ["--ledger", "ledger.jsonl"],    # -> --ledger on every subcommand
    ])
    def test_deleted_flags_are_refused(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_help_offers_exactly_the_three_also_execute_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        flags = {word.rstrip(",") for word in out.split() if word.startswith("--")}
        assert flags == {"--help", "--list", "--trace-dir", "--baseline-dir",
                         "--ckpt-every"}

    @pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
    def test_baseline_dir_and_perfdiff_update_write_the_same_file(
            self, name, tmp_path, capsys):
        assert cli_main(["perfdiff", name, "--update",
                         "--baseline-dir", str(tmp_path / "x")]) == 0
        assert main([name, "--baseline-dir", str(tmp_path / "y")]) == 0
        capsys.readouterr()
        assert ((tmp_path / "x" / f"{name}.json").read_bytes()
                == (tmp_path / "y" / f"{name}.json").read_bytes())
