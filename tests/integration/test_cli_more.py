"""Additional CLI surface: argument handling and report structure."""

from __future__ import annotations

import pytest

from repro.cli import main

SUBCOMMANDS = ("trace", "stats", "audit", "memprof", "ledger", "critpath",
               "perfdiff", "faults", "recover", "checkpoint")


class TestCliArguments:
    def test_defaults(self, capsys):
        rc = main(["-np", "4", "24", "24", "24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Number of tests             : 3" in out  # default ntest

    def test_long_flag(self, capsys):
        rc = main(["--nprocs", "4", "16", "16", "16", "0", "0", "1", "1", "0"])
        assert rc == 0

    def test_rectangular_with_idle_ranks(self, capsys):
        rc = main(["-np", "7", "40", "10", "10", "0", "0", "1", "1", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Process utilization" in out
        assert "0 error(s)" in out

    def test_report_has_all_phases(self, capsys):
        main(["-np", "8", "32", "32", "64", "0", "0", "1", "2", "0"])
        out = capsys.readouterr().out
        for line in (
            "Redistribute A, B, C",
            "Allgather A or B",
            "2D Cannon execution",
            "Reduce-scatter C",
            "Execution time (avg)",
        ):
            assert line in out

    def test_partial_grid_ignored(self, capsys):
        """Only mp without np/kp falls back to the optimizer."""
        rc = main(["-np", "4", "16", "16", "16", "0", "0", "1", "1", "0", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Process grid mp * np * kp" in out

    def test_work_cuboid_line_matches_plan(self, capsys):
        from repro.core.plan import Ca3dmmPlan

        main(["-np", "6", "30", "20", "40", "0", "0", "0", "1", "0"])
        out = capsys.readouterr().out
        plan = Ca3dmmPlan(30, 20, 40, 6)
        mb = -(-30 // plan.pm)
        nb = -(-20 // plan.pn)
        kb = -(-40 // plan.pk)
        assert f"Work cuboid  mb * nb * kb   : {mb} * {nb} * {kb}" in out

    def test_comm_ratio_reasonable(self, capsys):
        """The reported volume / lower-bound ratio stays O(1)."""
        main(["-np", "8", "64", "64", "64", "0", "0", "0", "1", "0"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "lower bound" in l)
        ratio = float(line.split(":")[1])
        assert 0.5 <= ratio <= 4.0


class TestOneFrontDoor:
    """``example_AB`` and the ten subcommands are one parser tree."""

    def test_help_shows_the_example_usage_and_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage: example_AB [-h] [-np NPROCS]" in out
        assert "M N K [transA] [transB]" in out
        listed = [ln.split()[0] for ln in out.splitlines() if ln.startswith("    ")
                  and ln[4] != " "]
        assert listed == ["example_AB", *SUBCOMMANDS]

    def test_every_subcommand_has_its_own_help(self, capsys):
        for name in SUBCOMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            assert f"usage: python -m repro.cli {name} " in capsys.readouterr().out

    def test_mistyped_subcommand_is_refused_by_name(self, capsys):
        rc = main(["adit", "64", "64", "64"])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == ""
        assert "'adit'" in cap.err and "invalid int value" not in cap.err
        assert all(name in cap.err for name in SUBCOMMANDS)

    def test_example_grammar_is_still_the_default(self, capsys):
        assert main(["-np", "4", "16", "16", "16", "T", "N", "1", "1", "0"]) == 0
        by_default = capsys.readouterr().out
        assert main(["example_AB", "-np", "4", "16", "16", "16", "T", "N",
                     "1", "1", "0"]) == 0
        assert capsys.readouterr().out == by_default

    def test_failed_recovery_is_a_value_and_exits_one(self, capsys):
        """The shared clean-vs-faulted step turns the faulted run's
        RuntimeError into ``failure``; ``recover`` prints it and exits 1."""
        rc = main(["recover", "24", "20", "28", "-np", "8", "--kill-rank", "2",
                   "--max-recoveries", "0"])
        cap = capsys.readouterr()
        assert rc == 1 and cap.out == ""
        assert cap.err.startswith("recovery failed: ")

        from repro.bench.harness import clean_vs_faulted, executed_workload
        from repro.ft import resilient_multiply
        from repro.mpi import FaultPlan, RankFault

        def body(comm, a, b):
            return (resilient_multiply(comm, a, b, max_recoveries=0).to_global(),)

        pair = clean_vs_faulted(
            lambda faults: executed_workload((24, 20, 28, 8), faults=faults, body=body),
            FaultPlan(ranks=(RankFault(rank=2, phase="cannon", occurrence=1,
                                       kill=True),)),
        )
        assert pair.failure and pair.faulted is None and pair.got is None
        assert pair.clean.results[0] is not None
