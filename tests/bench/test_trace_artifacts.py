"""Bench trace artifacts: every generator has an executed stand-in."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import GENERATORS, main
from repro.bench.harness import (
    TRACE_WORKLOADS,
    executed_workload,
    trace_artifact,
    workload_operands,
)
from repro.machine.model import laptop
from repro.obs.export import validate_chrome_trace
from repro.obs.ledger import canonical_json, ledger_record


class TestTraceWorkloads:
    def test_every_generator_has_a_workload(self):
        # "overlap" executes its own sync-vs-engine workload pair and
        # needs no separate trace stand-in.
        assert set(TRACE_WORKLOADS) == set(GENERATORS) - {"overlap"}

    def test_workloads_are_simulator_sized(self):
        for m, n, k, p in TRACE_WORKLOADS.values():
            assert m * n * k <= 10**6
            assert p <= 32


class TestOneRunHelper:
    """``executed_workload`` is the one way a run is set up."""

    @pytest.mark.parametrize("name", sorted(TRACE_WORKLOADS))
    def test_a_name_and_its_shape_are_the_same_run(self, name):
        def record(workload):
            plan, result = executed_workload(workload)
            return canonical_json(
                ledger_record(result, plan, "test", run_id="0" * 32))

        assert record(name) == record(TRACE_WORKLOADS[name])

    def test_operands_are_drawn_once_and_read_only(self):
        """Row bands of a C-ordered array are views, not copies: every
        rank's tile is backed by the driver's one array, and a write
        into it (which every other rank would see) is refused."""
        import numpy as np

        from repro.layout.distributions import Block2D

        bases = []

        def body(comm, a, b):
            bases.append(a.tiles[0].base)
            with pytest.raises(ValueError, match="read-only"):
                a.tiles[0][0, 0] = 0.0
            return (a.to_global() @ b.to_global(),)

        a_ref, b_ref = workload_operands("fig5", seeds=(3, 4))
        _plan, result = executed_workload(
            "fig5", seeds=(3, 4), body=body,
            layout=lambda shape, p: Block2D(shape, p, p, 1),
        )
        assert len(bases) == 8 and all(base is bases[0] for base in bases)
        assert np.array_equal(bases[0], a_ref)
        assert all(np.array_equal(r[0], a_ref @ b_ref) for r in result.results)

    def test_layout_trans_and_grid_reach_the_ranks(self):
        from repro.grid.optimizer import GridSpec
        from repro.layout.distributions import BlockCol1D

        grid = GridSpec(pm=2, pn=2, pk=2, nprocs=8)

        def body(comm, a, b):
            return a.dist, a.shape, b.shape

        plan, result = executed_workload(
            (24, 20, 28, 8), grid=grid, layout=BlockCol1D, trans=(True, False),
            body=body, record_events=False,
        )
        assert plan.grid == grid
        dist, a_shape, b_shape = result.results[0]
        assert isinstance(dist, BlockCol1D)
        assert (a_shape, b_shape) == ((28, 24), (28, 20))
        assert result.tracer.events == []


class TestTraceArtifact:
    def test_writes_schema_valid_trace(self, tmp_path):
        path = trace_artifact("fig5", tmp_path, machine=laptop())
        assert path == tmp_path / "fig5.trace.json"
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        assert doc["otherData"]["nprocs"] == TRACE_WORKLOADS["fig5"][3]
        names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert {"cannon", "reduce"} <= names

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(KeyError):
            trace_artifact("fig99", tmp_path)

    def test_cli_trace_dir_flag(self, tmp_path, capsys):
        rc = main(["fig2", "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace artifact:" in out
        assert (tmp_path / "fig2.trace.json").exists()
