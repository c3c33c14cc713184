"""COSMA-like baseline: schedule, strategy, and correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import cosma_matmul, cosma_strategy
from repro.grid.optimizer import GridSpec, cosma_grid
from repro.layout import BlockCol1D, BlockRow1D, DistMatrix, dense_random


def _check(comm, m, n, k, **kw):
    A, B = dense_random(m, k, 1), dense_random(k, n, 2)
    a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), A)
    b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), B)
    c = cosma_matmul(a, b, c_dist=BlockRow1D((m, n), comm.size), **kw)
    return np.allclose(c.to_global(), A @ B, atol=1e-10)


class TestCorrectness:
    @pytest.mark.parametrize("P", [1, 2, 4, 6, 8, 12, 13, 16])
    def test_various_worlds(self, spmd, P):
        assert all(spmd(P, lambda comm: _check(comm, 18, 22, 26)).results)

    @pytest.mark.parametrize("m,n,k", [(48, 6, 6), (6, 48, 6), (6, 6, 48), (1, 1, 32)])
    def test_skewed(self, spmd, m, n, k):
        assert all(spmd(8, lambda comm: _check(comm, m, n, k)).results)

    def test_forced_grid(self, spmd):
        grid = GridSpec(pm=2, pn=3, pk=2, nprocs=12)  # not Cannon-compatible
        assert all(spmd(12, lambda comm: _check(comm, 18, 18, 24, grid=grid)).results)

    def test_wrong_grid_world_rejected(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=1)
            with pytest.raises(ValueError):
                cosma_matmul(a, b, grid=GridSpec(2, 2, 2, 8))

        spmd(4, f)


class TestStrategy:
    def test_example2_schedule(self):
        """Section III-C's Example 2 reading: k:4 then m:2 then n:2."""
        grid = GridSpec(pm=2, pn=2, pk=4, nprocs=16)
        steps = cosma_strategy(grid, 32, 32, 64)
        assert [(s.dim, s.parts) for s in steps] == [("k", 4), ("m", 2), ("n", 2)]

    def test_largest_extent_first(self):
        grid = GridSpec(pm=4, pn=2, pk=2, nprocs=16)
        steps = cosma_strategy(grid, 1000, 10, 10)
        assert steps[0].dim == "m"

    def test_unit_dims_skipped(self):
        grid = GridSpec(pm=1, pn=1, pk=8, nprocs=8)
        steps = cosma_strategy(grid, 10, 10, 1000)
        assert [(s.dim, s.parts) for s in steps] == [("k", 8)]

    def test_strategy_covers_grid(self):
        grid = cosma_grid(100, 200, 400, 24)
        steps = cosma_strategy(grid, 100, 200, 400)
        prod = {"m": 1, "n": 1, "k": 1}
        for s in steps:
            prod[s.dim] *= s.parts
        assert (prod["m"], prod["n"], prod["k"]) == (grid.pm, grid.pn, grid.pk)


class TestScheduleShape:
    @staticmethod
    def _blocks(spmd, m, n, k, P):
        """The run, and the bytes of one active rank's replicated A and B
        and its C block on COSMA's grid."""

        def f(comm):
            A, B = dense_random(m, k, 1), dense_random(k, n, 2)
            a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), B)
            cosma_matmul(a, b)

        grid = cosma_grid(m, n, k, P)
        blk_a = (m / grid.pm) * (k / grid.pk)
        blk_b = (k / grid.pk) * (n / grid.pn)
        blk_c = (m / grid.pm) * (n / grid.pn)
        return spmd(P, f), (blk_a + blk_b + blk_c) * 8

    def test_full_replication_before_compute(self, spmd):
        """COSMA's A-operand ends fully replicated: each active rank holds
        an m/pm x k/pk block (vs CA3DMM's m/pm x k/(pk*s) Cannon block)."""
        res, expect = self._blocks(spmd, 24, 24, 32, 8)
        peak = max(t.mem_peaks.get("cosma.blocks", 0) for t in res.traces)
        assert peak == pytest.approx(expect, rel=0.35)

    def test_resident_watermark_holds_the_replicated_blocks(self, spmd):
        """The measured footprint counts the blocks the schedule keeps
        resident through compute and the k-reduction."""
        res, expect = self._blocks(spmd, 64, 80, 48, 8)
        assert max(t.resident_peak_bytes for t in res.traces) >= expect
