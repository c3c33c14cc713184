"""Original 3D, 2.5D, and CTF-like baselines."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import algo3d_matmul, algo25d_matmul, ctf_matmul, cube_side, grid_25d
from repro.layout import BlockCol1D, BlockRow1D, DistMatrix, dense_random


def _check(comm, fn, m, n, k, **kw):
    A, B = dense_random(m, k, 1), dense_random(k, n, 2)
    a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), A)
    b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), B)
    c = fn(a, b, c_dist=BlockRow1D((m, n), comm.size), **kw)
    return np.allclose(c.to_global(), A @ B, atol=1e-10)


class TestAlgo3D:
    @pytest.mark.parametrize("P", [1, 8, 27])
    def test_perfect_cubes(self, spmd, P):
        assert all(spmd(P, lambda comm: _check(comm, algo3d_matmul, 18, 24, 30)).results)

    @pytest.mark.parametrize("P", [2, 7, 12, 30])
    def test_non_cubes_idle_ranks(self, spmd, P):
        assert all(spmd(P, lambda comm: _check(comm, algo3d_matmul, 12, 15, 18)).results)

    def test_cube_side(self):
        assert [cube_side(p) for p in (1, 7, 8, 26, 27, 28, 63, 64)] == [
            1, 1, 2, 2, 3, 3, 3, 4,
        ]

    def test_ragged_dims(self, spmd):
        assert all(spmd(8, lambda comm: _check(comm, algo3d_matmul, 7, 11, 13)).results)


class TestAlgo25D:
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_replication_factors(self, spmd, c):
        P = 4 * 4 * c if c <= 4 else 0
        P = {1: 16, 2: 8, 4: 16}[c]

        def f(comm):
            return _check(comm, algo25d_matmul, 20, 24, 28, c_factor=c)

        assert all(spmd(P, f).results)

    def test_c_equals_sq(self, spmd):
        """One Cannon step per layer (the original-3D limit)."""
        assert all(
            spmd(8, lambda comm: _check(comm, algo25d_matmul, 12, 12, 16, c_factor=2, sq=2)).results
        )

    def test_c_not_dividing_sq(self, spmd):
        """Layers take ragged step slices when c does not divide sq."""
        assert all(
            spmd(27, lambda comm: _check(comm, algo25d_matmul, 18, 18, 21, c_factor=3, sq=3)).results
        )

    def test_grid_too_big_rejected(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=1)
            with pytest.raises(ValueError):
                algo25d_matmul(a, b, c_factor=2, sq=4)

        spmd(8, f)

    def test_grid_25d_selection(self):
        sq, c = grid_25d(32)
        assert sq * sq * c <= 32 and c <= sq
        sq, c = grid_25d(64, c=4)
        assert (sq, c) == (4, 4)
        assert grid_25d(1) == (1, 1)

    def test_idle_ranks(self, spmd):
        assert all(
            spmd(10, lambda comm: _check(comm, algo25d_matmul, 12, 12, 12, c_factor=2, sq=2)).results
        )

    @pytest.mark.parametrize("c", [0, -1])
    @pytest.mark.parametrize("engine", ["analytic", "executed"])
    def test_replication_factor_below_one_is_a_value_error(self, engine, c):
        """``grid_25d(P, c)`` with ``c < 1`` used to search for ``sq``
        forever: ``algo25d_cost`` spun, and so did every rank of
        ``algo25d_matmul`` without entering the transport, where the
        scheduler cannot see it.  Run in a subprocess so a hang fails."""
        proc = subprocess.run(
            [sys.executable, "-c", _BAD_C, engine, str(c)],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        want = f"replication factor c must be >= 1, not {c}"
        assert proc.stdout.splitlines() == [want if engine == "analytic" else f"{want} / sent 0"]


_BAD_C = """
import sys
from repro.analysis.baseline_costs import algo25d_cost
from repro.baselines import algo25d_matmul
from repro.layout import BlockCol1D, DistMatrix
from repro.machine.model import laptop
from repro.mpi import run_spmd

engine, c = sys.argv[1], int(sys.argv[2])
if engine == "analytic":
    try:
        algo25d_cost(64, 64, 64, 16, laptop(), c=c)
    except ValueError as err:
        print(err)
else:
    def body(comm):
        a = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=0)
        b = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=1)
        sent = comm.transport.trace(comm.world_rank).msgs_sent
        try:
            algo25d_matmul(a, b, c_factor=c)
        except ValueError as err:
            return f"{err} / sent {comm.transport.trace(comm.world_rank).msgs_sent - sent}"
    print(*set(run_spmd(4, body, machine=laptop()).results))
"""


class TestCtfLike:
    @pytest.mark.parametrize("P", [1, 4, 8, 16, 12])
    def test_correct(self, spmd, P):
        assert all(spmd(P, lambda comm: _check(comm, ctf_matmul, 16, 20, 24)).results)

    def test_rectangular_problem(self, spmd):
        """CTF's aspect-blind grid still computes the right answer."""
        assert all(spmd(8, lambda comm: _check(comm, ctf_matmul, 60, 5, 5)).results)
