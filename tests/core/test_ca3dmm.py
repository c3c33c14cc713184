"""End-to-end CA3DMM correctness (Algorithm 1, executed engine)."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.core import Ca3dmm, ca3dmm_matmul
from repro.core import ca3dmm as engine_module
from repro.grid.optimizer import GridSpec
from repro.layout import (
    Block2D,
    BlockCol1D,
    BlockCyclic2D,
    BlockRow1D,
    DistMatrix,
    dense_random,
)


def _check(comm, m, n, k, transa=False, transb=False, c_dist_fn=None,
           grid=None, shifts_per_gemm=1, dtype=np.float64, seed=0):
    A = dense_random(*((k, m) if transa else (m, k)), seed=seed, dtype=dtype)
    B = dense_random(*((n, k) if transb else (k, n)), seed=seed + 1, dtype=dtype)
    a = DistMatrix.from_global(comm, BlockCol1D(A.shape, comm.size), A)
    b = DistMatrix.from_global(comm, BlockCol1D(B.shape, comm.size), B)
    c_dist = c_dist_fn((m, n), comm.size) if c_dist_fn else None
    c = ca3dmm_matmul(
        a, b, c_dist=c_dist, transa=transa, transb=transb,
        grid=grid, shifts_per_gemm=shifts_per_gemm,
    )
    got = c.to_global()
    ref = (A.T if transa else A) @ (B.T if transb else B)
    tol = 1e-10 if np.dtype(dtype).itemsize >= 8 else 1e-3
    np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * max(1.0, np.abs(ref).max()))
    return True


class TestShapes:
    @pytest.mark.parametrize(
        "m,n,k,P",
        [
            (32, 64, 16, 8),   # Example 1 (2D fallback, A replicated)
            (32, 32, 64, 16),  # Example 2 (full 3D)
            (32, 32, 64, 17),  # Example 3 (idle rank)
            (24, 24, 24, 1),   # serial
            (24, 24, 24, 2),
            (7, 5, 3, 4),      # tiny, ragged
            (40, 8, 8, 12),    # large-M class
            (8, 40, 8, 12),    # large-N
            (13, 11, 50, 24),  # large-K class
            (48, 48, 6, 9),    # flat class
            (33, 17, 29, 11),  # prime P with idle
        ],
    )
    def test_correct(self, spmd, m, n, k, P):
        assert all(spmd(P, lambda comm: _check(comm, m, n, k)).results)

    @pytest.mark.parametrize("m,n,k,P", [(1, 1, 64, 4), (64, 1, 16, 6), (1, 64, 16, 6), (16, 16, 1, 9), (1, 1, 1, 3)])
    def test_degenerate(self, spmd, m, n, k, P):
        """Rank-1 updates, matvecs, inner products (the unified view)."""
        assert all(spmd(P, lambda comm: _check(comm, m, n, k)).results)

    def test_more_ranks_than_elements(self, spmd):
        assert all(spmd(12, lambda comm: _check(comm, 2, 3, 2)).results)


class TestTranspose:
    @pytest.mark.parametrize("ta,tb", [(True, False), (False, True), (True, True)])
    def test_op_modes(self, spmd, ta, tb):
        assert all(
            spmd(8, lambda comm: _check(comm, 24, 20, 28, transa=ta, transb=tb)).results
        )

    def test_transpose_rectangular(self, spmd):
        assert all(
            spmd(6, lambda comm: _check(comm, 40, 8, 12, transa=True)).results
        )


class TestOutputLayouts:
    @pytest.mark.parametrize(
        "mk",
        [
            lambda s, P: BlockRow1D(s, P),
            lambda s, P: BlockCol1D(s, P),
            lambda s, P: Block2D(s, P, 2, 3),
            lambda s, P: BlockCyclic2D(s, P, 2, 3, bs=4),
        ],
    )
    def test_c_dist_conversion(self, spmd, mk):
        assert all(spmd(6, lambda comm: _check(comm, 18, 24, 30, c_dist_fn=mk)).results)

    def test_native_output_layout_matches_plan(self, spmd):
        def f(comm):
            from repro.core.plan import Ca3dmmPlan

            a = DistMatrix.random(comm, BlockCol1D((16, 24), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((24, 20), comm.size), seed=1)
            c = ca3dmm_matmul(a, b)
            plan = Ca3dmmPlan(16, 20, 24, comm.size)
            return c.owned_rects == plan.c_dist.owned_rects(comm.rank)

        assert all(spmd(8, f).results)


class TestOptions:
    @pytest.mark.parametrize("g", [2, 4])
    def test_shifts_per_gemm(self, spmd, g):
        assert all(
            spmd(9, lambda comm: _check(comm, 21, 24, 27, shifts_per_gemm=g)).results
        )

    def test_forced_grid(self, spmd):
        grid = GridSpec(pm=1, pn=1, pk=8, nprocs=8)
        assert all(
            spmd(8, lambda comm: _check(comm, 12, 12, 64, grid=grid)).results
        )

    def test_forced_1d_n_grid(self, spmd):
        grid = GridSpec(pm=1, pn=8, pk=1, nprocs=8)
        assert all(
            spmd(8, lambda comm: _check(comm, 12, 64, 12, grid=grid)).results
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    def test_dtypes(self, spmd, dtype):
        assert all(spmd(6, lambda comm: _check(comm, 14, 18, 22, dtype=dtype)).results)

    def test_mixed_dtypes_promote(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=0, dtype=np.float32)
            b = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=1, dtype=np.float64)
            c = ca3dmm_matmul(a, b)
            return c.dtype == np.float64 if c.tiles else True

        assert all(spmd(4, f).results)

    def test_dim_mismatch_rejected(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((8, 9), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((10, 8), comm.size), seed=1)
            with pytest.raises(ValueError):
                ca3dmm_matmul(a, b)

        spmd(2, f)


class TestEngineReuse:
    def test_repeated_multiplies_share_plan(self, spmd):
        """The Ca3dmm engine is reusable — the repeated-GEMM application
        pattern (density purification) the paper targets."""

        def f(comm):
            m = n = k = 20
            eng = Ca3dmm(comm, m, n, k)
            oks = []
            for seed in range(3):
                A = dense_random(m, k, seed)
                B = dense_random(k, n, seed + 10)
                a = DistMatrix.from_global(comm, BlockRow1D((m, k), comm.size), A)
                b = DistMatrix.from_global(comm, BlockRow1D((k, n), comm.size), B)
                c = eng.multiply(a, b)
                oks.append(np.allclose(c.to_global(), A @ B, atol=1e-10))
            return all(oks)

        assert all(spmd(6, f).results)

    def test_engine_validates_input_shapes(self, spmd):
        def f(comm):
            eng = Ca3dmm(comm, 8, 8, 8)
            a = DistMatrix.random(comm, BlockRow1D((8, 9), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockRow1D((8, 8), comm.size), seed=1)
            with pytest.raises(ValueError):
                eng.multiply(a, b)

        spmd(2, f)

    def test_chained_multiplication(self, spmd):
        """(A @ B) @ B reusing the native output as the next input."""

        def f(comm):
            A = dense_random(12, 12, 0)
            B = dense_random(12, 12, 1)
            a = DistMatrix.from_global(comm, BlockRow1D((12, 12), comm.size), A)
            b = DistMatrix.from_global(comm, BlockRow1D((12, 12), comm.size), B)
            ab = ca3dmm_matmul(a, b)
            abb = ca3dmm_matmul(ab, b)
            return np.allclose(abb.to_global(), A @ B @ B, atol=1e-9)

        assert all(spmd(8, f).results)


class TestPartialLifetime:
    """Step 7 consumes the ``pk``-way partial C block: none is alive once
    the last rank starts step 8's conversion to the caller's layout."""

    @pytest.mark.parametrize("abft", [None, True], ids=["plain", "abft"])
    @pytest.mark.parametrize(
        "grid", [GridSpec(2, 4, 2, 16), GridSpec(2, 2, 2, 9), GridSpec(1, 1, 4, 4)], ids=str
    )
    def test_no_partial_outlives_the_reduce(self, grid, abft, spmd, monkeypatch):
        reduce, leave = engine_module.reduce_partial_c, engine_module.leave
        partials, alive_at_leave = [], []

        def reduce_spy(kred_comm, c_loc, *args, **kwargs):
            partials.append(weakref.ref(c_loc))
            return reduce(kred_comm, c_loc, *args, **kwargs)

        def leave_spy(*args, **kwargs):
            alive_at_leave.append(sum(ref() is not None for ref in partials))
            return leave(*args, **kwargs)

        monkeypatch.setattr(engine_module, "reduce_partial_c", reduce_spy)
        monkeypatch.setattr(engine_module, "leave", leave_spy)
        A, B = dense_random(24, 40, 0), dense_random(40, 20, 1)

        def f(comm):
            a = DistMatrix.from_global(comm, BlockCol1D(A.shape, comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D(B.shape, comm.size), B)
            return Ca3dmm(comm, 24, 20, 40, grid=grid, abft=abft).multiply(a, b).to_global()

        res = spmd(grid.nprocs, f)
        np.testing.assert_allclose(res.results[0], A @ B, rtol=1e-12, atol=1e-12)
        assert len(partials) == grid.used and len(alive_at_leave) == grid.nprocs
        assert alive_at_leave[-1] == 0, alive_at_leave
