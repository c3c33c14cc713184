"""Full GEMM semantics: C = alpha * op(A) op(B) + beta * C_in."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import ca3dmm_matmul
from repro.layout import Block2D, BlockCol1D, BlockRow1D, DistMatrix, dense_random
from repro.layout.ops import identity, scale


class TestAlphaBeta:
    def test_alpha_scales(self, spmd):
        def f(comm):
            A, B = dense_random(10, 14, 1), dense_random(14, 12, 2)
            a = DistMatrix.from_global(comm, BlockCol1D((10, 14), comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D((14, 12), comm.size), B)
            c = ca3dmm_matmul(a, b, alpha=-2.5)
            return np.allclose(c.to_global(), -2.5 * (A @ B), atol=1e-10)

        assert all(spmd(6, f).results)

    def test_beta_accumulates(self, spmd):
        def f(comm):
            A, B = dense_random(10, 14, 1), dense_random(14, 12, 2)
            C0 = dense_random(10, 12, 3)
            a = DistMatrix.from_global(comm, BlockCol1D((10, 14), comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D((14, 12), comm.size), B)
            c0 = DistMatrix.from_global(comm, BlockRow1D((10, 12), comm.size), C0)
            c = ca3dmm_matmul(a, b, alpha=1.0, beta=0.5, c_in=c0)
            return np.allclose(c.to_global(), A @ B + 0.5 * C0, atol=1e-10)

        assert all(spmd(6, f).results)

    def test_trailing_update(self, spmd):
        """The flat-class pattern: C <- C - A x B (LU trailing update)."""

        def f(comm):
            A, B = dense_random(16, 4, 1), dense_random(4, 16, 2)
            C0 = dense_random(16, 16, 3)
            a = DistMatrix.from_global(comm, BlockRow1D((16, 4), comm.size), A)
            b = DistMatrix.from_global(comm, BlockRow1D((4, 16), comm.size), B)
            c0 = DistMatrix.from_global(comm, Block2D((16, 16), comm.size, 2, 4), C0)
            c = ca3dmm_matmul(
                a, b, alpha=-1.0, beta=1.0, c_in=c0,
                c_dist=Block2D((16, 16), comm.size, 2, 4),
            )
            return np.allclose(c.to_global(), C0 - A @ B, atol=1e-10)

        assert all(spmd(8, f).results)

    def test_beta_with_transposes(self, spmd):
        def f(comm):
            A, B = dense_random(14, 10, 1), dense_random(12, 14, 2)
            C0 = dense_random(10, 12, 3)
            a = DistMatrix.from_global(comm, BlockCol1D((14, 10), comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D((12, 14), comm.size), B)
            c0 = DistMatrix.from_global(comm, BlockCol1D((10, 12), comm.size), C0)
            c = ca3dmm_matmul(
                a, b, transa=True, transb=True, alpha=2.0, beta=-1.0, c_in=c0
            )
            return np.allclose(c.to_global(), 2 * (A.T @ B.T) - C0, atol=1e-10)

        assert all(spmd(5, f).results)

    def test_beta_requires_c_in(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=1)
            with pytest.raises(ValueError):
                ca3dmm_matmul(a, b, beta=1.0)

        spmd(2, f)

    def test_c_in_shape_validated(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=0)
            b = DistMatrix.random(comm, BlockCol1D((8, 8), comm.size), seed=1)
            c0 = DistMatrix.random(comm, BlockCol1D((8, 9), comm.size), seed=2)
            with pytest.raises(ValueError):
                ca3dmm_matmul(a, b, beta=1.0, c_in=c0)

        spmd(2, f)

    @pytest.mark.parametrize(
        "ab_dtype, c_dtype",
        [(np.float64, np.complex128), (np.float32, np.float64)],
        ids=["real_product_complex_c", "float32_product_float64_c"],
    )
    def test_beta_c_in_promotes_like_numpy(self, spmd, ab_dtype, c_dtype):
        """``beta * C_in`` used to be cast to the product's dtype: a
        complex C_in under real A, B lost its imaginary part (max error
        7.5 on this problem) and a float64 one came back float32."""
        A, B = dense_random(12, 8, 1, ab_dtype), dense_random(8, 10, 2, ab_dtype)
        C0 = dense_random(12, 10, 3, c_dtype)
        ref = 1.5 * (A @ B) + 2.0 * C0

        def f(comm):
            a = DistMatrix.from_global(comm, BlockCol1D((12, 8), comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D((8, 10), comm.size), B)
            c0 = DistMatrix.from_global(comm, BlockRow1D((12, 10), comm.size), C0)
            c = ca3dmm_matmul(a, b, alpha=1.5, beta=2.0, c_in=c0)
            return c.to_global(), {t.dtype for t in c.tiles}

        for got, tile_dtypes in spmd(4, f).results:
            assert tile_dtypes == {ref.dtype}
            np.testing.assert_allclose(got, ref, rtol=1e-5 if ab_dtype is np.float32 else 1e-12)

    def test_idle_ranks_with_accumulation(self, spmd):
        """beta-folding must work when some ranks are idle (P=17-like)."""

        def f(comm):
            A, B = dense_random(12, 12, 1), dense_random(12, 12, 2)
            C0 = dense_random(12, 12, 3)
            a = DistMatrix.from_global(comm, BlockCol1D((12, 12), comm.size), A)
            b = DistMatrix.from_global(comm, BlockCol1D((12, 12), comm.size), B)
            c0 = DistMatrix.from_global(comm, BlockCol1D((12, 12), comm.size), C0)
            c = ca3dmm_matmul(a, b, beta=1.0, c_in=c0)
            return np.allclose(c.to_global(), A @ B + C0, atol=1e-10)

        assert all(spmd(7, f).results)


class TestRanksWithoutTiles:
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.complex128])
    def test_a_world_larger_than_the_matrices_keeps_the_dtype(self, spmd, dtype):
        """A rank holding no tile of an operand used to take it for
        float64: a 1x1x2 complex product on 7 ranks lost its imaginary
        part, a 1x1x1 complex64 one on 8 ranks raised inside Cannon, and
        float32 came back float64."""
        A, B = dense_random(1, 2, 1, dtype), dense_random(2, 1, 2, dtype)

        def f(comm):
            a = DistMatrix.from_global(comm, BlockCol1D((1, 2), comm.size), A)
            b = DistMatrix.from_global(comm, BlockRow1D((2, 1), comm.size), B)
            c = ca3dmm_matmul(a, b)
            return c.owned_rects, c.tiles, c.dtype

        tiles = []
        for rects, mine, seen_dtype in spmd(7, f).results:
            assert seen_dtype == dtype  # also where the rank holds nothing of C
            tiles += mine
        assert len(tiles) == 1 and tiles[0].dtype == dtype
        np.testing.assert_allclose(tiles[0], A @ B, rtol=1e-5)

    def test_scale_keeps_a_complex_matrix_complex_on_every_rank(self, spmd):
        """A rank holding no tile of ``A`` built ``scale(A)`` as float64, so
        its ``to_global()`` came back real (with a ``ComplexWarning``)."""
        A = dense_random(1, 2, 3, np.complex128)

        def f(comm):
            a = DistMatrix.from_global(comm, BlockCol1D((1, 2), comm.size), A)
            return len(a.tiles), scale(a, 2.0).to_global()

        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            results = spmd(4, f).results
        assert sorted(n for n, _got in results) == [0, 0, 1, 1]
        for _n, got in results:
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, 2.0 * A)

    def test_identity_has_its_dtype_on_ranks_without_a_tile(self, spmd):
        def f(comm):
            return identity(comm, BlockCol1D((1, 1), comm.size), dtype=np.complex128).dtype

        assert spmd(4, f).results == [np.complex128] * 4
