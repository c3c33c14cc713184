"""BLAS op codes 'N'/'T'/'C' including conjugate transpose for complex."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ca3dmm_matmul
from repro.core.steps import norm_op
from repro.layout import BlockCol1D, DistMatrix, dense_random


class TestNormOp:
    def test_codes(self):
        assert norm_op("N") == (False, False)
        assert norm_op("n") == (False, False)
        assert norm_op("T") == (True, False)
        assert norm_op("C") == (True, True)
        assert norm_op(False) == (False, False)
        assert norm_op(True) == (True, False)

    def test_invalid(self):
        with pytest.raises(ValueError):
            norm_op("X")


def _run(spmd, transa, transb, dtype=np.complex128):
    m, n, k = 14, 12, 18
    a_shape = (k, m) if transa in ("T", "C", True) else (m, k)
    b_shape = (n, k) if transb in ("T", "C", True) else (k, n)

    def opmat(mat, code):
        if code in ("T", True):
            return mat.T
        if code == "C":
            return mat.conj().T
        return mat

    def f(comm):
        a_mat = dense_random(*a_shape, seed=1, dtype=dtype)
        b_mat = dense_random(*b_shape, seed=2, dtype=dtype)
        a = DistMatrix.from_global(comm, BlockCol1D(a_shape, comm.size), a_mat)
        b = DistMatrix.from_global(comm, BlockCol1D(b_shape, comm.size), b_mat)
        c = ca3dmm_matmul(a, b, transa=transa, transb=transb)
        ref = opmat(a_mat, transa) @ opmat(b_mat, transb)
        return bool(np.allclose(c.to_global(), ref, atol=1e-10))

    assert all(spmd(6, f).results)


class TestComplexOps:
    @pytest.mark.parametrize("ta", ["N", "T", "C"])
    @pytest.mark.parametrize("tb", ["N", "T", "C"])
    def test_all_op_pairs(self, spmd, ta, tb):
        _run(spmd, ta, tb)

    def test_c_differs_from_t_for_complex(self, spmd):
        """Conjugation must actually change the result for complex data."""

        def f(comm):
            a_mat = dense_random(10, 8, 1, dtype=np.complex128)
            b_mat = dense_random(10, 6, 2, dtype=np.complex128)
            a = DistMatrix.from_global(comm, BlockCol1D((10, 8), comm.size), a_mat)
            b = DistMatrix.from_global(comm, BlockCol1D((10, 6), comm.size), b_mat)
            ct = ca3dmm_matmul(a, b, transa="T").to_global()
            cc = ca3dmm_matmul(a, b, transa="C").to_global()
            return (
                np.allclose(ct, a_mat.T @ b_mat, atol=1e-10)
                and np.allclose(cc, a_mat.conj().T @ b_mat, atol=1e-10)
                and not np.allclose(ct, cc)
            )

        assert all(spmd(4, f).results)

    def test_c_equals_t_for_real(self, spmd):
        def f(comm):
            a = DistMatrix.random(comm, BlockCol1D((9, 7), comm.size), seed=1)
            b = DistMatrix.random(comm, BlockCol1D((9, 5), comm.size), seed=2)
            ct = ca3dmm_matmul(a, b, transa="T").to_global()
            cc = ca3dmm_matmul(a, b, transa="C").to_global()
            return np.allclose(ct, cc)

        assert all(spmd(4, f).results)

    def test_hermitian_gram(self, spmd):
        """AᴴA is Hermitian positive semidefinite — the complex
        CholeskyQR building block."""

        def f(comm):
            a_mat = dense_random(24, 5, 3, dtype=np.complex128)
            a = DistMatrix.from_global(comm, BlockCol1D((24, 5), comm.size), a_mat)
            g = ca3dmm_matmul(a, a, transa="C").to_global()
            herm = np.allclose(g, g.conj().T, atol=1e-12)
            psd = np.linalg.eigvalsh((g + g.conj().T) / 2).min() > -1e-10
            return herm and psd

        assert all(spmd(4, f).results)
