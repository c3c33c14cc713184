"""1D matrix-multiplication algorithms (paper Section II).

1D algorithms partition a single dimension:

* ``m``-partition — every rank owns a row band of A and computes the
  matching row band of C; B is **replicated** (assembled with one
  allgather from its 1D-distributed storage).
* ``n``-partition — symmetric: column bands of B and C; A replicated.
* ``k``-partition — every rank owns a column band of A and a row band
  of B, computes a full-size partial C, and a **reduce-scatter** sums
  and distributes the result.

These are the algorithms tall-and-skinny multiplications actually use,
and the cases CA3DMM's unified view degenerates to when the optimal
grid has two unit dimensions (e.g. ``1 x 1 x P`` for an inner product).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.reduce_c import freeze_partial, split_block
from ..core.steps import NativeDists, enter, leave, problem_dims
from ..layout.distributions import BlockCol1D, BlockRow1D, Distribution
from ..layout.matrix import DistMatrix
from ..mpi.datatypes import freeze


@lru_cache(maxsize=64)
def _native_dists(split: str, m: int, n: int, k: int, nranks: int) -> NativeDists:
    """Native layouts of the 1D algorithm partitioning ``split``: bands of
    the partitioned dimension, the other operand banded so one allgather
    (or, for 'k', one reduce-scatter) finishes the job."""
    row, col = BlockRow1D, BlockCol1D
    a, b, c = {"m": (row, row, row), "n": (col, col, col), "k": (col, row, row)}[split]
    return a((m, k), nranks), b((k, n), nranks), c((m, n), nranks)


def matmul_1d_m(a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None) -> DistMatrix:
    """1D algorithm partitioning the m-dimension (B replicated)."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    native = _native_dists("m", m, n, k, comm.size)
    a_loc, b_loc = enter(a, b, native)
    with comm.phase("replicate"):
        # enter() allocated the band and nobody writes it: frozen, no hop copies it.
        b_full = np.concatenate(comm.allgather(freeze(b_loc)), axis=0)
    with comm.phase("compute"):
        comm.gemm_tick(a_loc.shape[0], n, k)
        c_loc = a_loc @ b_full
    return leave(comm, native[2], c_loc, c_dist)


def matmul_1d_n(a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None) -> DistMatrix:
    """1D algorithm partitioning the n-dimension (A replicated)."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    native = _native_dists("n", m, n, k, comm.size)
    a_loc, b_loc = enter(a, b, native)
    with comm.phase("replicate"):
        a_full = np.concatenate(comm.allgather(freeze(a_loc)), axis=1)
    with comm.phase("compute"):
        comm.gemm_tick(m, b_loc.shape[1], k)
        c_loc = a_full @ b_loc
    return leave(comm, native[2], c_loc, c_dist)


def matmul_1d_k(a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None) -> DistMatrix:
    """1D algorithm partitioning the k-dimension (C reduce-scattered)."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    native = _native_dists("k", m, n, k, comm.size)
    a_loc, b_loc = enter(a, b, native)
    with comm.phase("compute"):
        comm.gemm_tick(m, n, a_loc.shape[1])
        c_part = a_loc @ b_loc if a_loc.shape[1] else np.zeros((m, n), a_loc.dtype)
    with comm.phase("reduce"):
        c_part = freeze_partial(comm, c_part)
        c_loc = comm.reduce_scatter(split_block(c_part, comm.size, by_cols=False))
    return leave(comm, native[2], c_loc, c_dist)


def matmul_1d(
    a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None
) -> DistMatrix:
    """Pick the 1D variant by the largest dimension (the usual heuristic)."""
    m, n, k = problem_dims(a, b)
    if m >= max(n, k):
        return matmul_1d_m(a, b, c_dist)
    if n >= k:
        return matmul_1d_n(a, b, c_dist)
    return matmul_1d_k(a, b, c_dist)
