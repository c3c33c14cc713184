"""Right-looking blocked Cholesky factorization.

The paper's **flat** problem class "comes from the trailing matrix
update in matrix factorization algorithms, for example, LU, Cholesky,
and Householder QR" (Section IV-A).  This driver is that algorithm:

for each block column ``j`` of width ``b``:

1. factor the ``b x b`` diagonal block locally (it is tiny and
   replicated, like the R factors in CholeskyQR),
2. form the panel ``L_{:,j} = A_{:,j} L_jj^{-T}`` — a tall-times-small
   PGEMM (large-M shape),
3. **trailing update** ``A_{j+1:, j+1:} -= L_{panel} L_{panel}^T`` — the
   flat-class PGEMM, executed through CA3DMM's full GEMM semantics
   (``alpha=-1, beta=1``).

The matrix is kept in a 2D block layout between steps; panels move
through the ordinary redistribution machinery.  This is deliberately a
*simple* blocked Cholesky (no look-ahead, local panel math) — the point
is exercising the flat-class PGEMM exactly the way factorizations do.
"""

from __future__ import annotations

import numpy as np

from ..core.ca3dmm import Ca3dmm
from ..layout.blocks import Rect
from ..layout.distributions import BlockCol1D, BlockRow1D, Explicit
from ..layout.matrix import DistMatrix
from ..layout.redistribute import redistribute


def _full_on_all(mat: DistMatrix) -> np.ndarray:
    """Gather a (small) distributed matrix everywhere."""
    return mat.to_global()


def block_cholesky(
    a: DistMatrix,
    block: int = 8,
) -> DistMatrix:
    """Factor a symmetric positive-definite ``A = L Lᵀ``.

    ``a`` may use any distribution; the returned L is row-band
    (``BlockRow1D``) distributed with zeros above the diagonal.
    """
    n, n2 = a.shape
    if n != n2:
        raise ValueError("Cholesky needs a square matrix")
    if block < 1:
        raise ValueError("block width must be >= 1")
    comm = a.comm

    work = redistribute(a, BlockRow1D((n, n), comm.size))
    l_out = DistMatrix.zeros(comm, BlockRow1D((n, n), comm.size), dtype=a.dtype)

    j = 0
    while j < n:
        b = min(block, n - j)
        j1 = j + b

        # The current panel A[j:, j:j1] as a (small-width) column band,
        # replicated via gather: width b is small by construction.
        panel_dist = BlockCol1D((n, b), comm.size)
        panel = DistMatrix(
            comm,
            _column_slice_dist(n, j, b, comm.size),
            _column_slice_tiles(work, j, b),
            dtype=work.dtype,
        )
        panel_global = _full_on_all(redistribute(panel, panel_dist))[j:, :]

        # (1) local factorization of the b x b diagonal block.
        ljj = np.linalg.cholesky(panel_global[:b, :b])
        # (2) panel solve: rows below the diagonal.
        lpanel_below = _solve_lower_t(panel_global[b:, :], ljj)
        lpanel = np.vstack([ljj, lpanel_below])

        _write_column_block(l_out, lpanel, j, b)

        if j1 < n:
            # (3) trailing update: A[j1:, j1:] -= L_below L_belowᵀ.
            rest = n - j1
            lp = DistMatrix.from_global(
                comm, BlockRow1D((rest, b), comm.size), lpanel_below
            )
            eng = Ca3dmm(comm, rest, rest, b)
            trail = _extract_trailing(work, j1)
            updated = eng.multiply(
                lp, lp, transb="T", alpha=-1.0, beta=1.0, c_in=trail,
                c_dist=BlockRow1D((rest, rest), comm.size),
            )
            _write_trailing(work, updated, j1)
        j = j1
    return l_out


def _column_slice_dist(n: int, j: int, b: int, nranks: int) -> Explicit:
    """Row-band layout of the width-b panel, in (n, b) coordinates."""
    from ..layout.blocks import block_range

    mapping = {}
    for r in range(nranks):
        lo, hi = block_range(n, nranks, r)
        if hi > lo:
            mapping[r] = [Rect(lo, hi, 0, b)]
    return Explicit.from_mapping((n, b), nranks, mapping)


def _column_slice_tiles(work: DistMatrix, j: int, b: int) -> list[np.ndarray]:
    return [
        np.ascontiguousarray(tile[:, j : j + b]) for tile in work.tiles
    ]


def _solve_lower_t(rows: np.ndarray, ljj: np.ndarray) -> np.ndarray:
    """Solve ``X L^T = rows`` for X with lower-triangular L (local)."""
    # X = rows @ inv(L^T); triangular solve via numpy (small b).
    return np.linalg.solve(ljj, rows.T).T


def _write_column_block(l_out: DistMatrix, lpanel: np.ndarray, j: int, b: int) -> None:
    """Scatter the factored panel (rows j:) into the row-band L."""
    for rect, tile in zip(l_out.owned_rects, l_out.tiles):
        lo = max(rect.r0, j)
        hi = rect.r1
        if hi > lo:
            tile[lo - rect.r0 : hi - rect.r0, j : j + b] = lpanel[lo - j : hi - j, :]


def _extract_trailing(work: DistMatrix, j1: int) -> DistMatrix:
    """The trailing submatrix A[j1:, j1:] as its own row-band matrix."""
    comm = work.comm
    n = work.shape[0]
    rest = n - j1
    full = None
    # Build from the row-band tiles: each rank contributes the rows it
    # owns below j1; redistribute to the canonical row-band of size rest.
    from ..layout.blocks import block_range

    mapping = {}
    tiles = []
    for rect, tile in zip(work.owned_rects, work.tiles):
        lo = max(rect.r0, j1)
        if rect.r1 > lo:
            mapping.setdefault(comm.rank, []).append(
                Rect(lo - j1, rect.r1 - j1, 0, rest)
            )
            tiles.append(np.ascontiguousarray(tile[lo - rect.r0 :, j1:]))
    all_maps = comm.allgather((comm.rank, mapping.get(comm.rank, [])))
    dist = Explicit.from_mapping(
        (rest, rest), comm.size, {r: rects for r, rects in all_maps if rects}
    )
    src = DistMatrix(comm, dist, tiles, dtype=work.dtype)
    del full
    return redistribute(src, BlockRow1D((rest, rest), comm.size))


def _write_trailing(work: DistMatrix, updated: DistMatrix, j1: int) -> None:
    """Write the updated trailing matrix back into the row-band work."""
    n = work.shape[0]
    rest = n - j1
    # updated is BlockRow1D((rest, rest)); work rows r own updated rows
    # r - j1.  Redistribute updated into each rank's needed slice.
    comm = work.comm
    mapping = {}
    for r in range(comm.size):
        rects = work.dist.owned_rects(r)
        need = []
        for rect in rects:
            lo = max(rect.r0, j1)
            if rect.r1 > lo:
                need.append(Rect(lo - j1, rect.r1 - j1, 0, rest))
        if need:
            mapping[r] = need
    target = Explicit.from_mapping((rest, rest), comm.size, mapping)
    mine = redistribute(updated, target)
    idx = 0
    for rect, tile in zip(work.owned_rects, work.tiles):
        lo = max(rect.r0, j1)
        if rect.r1 > lo:
            tile[lo - rect.r0 :, j1:] = mine.tiles[idx]
            idx += 1
