"""Stationary-A and stationary-B SUMMA variants.

van de Geijn & Watts' SUMMA family has three members, named for the
operand that never moves:

* **stationary-C** (`repro.baselines.summa`) — A and B panels broadcast,
  C accumulates in place; best when C is the largest operand
  (the paper's *flat* class — trailing updates);
* **stationary-A** — B panels stream through the grid and partial C
  panels are *reduced* back to their owners; A never moves.  Best when
  A dominates (m·k >> k·n, m·n);
* **stationary-B** — the mirror image; best when B dominates.

Per n-panel of width b, stationary-A performs:

1. *repartition*: the grid column owning the panel re-splits it from
   B's row partition (over pr) to A's column partition (over pc) — a
   small alltoall inside that column;
2. *route + broadcast*: piece j travels to grid column j and is
   broadcast down it;
3. local GEMM ``A_loc @ piece`` on every rank;
4. *reduce*: the row communicator sums the partial C panel onto the
   owner column.

Stationary-B is obtained by transposition of the whole schedule:
``C = A·B  <=>  Cᵀ = Bᵀ·Aᵀ`` with A and B swapping the moving role, so
it is implemented literally that way (operands transposed through the
redistribution machinery, stationary-A applied, result transposed
back) — one code path, two variants.
"""

from __future__ import annotations

import numpy as np

from ..core.steps import block2d_native_dists, enter, leave, problem_dims
from ..core.summa import DEFAULT_PANEL, panel_ranges
from ..layout.blocks import block_owner, block_range
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..layout.redistribute import redistribute
from ..mpi.datatypes import INTERNAL_TAG_BASE, freeze
from ..mpi.topology import Cart2D
from .summa import summa_grid

_TAG_ROUTE = INTERNAL_TAG_BASE + 501


def summa_stationary_a_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    grid: tuple[int, int] | None = None,
    panel: int = DEFAULT_PANEL,
) -> DistMatrix:
    """``C = A x B`` with A stationary on a ``pr x pc`` grid."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    pr, pc = summa_grid(comm.size, grid)
    native = block2d_native_dists(m, n, k, pr, pc, comm.size)
    a_loc, b_loc = enter(a, b, native)
    cart = Cart2D(comm, pr, pc)
    i, j = cart.row, cart.col
    row, col = cart.row_col_comms()  # pc ranks by grid column, pr by grid row

    bk = block_range(k, pr, i)  # my B block's k-range (pr split)
    nn = block_range(n, pc, j)

    out_dtype = np.promote_types(a.dtype, b.dtype)
    c_loc = np.zeros((a_loc.shape[0], b_loc.shape[1]), dtype=out_dtype)
    # Every block below is this rank's and nobody writes it once made: B's
    # block (enter() allocated it), the send buffers cut from it, the
    # routed pieces and the partial panels each travel frozen, uncopied.
    freeze(b_loc)

    with comm.phase("summa"):
        # Panels refine B's column partition (over pc) so each panel has
        # a unique owner column; they also refine nothing else.
        for lo, hi in panel_ranges(n, 1, pc, panel):
            if hi <= lo:
                continue
            jc = block_owner(n, pc, lo)  # owner grid column of this panel
            width = hi - lo

            # (1) repartition inside the owner column: each of its pr
            # ranks holds rows bk of the panel; alltoall re-splits the
            # rows by the pc partition.
            pieces: list[np.ndarray | None] = [None] * pc
            if j == jc:
                my_panel = b_loc[:, lo - nn[0] : hi - nn[0]]
                sendbufs = []
                for jj in range(pc):
                    t0, t1 = block_range(k, pc, jj)
                    lo_r = max(bk[0], t0)
                    hi_r = min(bk[1], t1)
                    if hi_r > lo_r:
                        cut = np.ascontiguousarray(my_panel[lo_r - bk[0] : hi_r - bk[0], :])
                    else:
                        cut = np.zeros((0, width), dtype=my_panel.dtype)
                    sendbufs.append((lo_r, freeze(cut)))
                # column-comm alltoall would re-split among pr ranks; we
                # need pc pieces, so route directly: rank (σ(jj), jc)
                # assembles piece jj, where σ(jj) = jj % pr round-robins
                # the assembly work over the column.
                gathered = col.allgather(sendbufs)
                for jj in range(pc):
                    if jj % pr == i:
                        t0, t1 = block_range(k, pc, jj)
                        buf = np.zeros((t1 - t0, width), dtype=b_loc.dtype)
                        for contrib in gathered:
                            lo_r, data = contrib[jj]
                            if data.shape[0]:
                                buf[lo_r - t0 : lo_r - t0 + data.shape[0], :] = data
                        pieces[jj] = freeze(buf)

            # (2) route piece jj from (jj % pr, jc) to (jj % pr, jj),
            # then broadcast it down grid column jj.
            my_piece: np.ndarray | None = None
            src_row = j % pr
            if j == jc and (j % pr) == i:
                my_piece = pieces[j]  # already home
            # senders: ranks in column jc holding pieces for other columns
            if j == jc:
                for jj in range(pc):
                    if jj % pr == i and jj != jc:
                        comm.send(pieces[jj], cart.rank_of(jj % pr, jj), _TAG_ROUTE)
            if j != jc and (j % pr) == i:
                my_piece = comm.recv(
                    source=cart.rank_of(j % pr, jc), tag=_TAG_ROUTE
                )
            my_piece = col.bcast(my_piece, root=src_row)

            # (3) local GEMM: contribution to C(m_i, panel).
            comm.gemm_tick(a_loc.shape[0], width, a_loc.shape[1])
            contrib = (
                a_loc @ my_piece
                if a_loc.shape[1]
                else np.zeros((a_loc.shape[0], width), dtype=out_dtype)
            )

            # (4) reduce the partial panel onto the owner column.
            summed = row.reduce(freeze(contrib), root=jc)
            if j == jc and summed is not None:
                c_loc[:, lo - nn[0] : hi - nn[0]] += summed.astype(out_dtype, copy=False)

    return leave(comm, native[2], c_loc, c_dist)


def summa_stationary_b_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    grid: tuple[int, int] | None = None,
    panel: int = DEFAULT_PANEL,
) -> DistMatrix:
    """``C = A x B`` with B stationary: ``Cᵀ = Bᵀ Aᵀ`` under stationary-A."""
    m, n, k = problem_dims(a, b)
    nranks = a.comm.size
    pr, pc = summa_grid(nranks, grid)
    # Transpose the whole problem through the redistribution machinery.
    bt_dist, at_dist, _ = block2d_native_dists(n, m, k, pr, pc, nranks)
    bt = redistribute(b, bt_dist, transpose=True, phase="redist")
    at = redistribute(a, at_dist, transpose=True, phase="redist")
    ct = summa_stationary_a_matmul(bt, at, grid=(pr, pc), panel=panel)
    if c_dist is None:
        c_dist = block2d_native_dists(m, n, k, pr, pc, nranks)[2]
    return redistribute(ct, c_dist, transpose=True, phase="redist")
