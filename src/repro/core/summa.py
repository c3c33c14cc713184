"""SUMMA on an existing ``pr x pc`` grid — CA3DMM-S's 2D kernel.

The k-dimension is walked in panels of width ``<= b``; each panel's A
strip is broadcast along grid rows while its B strip is broadcast along
grid columns, followed by a local GEMM accumulate.  Panels are the
common refinement of A's column partition (over ``pc``) and B's row
partition (over ``pr``) chopped to the panel width, so each panel has a
unique owner column and owner row even on ragged grids.

A kernel like :func:`~repro.core.cannon.cannon_multiply`, not a schedule:
CA3DMM-S runs it in every k-task group (Section III-E / Section V),
:func:`~repro.baselines.summa.summa_matmul` over the whole world.
"""

from __future__ import annotations

import numpy as np

from ..layout.blocks import block_owner, block_range
from ..mpi.topology import Cart2D

#: Default maximum panel width (elements of k per broadcast round).
DEFAULT_PANEL = 256


def panel_ranges(k: int, pr: int, pc: int, b: int) -> list[tuple[int, int]]:
    """k-panels: refinement of the pr- and pc-splits, chopped to width b."""
    cuts = {0, k}
    for r in range(pr):
        cuts.add(block_range(k, pr, r)[0])
    for c in range(pc):
        cuts.add(block_range(k, pc, c)[0])
    edges = sorted(cuts)
    out: list[tuple[int, int]] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        start = lo
        while start < hi:
            stop = min(start + b, hi)
            out.append((start, stop))
            start = stop
    return out


def summa_on_grid(
    cart: Cart2D,
    a_loc: np.ndarray,
    b_loc: np.ndarray,
    m: int,
    n: int,
    k: int,
    panel: int = DEFAULT_PANEL,
) -> np.ndarray:
    """Run SUMMA on an existing grid; returns this rank's C block.

    ``a_loc`` is the ``(m_i, k_j)`` block of A at grid position
    ``(i, j)``; ``b_loc`` the ``(k_i, n_j)`` block of B.  The result is
    the ``(m_i, n_j)`` block of C.

    Each panel's A/B strips are broadcast as nonblocking collectives
    (``ibcast``).  When the machine's async comm engine is on
    (``machine.overlap != "none"``) panel ``p + 1``'s broadcasts are
    posted before panel ``p``'s GEMM — a pipelined multicast whose
    transfer time hides under the running compute.  With the engine off
    they are posted after it, the synchronous schedule: a request is
    then pre-completed and charges exactly like the blocking broadcast
    it wraps.
    """
    comm = cart.comm
    pr, pc = cart.nrows, cart.ncols
    i, j = cart.row, cart.col
    row = cart.row_comm()
    col = cart.col_comm()

    m0, m1 = block_range(m, pr, i)
    n0, n1 = block_range(n, pc, j)
    ak0, _ = block_range(k, pc, j)  # my A block's k-offset
    bk0, _ = block_range(k, pr, i)  # my B block's k-offset

    out_dtype = np.promote_types(a_loc.dtype, b_loc.dtype)
    c_loc = np.zeros((m1 - m0, n1 - n0), dtype=out_dtype)

    # Panel 0's broadcasts are an exposed prologue; panel p+1's are posted
    # before panel p's GEMM when the async engine can hide them (``ahead``)
    # and after it otherwise.  Posting *is* the data movement, so the
    # posts are SPMD-ordered on every rank.
    ahead = comm.machine.overlap_enabled
    ranges = [(lo, hi) for lo, hi in panel_ranges(k, pr, pc, panel) if hi > lo]

    def post(lo: int, hi: int):
        a_owner = block_owner(k, pc, lo)  # grid column holding this A panel
        b_owner = block_owner(k, pr, lo)  # grid row holding this B panel
        a_panel = a_loc[:, lo - ak0 : hi - ak0] if j == a_owner else None
        b_panel = b_loc[lo - bk0 : hi - bk0, :] if i == b_owner else None
        # row communicator is ordered by grid column, column communicator
        # by grid row: A's panel goes along rows, B's along columns.
        return row.ibcast(a_panel, root=a_owner), col.ibcast(b_panel, root=b_owner)

    reqs = post(*ranges[0]) if ranges else None
    for idx, (lo, hi) in enumerate(ranges):
        ra, rb = reqs
        a_panel = ra.wait()
        b_panel = rb.wait()
        more = idx + 1 < len(ranges)
        if more and ahead:
            reqs = post(*ranges[idx + 1])
        comm.gemm_tick(c_loc.shape[0], c_loc.shape[1], hi - lo)
        if a_panel.size and b_panel.size:
            np.add(c_loc, a_panel @ b_panel, out=c_loc)
        if more and not ahead:
            reqs = post(*ranges[idx + 1])
    return c_loc
