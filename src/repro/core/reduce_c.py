"""Combining partial C results across k-task groups (Algorithm 1, step 7).

After Cannon's algorithm, the ``pk`` ranks at the same ``(i, j)`` grid
position each hold a partial result of the same C block (their k-group's
rank-``(k/pk)`` update).  A reduce-scatter sums them and leaves each rank
with one of ``pk`` strips of the final block — column strips when the
block is at least as wide as tall, row strips otherwise (Example 2 of
the paper: a square 16x16 block becomes four 16x4 column strips).

Cost per rank (paper Section III-D): ``α(pk-1) + β·|blk|·(pk-1)/pk`` —
the pairwise-exchange reduce-scatter formula.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..layout.blocks import block_range
from ..mpi.comm import Comm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ft.abft import AbftGuard


def split_block(c_loc: np.ndarray, parts: int, by_cols: bool) -> list[np.ndarray]:
    """Split a partial C block into the ``parts`` reduce-scatter strips.

    The strips must round-trip: consecutive half-open ranges that tile
    ``[0, extent)`` exactly.  Empty strips are fine (``parts`` may exceed
    the extent — a k-replication factor larger than a thin block), but a
    gap or overlap would silently corrupt the reduce-scatter, so the
    tiling is validated here.
    """
    if parts < 1:
        raise ValueError(f"split_block needs parts >= 1, got {parts}")
    out = []
    extent = c_loc.shape[1] if by_cols else c_loc.shape[0]
    prev_hi = 0
    for r in range(parts):
        lo, hi = block_range(extent, parts, r)
        if lo != prev_hi or hi < lo or hi > extent:
            raise ValueError(
                f"strips do not tile extent {extent} into {parts} parts: "
                f"part {r} is [{lo}, {hi}) but [0, {prev_hi}) is covered"
            )
        prev_hi = hi
        out.append(c_loc[:, lo:hi] if by_cols else c_loc[lo:hi, :])
    if prev_hi != extent:
        raise ValueError(
            f"strips cover only [0, {prev_hi}) of extent {extent} "
            f"({parts} parts)"
        )
    return out


def reduce_over_k(
    kcomm: Comm, c_part: np.ndarray, by_cols: bool | None = None
) -> np.ndarray:
    """Step 7 for any schedule: sum the ``pk`` partial blocks of one C
    block over its k-fiber and keep strip ``kcomm.rank`` — column strips
    when the block is at least as wide as tall, row strips otherwise
    (``by_cols`` overrides the rule for a block that carries a checksum
    border and must be split like the body it borders)."""
    if kcomm.size == 1:
        return c_part
    if by_cols is None:
        by_cols = c_part.shape[1] >= c_part.shape[0]
    return kcomm.reduce_scatter(split_block(c_part, kcomm.size, by_cols))


def reduce_scratch(kcomm: Comm, c_part: np.ndarray, by_cols: bool):
    """The ``reduce.scratch`` memtrace span of CA3DMM's step 7: the
    pairwise exchange accumulates into a private copy of this rank's
    strip, and that copy is what the span charges."""
    mine = split_block(c_part, kcomm.size, by_cols)[kcomm.rank]
    return kcomm.mem("reduce.scratch", mine.nbytes)


def reduce_partial_c(
    kred_comm: Comm,
    c_loc: np.ndarray,
    by_cols: bool,
    abft: "AbftGuard | None" = None,
) -> np.ndarray:
    """Reduce-scatter this rank's partial C block; return its final strip.

    ``kred_comm`` orders its ``pk`` members by k-group index, so rank
    ``ik`` receives strip ``ik`` — matching
    :meth:`~repro.core.plan.Ca3dmmPlan.c_owned`.  This is
    :func:`reduce_over_k` inside the engine's :func:`reduce_scratch` span.

    With an :class:`~repro.ft.abft.AbftGuard`, ``c_loc`` is the verified
    checksum-bordered Cannon result and the guard reduces it
    (:meth:`~repro.ft.abft.AbftGuard.reduce`): one border rides through
    the same exchange and every reduced strip is re-verified on arrival.
    """
    if abft is not None:
        return abft.reduce(kred_comm, c_loc, by_cols)
    if kred_comm.size == 1:
        return c_loc
    with reduce_scratch(kred_comm, c_loc, by_cols):
        return reduce_over_k(kred_comm, c_loc, by_cols)
