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
from ..mpi.datatypes import MAX

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


def reduce_over_k(kcomm: Comm, c_part: np.ndarray) -> np.ndarray:
    """Step 7 for any schedule: sum the ``pk`` partial blocks of one C
    block over its k-fiber and keep strip ``kcomm.rank`` — column strips
    when the block is at least as wide as tall, row strips otherwise."""
    if kcomm.size == 1:
        return c_part
    by_cols = c_part.shape[1] >= c_part.shape[0]
    return kcomm.reduce_scatter(split_block(c_part, kcomm.size, by_cols))


def reduce_partial_c(
    kred_comm: Comm,
    c_loc: np.ndarray,
    by_cols: bool,
    abft: "AbftGuard | None" = None,
    *,
    pre_verified: bool = False,
) -> np.ndarray:
    """Reduce-scatter this rank's partial C block; return its final strip.

    ``kred_comm`` orders its ``pk`` members by k-group index, so rank
    ``ik`` receives strip ``ik`` — matching
    :meth:`~repro.core.plan.Ca3dmmPlan.c_owned`.

    With an :class:`~repro.ft.abft.AbftGuard`, ``c_loc`` is the
    checksum-bordered Cannon result: it is verified — and the Cannon
    stage recomputed if corrupted — and then *one* checksum border is
    carried through the reduce-scatter (the checksum row when splitting
    by columns, the checksum column when splitting by rows; the other
    border would land on a single member and is dropped).  Because the
    reduction is linear, a clean reduced strip's border still matches
    its body, so each rank re-verifies its strip after the exchange —
    catching corruption injected into the reduce-scatter wire traffic
    itself — and a detection vote over ``kred_comm`` sends the whole
    group back into the exchange from their retained clean strips,
    bounded by ``AbftPolicy.max_recomputes``.
    """
    if abft is None:
        if kred_comm.size == 1:
            return c_loc
        strips = split_block(c_loc, kred_comm.size, by_cols)
        # The pairwise exchange accumulates into a private copy of this
        # rank's strip; charge that accumulator to the reduce.scratch
        # span.
        with kred_comm.mem("reduce.scratch", strips[kred_comm.rank].nbytes):
            return kred_comm.reduce_scatter(strips)

    from ..ft.abft import strip_checksum_errors
    from ..ft.errors import CorruptionError

    # ``pre_verified`` lets the engine verify the Cannon result itself
    # (it hands the clean body to the partial-retention hook first)
    # without a second, redundant group vote here.
    c_f = c_loc if pre_verified else abft.verified_bordered(c_loc)
    if kred_comm.size == 1:
        return np.ascontiguousarray(c_f[:-1, :-1])
    work = c_f[:, :-1] if by_cols else c_f[:-1, :]
    strips = split_block(work, kred_comm.size, by_cols)
    rel_tol = abft.policy.rel_tol
    rounds = 0
    with kred_comm.mem("reduce.scratch", strips[kred_comm.rank].nbytes):
        while True:
            strip = kred_comm.reduce_scatter(strips)
            bad = strip_checksum_errors(strip, by_cols, rel_tol)
            if bad:
                kred_comm.transport.add_ft(
                    kred_comm.world_rank, detected=1, phase="reduce"
                )
            any_bad = kred_comm.allreduce(int(bool(bad)), op=MAX)
            if not any_bad:
                body = strip[:-1, :] if by_cols else strip[:, :-1]
                return np.ascontiguousarray(body)
            rounds += 1
            if rounds > abft.policy.max_recomputes:
                raise CorruptionError(
                    kred_comm.world_rank,
                    rounds - 1,
                    () if by_cols else bad,
                    bad if by_cols else (),
                    phase="reduce",
                )
