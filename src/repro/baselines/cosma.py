"""A COSMA-like PGEMM (Kwasniewski et al., SC 2019), per Section III-C.

The paper analyses what the COSMA *source code* actually does (its
published description being high-level) and contrasts it with CA3DMM:

1. find a near-optimal grid ``pm x pn x pk`` with
   ``m/pm ≈ k/pk ≈ n/pn`` (we reuse the same surface-area minimization
   as CA3DMM, *without* the Cannon divisibility constraint — eq. (4)
   with only eq. (5));
2. derive a multi-step split *strategy* by factorizing the grid
   dimensions — at each step the dimension with the largest current
   local extent is split (``cosma_strategy`` reports this schedule; for
   the paper's Example 2 it is exactly ``k:4, m:2, n:2``);
3. execute: **complete all replications of A and B before any
   compute** — allgathers over the n-groups (for A) and m-groups (for
   B) — then one local GEMM, then a reduce-scatter over the k-groups.

Chaining the per-factor allgathers of step 2 moves exactly the same
volume with the same total ⌈log2⌉ message count as one allgather over
the whole group, so the executed engine performs one collective per
operand; the strategy object documents the schedule.

The contrast with CA3DMM (Section III-C): here replication is fully
materialized up front (more memory, no pipelining), whereas CA3DMM
streams blocks through Cannon shifts overlapped with compute.  The
reduce-scatter of partial C is identical in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.reduce_c import freeze_partial, reduce_over_k
from ..core.steps import enter, grid_native_dists, leave, problem_dims
from ..grid.optimizer import DEFAULT_L, GridSpec, cosma_grid
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..mpi.datatypes import freeze
from ..mpi.topology import grid_comms


@dataclass(frozen=True)
class SplitStep:
    """One strategy step: split ``dim`` ('m'/'n'/'k') into ``parts``."""

    dim: str
    parts: int


def cosma_strategy(grid: GridSpec, m: int, n: int, k: int) -> list[SplitStep]:
    """The ordered split schedule: largest current extent first.

    Whole grid dimensions are taken in one step (matching the paper's
    reading of Example 2: "(1) k-dimension splitting of size 4, (2)
    m-dimension splitting of size 2, (3) n-dimension splitting of 2").
    """
    remaining = {"m": grid.pm, "n": grid.pn, "k": grid.pk}
    extents = {"m": float(m), "n": float(n), "k": float(k)}
    steps: list[SplitStep] = []
    while any(p > 1 for p in remaining.values()):
        dim = max(
            (d for d in ("m", "n", "k") if remaining[d] > 1),
            key=lambda d: (extents[d], d == "m", d == "n"),
        )
        steps.append(SplitStep(dim, remaining[dim]))
        extents[dim] /= remaining[dim]
        remaining[dim] = 1
    return steps


def cosma_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    grid: GridSpec | None = None,
    l: float = DEFAULT_L,
) -> DistMatrix:
    """Run the COSMA-like schedule; returns C (native strips or ``c_dist``)."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    g = grid if grid is not None else cosma_grid(m, n, k, comm.size, l)
    native = grid_native_dists(m, n, k, g)
    a_piece, b_piece = enter(a, b, native)
    ngroup, mgroup, kgroup = grid_comms(comm, g, "n", "m", "k")

    c_strip = None
    if kgroup is not None:  # an active rank
        # Replicate A and B fully before computing (the COSMA schedule);
        # enter() allocated the pieces and nobody writes them: frozen, no
        # hop copies them.
        with comm.phase("replicate"):
            a_blk = (
                a_piece
                if ngroup.size == 1
                else np.concatenate(ngroup.allgather(freeze(a_piece)), axis=1)
            )
            b_blk = (
                b_piece
                if mgroup.size == 1
                else np.concatenate(mgroup.allgather(freeze(b_piece)), axis=0)
            )
        mi, ni = a_blk.shape[0], b_blk.shape[1]
        comm.note_live_bytes(
            a_blk.nbytes + b_blk.nbytes + mi * ni * a_blk.dtype.itemsize
        )

        with comm.phase("compute"):
            comm.gemm_tick(mi, ni, a_blk.shape[1])
            out_dtype = np.promote_types(a.dtype, b.dtype)
            if a_blk.shape[1]:
                c_part = (a_blk @ b_blk).astype(out_dtype, copy=False)
            else:
                c_part = np.zeros((mi, ni), dtype=out_dtype)

        with comm.phase("reduce"):
            c_strip = reduce_over_k(kgroup, freeze_partial(kgroup, c_part))
    return leave(comm, native[2], c_strip, c_dist)
