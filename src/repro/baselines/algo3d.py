"""The original 3D algorithm (Agarwal et al., 1995).

A cubic ``q x q x q`` grid (``q = floor(P^{1/3})``; surplus ranks idle).
A and B live as natural 2D block layouts on one face each, C ends on a
face:

* A block ``(i, l)`` on process ``(i, 0, l)`` — broadcast along the
  n-fibers so every ``(i, j, l)`` gets it,
* B block ``(l, j)`` on process ``(0, j, l)`` — broadcast along the
  m-fibers,
* every process computes one local GEMM, and the partial C blocks are
  summed along the k-fibers onto the ``l = 0`` face.

Communication per process is O(N²/P^{2/3}) for square problems — the
paper's reference point for the memory/communication trade-off — but,
as Demmel et al. observed and the paper recounts, the fixed cubic grid
performs poorly when one dimension dominates.  The grid is
``GridSpec(q, q, q, P)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.reduce_c import freeze_partial
from ..core.steps import enter, leave, problem_dims
from ..grid.optimizer import GridSpec
from ..layout.blocks import Rect, block_range
from ..layout.distributions import Distribution, Explicit
from ..layout.matrix import DistMatrix
from ..mpi.datatypes import freeze
from ..mpi.topology import grid_comms


def cube_side(nprocs: int) -> int:
    """Largest q with q³ <= nprocs."""
    q = max(1, round(nprocs ** (1.0 / 3.0)))
    while q ** 3 > nprocs:
        q -= 1
    while (q + 1) ** 3 <= nprocs:
        q += 1
    return q


@lru_cache(maxsize=64)
def algo3d_native_dists(
    m: int, n: int, k: int, q: int, nranks: int
) -> tuple[Explicit, Explicit, Explicit]:
    """Face layouts of A (j=0), B (i=0), and C (l=0); one triple per run."""
    cube = GridSpec(q, q, q, nranks)
    a_map: dict[int, list[Rect]] = {}
    b_map: dict[int, list[Rect]] = {}
    c_map: dict[int, list[Rect]] = {}
    for l in range(q):
        k0, k1 = block_range(k, q, l)
        for i in range(q):
            m0, m1 = block_range(m, q, i)
            a_map[cube.rank_of(i, 0, l)] = [Rect(m0, m1, k0, k1)]
        for j in range(q):
            n0, n1 = block_range(n, q, j)
            b_map[cube.rank_of(0, j, l)] = [Rect(k0, k1, n0, n1)]
    for i in range(q):
        m0, m1 = block_range(m, q, i)
        for j in range(q):
            n0, n1 = block_range(n, q, j)
            c_map[cube.rank_of(i, j, 0)] = [Rect(m0, m1, n0, n1)]
    return (
        Explicit.from_mapping((m, k), nranks, a_map),
        Explicit.from_mapping((k, n), nranks, b_map),
        Explicit.from_mapping((m, n), nranks, c_map),
    )


def algo3d_matmul(
    a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None
) -> DistMatrix:
    """Run the original 3D algorithm; returns C (face layout or ``c_dist``)."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    q = cube_side(comm.size)
    cube = GridSpec(q, q, q, comm.size)
    native = algo3d_native_dists(m, n, k, q, comm.size)
    a_loc, b_loc = enter(a, b, native)
    nfiber, mfiber, kfiber = grid_comms(comm, cube, "n", "m", "k")

    c_sum = None
    at = cube.coords(comm.rank)
    if at is not None:
        i, j, l = at
        # Only the face ranks hold a block; an empty one travels as None.
        # enter() allocated the blocks and nobody writes them: frozen, no
        # tree hop copies them.
        with comm.phase("replicate"):
            a_blk = nfiber.bcast(freeze(a_loc) if a_loc.size else None, root=0)
            b_blk = mfiber.bcast(freeze(b_loc) if b_loc.size else None, root=0)
        if a_blk is None:
            a_blk = np.zeros(native[0].block(cube.rank_of(i, 0, l)).shape, dtype=a.dtype)
        if b_blk is None:
            b_blk = np.zeros(native[1].block(cube.rank_of(0, j, l)).shape, dtype=b.dtype)
        with comm.phase("compute"):
            comm.gemm_tick(a_blk.shape[0], b_blk.shape[1], a_blk.shape[1])
            c_part = a_blk @ b_blk
        with comm.phase("reduce"):
            c_sum = kfiber.reduce(freeze_partial(kfiber, c_part), root=0)
    return leave(comm, native[2], c_sum, c_dist)
