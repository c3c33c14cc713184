"""The 2.5D algorithm (Solomonik & Demmel, Euro-Par 2011).

A ``sq x sq x c`` grid: ``c`` replica layers, each a square 2D grid.
A and B live on layer 0 (natural 2D blocks) and are broadcast down the
layer fibers; layer ``l`` then runs the slice ``block_range(sq, c, l)``
of the ``sq`` Cannon steps (starting from an alignment offset equal to
its slice start), and the per-layer partial C blocks are reduced back
to layer 0.  With ``c = 1`` this *is* Cannon's algorithm; with
``c = P^{1/3}`` it matches the original 3D algorithm's costs — the
"bridge" role the paper describes in Section II.

This module is also the engine for the CTF-like baseline
(:mod:`repro.baselines.ctf_like`), which differs only in grid choice.
The grid is ``GridSpec(sq, sq, c, P)``.
"""

from __future__ import annotations

import numpy as np

from ..core.reduce_c import freeze_partial
from ..core.steps import enter, leave, problem_dims
from ..grid.optimizer import GridSpec
from ..layout.blocks import block_range
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..mpi.datatypes import INTERNAL_TAG_BASE, freeze
from ..mpi.topology import Cart2D, grid_comms
from .cannon2d import cannon_native_dists

_TAG_ALIGN_A = INTERNAL_TAG_BASE + 201
_TAG_ALIGN_B = INTERNAL_TAG_BASE + 202
_TAG_SHIFT_A = INTERNAL_TAG_BASE + 203
_TAG_SHIFT_B = INTERNAL_TAG_BASE + 204


def grid_25d(nprocs: int, c: int | None = None) -> tuple[int, int]:
    """Pick ``(sq, c)`` with ``sq*sq*c <= nprocs`` maximizing utilization.

    When ``c`` is given it is honoured (sq maximal for that c); otherwise
    the utilization-maximal pair with the largest c at most ``sq`` wins.
    A given ``c`` below 1 is a ``ValueError``.
    """
    if c is not None:
        if c < 1:
            raise ValueError(f"replication factor c must be >= 1, not {c}")
        sq = 1
        while (sq + 1) ** 2 * c <= nprocs:
            sq += 1
        return sq, c
    best: tuple[int, int, int] | None = None  # (used, c, sq)
    for cc in range(1, nprocs + 1):
        sq = int((nprocs // cc) ** 0.5)
        if sq < 1 or cc > sq:
            continue
        used = sq * sq * cc
        cand = (used, cc, sq)
        if best is None or cand > best:
            best = cand
    if best is None:
        return 1, 1
    return best[2], best[1]


def algo25d_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    c_factor: int | None = None,
    sq: int | None = None,
) -> DistMatrix:
    """Run the 2.5D algorithm with ``c_factor`` replica layers."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    if sq is None:
        sq, c = grid_25d(comm.size, c_factor)
    else:
        c = c_factor if c_factor is not None else 1
    g = GridSpec(sq, sq, c, comm.size)  # refuses a grid larger than the world
    native = cannon_native_dists(m, n, k, sq, comm.size)  # the layer-0 face
    a_loc, b_loc = enter(a, b, native)
    layer, fiber = grid_comms(comm, g, "mn", "k")

    c_sum = None
    at = g.coords(comm.rank)
    if at is not None:
        u, v, l = at
        # Only layer 0 holds blocks; an empty one travels as None.  No
        # rank writes a block: each is frozen where it is made or
        # received, and no broadcast hop, alignment or shift copies it.
        with comm.phase("replicate"):
            a_blk = fiber.bcast(freeze(a_loc) if a_loc.size else None, root=0)
            b_blk = fiber.bcast(freeze(b_loc) if b_loc.size else None, root=0)
        face = g.rank_of(u, v, 0)
        if a_blk is None:
            a_blk = np.zeros(native[0].block(face).shape, dtype=a.dtype)
        if b_blk is None:
            b_blk = np.zeros(native[1].block(face).shape, dtype=b.dtype)
        a_blk, b_blk = freeze(a_blk), freeze(b_blk)

        cart = Cart2D(layer, sq, sq)
        t0, t1 = block_range(sq, c, l)  # this layer's Cannon-step slice
        out_dtype = np.promote_types(a.dtype, b.dtype)
        c_part = np.zeros((a_blk.shape[0], b_blk.shape[1]), dtype=out_dtype)

        with comm.phase("cannon"):
            # Alignment: A left by (u + t0), B up by (v + t0).
            if (u + t0) % sq:
                a_blk = freeze(layer.sendrecv(
                    a_blk, cart.left(u + t0), cart.right(u + t0), _TAG_ALIGN_A, _TAG_ALIGN_A
                ))
            if (v + t0) % sq:
                b_blk = freeze(layer.sendrecv(
                    b_blk, cart.up(v + t0), cart.down(v + t0), _TAG_ALIGN_B, _TAG_ALIGN_B
                ))
            for t in range(t0, t1):
                comm.gemm_tick(c_part.shape[0], c_part.shape[1], a_blk.shape[1])
                if a_blk.shape[1]:
                    np.add(c_part, a_blk @ b_blk, out=c_part)
                if t < t1 - 1:
                    a_blk = freeze(layer.sendrecv(
                        a_blk, cart.left(1), cart.right(1), _TAG_SHIFT_A, _TAG_SHIFT_A
                    ))
                    b_blk = freeze(layer.sendrecv(
                        b_blk, cart.up(1), cart.down(1), _TAG_SHIFT_B, _TAG_SHIFT_B
                    ))
        with comm.phase("reduce"):
            c_sum = fiber.reduce(freeze_partial(fiber, c_part), root=0)
    return leave(comm, native[2], c_sum, c_dist)
