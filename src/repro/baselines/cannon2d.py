"""Plain 2D Cannon's algorithm (Cannon 1969) as a standalone baseline.

Requires a square ``s x s`` grid.  This is exactly what CA3DMM runs
inside each Cannon group; here it is exposed directly (with its own
native 2D block layouts) so the 2D special case can be benchmarked and
tested in isolation — CA3DMM with ``pk = 1, c = 1`` must match it
message-for-message.
"""

from __future__ import annotations

import math

from ..core.cannon import cannon_multiply
from ..core.steps import block2d_native_dists, enter, leave, problem_dims
from ..layout.distributions import Block2D, Distribution
from ..layout.matrix import DistMatrix
from ..mpi.topology import Cart2D


def cannon_native_dists(
    m: int, n: int, k: int, s: int, nranks: int
) -> tuple[Block2D, Block2D, Block2D]:
    """Unskewed native layouts for an ``s x s`` Cannon grid: position
    ``(u, v)`` is rank ``u + s*v`` and holds block ``(u, v)`` of A, B and C."""
    return block2d_native_dists(m, n, k, s, s, nranks)


def cannon_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    shifts_per_gemm: int = 1,
) -> DistMatrix:
    """2D Cannon over the whole communicator (must be a perfect square)."""
    comm = a.comm
    s = math.isqrt(comm.size)
    if s * s != comm.size:
        raise ValueError(f"Cannon needs a square process count, got {comm.size}")
    m, n, k = problem_dims(a, b)
    native = cannon_native_dists(m, n, k, s, comm.size)
    a_loc, b_loc = enter(a, b, native)
    with comm.phase("cannon"):
        c_loc = cannon_multiply(
            Cart2D(comm, s, s), a_loc, b_loc, shifts_per_gemm=shifts_per_gemm
        )
    return leave(comm, native[2], c_loc, c_dist)
