"""What every schedule does around its kernel, written once.

The paper's unified view (Section II): 1D, 2D, 3D and 2.5D algorithms
are one ``pm x pn x pk`` partition that differs only in how a k-task
group multiplies.  So an entry point in :mod:`repro.baselines` (and
CA3DMM-S) reads *choose grid -> name the three native layouts ->
kernel* and takes the rest from here: the one shape check
(:func:`problem_dims`), steps 4 and 8 of Algorithm 1 (:func:`enter`,
:func:`leave`) and the native layouts of a bare 2D or 3D grid.  Who
sits where is :class:`~repro.grid.optimizer.GridSpec`'s, the
sub-communicators :func:`~repro.mpi.topology.grid_comms`', step 7
:func:`~repro.core.reduce_c.reduce_over_k`.
:class:`~repro.core.ca3dmm.Ca3dmm` enters and leaves through the same
two functions; it alone passes what a full GEMM adds to them — op codes
folded into step 4, ``beta * C_in`` folded in before step 8, and
``verify`` (the CRC envelope of an ABFT run) on every conversion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import args
from ..grid.optimizer import GridSpec
from ..layout.blocks import Rect, block_range
from ..layout.distributions import Block2D, Distribution, Explicit
from ..layout.matrix import DistMatrix
from ..layout.redistribute import redistribute
from ..mpi.comm import Comm

#: Native layouts of one schedule: (A, B, C).
NativeDists = tuple[Distribution, Distribution, Distribution]


def norm_op(op) -> tuple[bool, bool]:
    """Normalize a BLAS-style op code to (transpose, conjugate).

    Accepts booleans (backward compatible: True means 'T') or the
    strings 'N'/'T'/'C' (case-insensitive).
    """
    if isinstance(op, bool):
        return op, False
    code = str(op).upper()
    if code in ("N", ""):
        return False, False
    if code == "T":
        return True, False
    if code == "C":
        return True, True
    raise ValueError(f"unknown op code {op!r}; expected 'N', 'T', 'C', or bool")


def problem_dims(
    a: DistMatrix, b: DistMatrix, transa: bool | str = False, transb: bool | str = False
) -> tuple[int, int, int]:
    """``(m, n, k)`` of ``C = op(A) x op(B)``, checked on the calling rank
    before any message is sent: op(A) and op(B) must share k, and each
    dimension is a count (docs/API.md, "Argument contract")."""
    (am, an), (bm, bn) = a.shape, b.shape
    m, k = (an, am) if norm_op(transa)[0] else (am, an)
    k2, n = (bn, bm) if norm_op(transb)[0] else (bm, bn)
    m, n, k, _ = args.problem(m, n, k, 1)
    if k != k2:
        raise ValueError(
            f"inner dimensions differ: op(A) is {m}x{k}, op(B) is {k2}x{n}"
        )
    return m, n, k


def enter(
    a: DistMatrix,
    b: DistMatrix,
    native: NativeDists,
    transa: bool | str = False,
    transb: bool | str = False,
    verify: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 4: convert A and B to a schedule's native layouts — op codes
    folded into the conversion, ``verify`` putting it under the CRC
    envelope of :func:`~repro.layout.redistribute.redistribute`; returns
    this rank's block of each (:meth:`DistMatrix.local_block`: an empty
    one is zeros of the rank's own empty rectangle, never a guess)."""
    a_dist, b_dist, _ = native
    (ta, ca), (tb, cb) = norm_op(transa), norm_op(transb)
    return (
        redistribute(a, a_dist, transpose=ta, phase="redist",
                     conjugate=ca, verify=verify).local_block(),
        redistribute(b, b_dist, transpose=tb, phase="redist",
                     conjugate=cb, verify=verify).local_block(),
    )


def leave(
    comm: Comm,
    native_c: Distribution,
    c_loc: np.ndarray | None,
    c_dist: Distribution | None,
    beta: float = 0.0,
    c_in: DistMatrix | None = None,
    verify: bool = False,
) -> DistMatrix:
    """Step 8: wrap this rank's block of C in the native layout — no tile
    when the block is empty or the rank ends with none (``None``) — fold
    in ``beta * c_in`` there, where every rank holds exactly its block
    (promoting as numpy does), and convert to ``c_dist`` when the caller
    named one.  The block's dtype is the result's even where no tile is."""
    tiles = [] if c_loc is None or not c_loc.size else [np.ascontiguousarray(c_loc)]
    dtype = None if c_loc is None else c_loc.dtype
    if beta != 0.0 and c_in is not None:
        c_prev = redistribute(c_in, native_c, phase="redist", verify=verify)
        tiles = [t + beta * p for t, p in zip(tiles, c_prev.tiles)]
        dtype = np.result_type(dtype, c_prev.dtype, beta)
    c_nat = DistMatrix(comm, native_c, tiles, dtype=dtype)
    return c_nat if c_dist is None else redistribute(c_nat, c_dist, phase="redist", verify=verify)


@lru_cache(maxsize=64)
def block2d_native_dists(
    m: int, n: int, k: int, pr: int, pc: int, nranks: int
) -> tuple[Block2D, Block2D, Block2D]:
    """Native layouts of a ``pr x pc`` grid in a world of ``nranks``: 2D
    blocks of A, B and C, position ``(u, v)`` holding block ``(u, v)`` of
    each — the SUMMA family's layouts, Cannon's (unskewed) and the
    layer-0 face of 2.5D.  Built once per run, like every layout here:
    the tables a conversion derives from them are O(P) (see
    :func:`~repro.core.plan.shared_plan`)."""
    return (
        Block2D((m, k), nranks, pr, pc),
        Block2D((k, n), nranks, pr, pc),
        Block2D((m, n), nranks, pr, pc),
    )


@lru_cache(maxsize=64)
def grid_native_dists(m: int, n: int, k: int, grid: GridSpec) -> NativeDists:
    """Native layouts of a bare ``pm x pn x pk`` grid (COSMA-like, CA3DMM-S).

    Balanced pieces of the blocks the grid replicates: the ``pn`` ranks
    sharing A block ``(i, ik)`` each hold a column piece of it, the
    ``pm`` ranks sharing B block ``(ik, j)`` a row piece, and C block
    ``(i, j)`` ends as the ``pk`` strips of the k-reduction
    (:meth:`Rect.strip`, what :func:`~repro.core.reduce_c.reduce_over_k`
    leaves).
    """
    pm, pn, pk = grid.pm, grid.pn, grid.pk
    a_map: dict[int, list[Rect]] = {}
    b_map: dict[int, list[Rect]] = {}
    c_map: dict[int, list[Rect]] = {}
    for ik in range(pk):
        k0, k1 = block_range(k, pk, ik)
        for j in range(pn):
            n0, n1 = block_range(n, pn, j)
            for i in range(pm):
                m0, m1 = block_range(m, pm, i)
                rank = grid.rank_of(i, j, ik)
                lo, hi = block_range(k1 - k0, pn, j)
                a_map[rank] = [Rect(m0, m1, k0 + lo, k0 + hi)]
                lo, hi = block_range(k1 - k0, pm, i)
                b_map[rank] = [Rect(k0 + lo, k0 + hi, n0, n1)]
                c_map[rank] = [Rect(m0, m1, n0, n1).strip(pk, ik)]
    return (
        Explicit.from_mapping((m, k), grid.nprocs, a_map),
        Explicit.from_mapping((k, n), grid.nprocs, b_map),
        Explicit.from_mapping((m, n), grid.nprocs, c_map),
    )
