"""Elementwise and reduction operations on distributed matrices.

The application layer (:mod:`repro.apps`) composes PGEMMs with cheap
local operations — AXPY-style updates, scaling, traces, norms, identity
construction.  All of these act tile-wise with at most one small
allreduce, so they cost O(local size) compute and O(1) messages —
negligible next to the multiplications, exactly as in the real driver
algorithms the paper cites.

All binary operations require operands on the same communicator with
the same distribution (use :func:`repro.layout.redistribute` first if
they differ); this keeps the semantics unambiguous and the cost model
honest.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mpi.datatypes import SUM
from .distributions import Distribution
from .matrix import DistMatrix


def _check_compatible(a: DistMatrix, b: DistMatrix) -> None:
    if a.comm is not b.comm:
        raise ValueError("operands live on different communicators")
    if a.dist != b.dist:
        raise ValueError(
            "operands use different distributions; redistribute one first"
        )


def _empty(a: DistMatrix) -> np.ndarray:
    """What a rank holding no tile applies an operation to, for its dtype."""
    return np.zeros((0, 0), dtype=a.dtype)


def elementwise(a: DistMatrix, b: DistMatrix, fn: Callable) -> DistMatrix:
    """Apply a binary numpy callable tile-by-tile; returns a new matrix."""
    _check_compatible(a, b)
    tiles = [fn(x, y) for x, y in zip(a.tiles, b.tiles)]
    dtype = None if tiles else np.asarray(fn(_empty(a), _empty(b))).dtype
    return DistMatrix(a.comm, a.dist, tiles, dtype=dtype)


def add(a: DistMatrix, b: DistMatrix, alpha: float = 1.0, beta: float = 1.0) -> DistMatrix:
    """``alpha * A + beta * B`` (same distribution)."""
    return elementwise(a, b, lambda x, y: alpha * x + beta * y)


def scale(a: DistMatrix, alpha: float) -> DistMatrix:
    """``alpha * A``."""
    return apply(a, lambda t: alpha * t)


def apply(a: DistMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> DistMatrix:
    """Apply a unary elementwise callable to every tile."""
    tiles = [np.asarray(fn(t)) for t in a.tiles]
    dtype = None if tiles else np.asarray(fn(_empty(a))).dtype
    return DistMatrix(a.comm, a.dist, tiles, dtype=dtype)


def identity(comm, dist: Distribution, dtype=np.float64) -> DistMatrix:
    """The identity matrix in the given (square-matrix) distribution."""
    m, n = dist.shape
    if m != n:
        raise ValueError(f"identity needs a square shape, got {dist.shape}")
    tiles = []
    for rect in dist.owned_rects(comm.rank):
        t = np.zeros(rect.shape, dtype=dtype)
        # global diagonal indices falling inside this rect
        lo = max(rect.r0, rect.c0)
        hi = min(rect.r1, rect.c1)
        if hi > lo:
            idx = np.arange(lo, hi)
            t[idx - rect.r0, idx - rect.c0] = 1.0
        tiles.append(t)
    return DistMatrix(comm, dist, tiles, dtype=dtype)


def trace(a: DistMatrix) -> float:
    """Global trace (collective: one small allreduce)."""
    m, n = a.shape
    if m != n:
        raise ValueError("trace needs a square matrix")
    local = 0.0
    for rect, tile in zip(a.owned_rects, a.tiles):
        lo = max(rect.r0, rect.c0)
        hi = min(rect.r1, rect.c1)
        if hi > lo:
            idx = np.arange(lo, hi)
            local += float(np.sum(tile[idx - rect.r0, idx - rect.c0].real))
    return float(a.comm.allreduce(np.array([local]), SUM)[0])


def frobenius_norm(a: DistMatrix) -> float:
    """Global Frobenius norm (collective)."""
    local = sum(float(np.sum(np.abs(t) ** 2)) for t in a.tiles)
    total = a.comm.allreduce(np.array([local]), SUM)
    return float(np.sqrt(total[0]))


def max_abs(a: DistMatrix) -> float:
    """Global max-absolute-entry (collective)."""
    from ..mpi.datatypes import MAX

    local = max((float(np.max(np.abs(t))) for t in a.tiles if t.size), default=0.0)
    return float(a.comm.allreduce(np.array([local]), MAX)[0])


def distance(a: DistMatrix, b: DistMatrix) -> float:
    """Frobenius distance between two same-distribution matrices."""
    _check_compatible(a, b)
    local = sum(
        float(np.sum(np.abs(x - y) ** 2)) for x, y in zip(a.tiles, b.tiles)
    )
    total = a.comm.allreduce(np.array([local]), SUM)
    return float(np.sqrt(total[0]))
