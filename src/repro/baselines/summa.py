"""SUMMA (van de Geijn & Watts 1997) — the workhorse 2D algorithm.

Stationary-C SUMMA on a ``pr x pc`` grid: A, B, and C are 2D
block-partitioned and :func:`~repro.core.summa.summa_on_grid` — the
kernel CA3DMM-S runs inside each k-task group (Section III-E /
Section V of the paper) — walks the k-dimension in panels.  This is the
standalone baseline (what ScaLAPACK/SLATE provide).
"""

from __future__ import annotations

from ..core.steps import block2d_native_dists, enter, leave, problem_dims
from ..core.summa import DEFAULT_PANEL, panel_ranges, summa_on_grid  # noqa: F401
from ..grid.factorize import near_square_pair
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..mpi.topology import Cart2D


def summa_grid(comm_size: int, grid: tuple[int, int] | None) -> tuple[int, int]:
    """``grid``, or the most-square factorization of the world size; all
    ranks participate (SUMMA has no idle-rank concept)."""
    pr, pc = grid if grid is not None else near_square_pair(comm_size)
    if pr * pc != comm_size:
        raise ValueError(f"grid {pr}x{pc} does not use all {comm_size} ranks")
    return pr, pc


def summa_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    grid: tuple[int, int] | None = None,
    panel: int = DEFAULT_PANEL,
) -> DistMatrix:
    """Standalone SUMMA: redistribute to 2D blocks, multiply, convert back."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    pr, pc = summa_grid(comm.size, grid)
    native = block2d_native_dists(m, n, k, pr, pc, comm.size)
    a_loc, b_loc = enter(a, b, native)
    with comm.phase("summa"):
        c_loc = summa_on_grid(Cart2D(comm, pr, pc), a_loc, b_loc, m, n, k, panel=panel)
    return leave(comm, native[2], c_loc, c_dist)


def summa_auto_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    grid: tuple[int, int] | None = None,
    panel: int = DEFAULT_PANEL,
    variant: str = "auto",
) -> DistMatrix:
    """Dispatch among the SUMMA family by the stationary operand.

    ``variant`` is "C", "A", "B", or "auto" (keep the largest operand
    stationary — the van de Geijn selection rule).
    """
    m, n, k = problem_dims(a, b)
    v = variant.upper()
    if v == "AUTO":
        areas = {"A": m * k, "B": k * n, "C": m * n}
        v = max(areas, key=areas.get)
    if v == "C":
        return summa_matmul(a, b, c_dist=c_dist, grid=grid, panel=panel)
    from .summa_stationary import (
        summa_stationary_a_matmul,
        summa_stationary_b_matmul,
    )

    if v == "A":
        return summa_stationary_a_matmul(a, b, c_dist=c_dist, grid=grid, panel=panel)
    if v == "B":
        return summa_stationary_b_matmul(a, b, c_dist=c_dist, grid=grid, panel=panel)
    raise ValueError(f"unknown SUMMA variant {variant!r}")
