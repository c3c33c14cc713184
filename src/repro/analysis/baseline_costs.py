"""Closed-form costs of the classical baselines (1D, SUMMA, 2.5D, CARMA).

Completes the analytic engine beyond the paper's three measured
libraries so the whole algorithm landscape can be compared on one
machine model — used by the crossover-map bench (which algorithm wins
where in (m, n, k, P) space) and by tests that pin the textbook
complexity results the paper's Section II recounts:

* 1D algorithms win only when one dimension dominates,
* SUMMA's O(N²/√P) volume loses to the 3D family's O(N²/P^(2/3)) once
  P is large,
* 2.5D interpolates between them with its replication factor c,
* CARMA matches the 3D family asymptotically on powers of two.
"""

from __future__ import annotations

import math

from .. import args
from ..grid.factorize import near_square_pair
from ..grid.optimizer import GridSpec
from ..machine.model import MachineModel
from .costs import (
    ITEM,
    CostReport,
    _bruck_allgather,
    _layered_cannon,
    _local_gemm,
    _p2p,
    _reduce_scatter,
    _summa_panels,
)


def algo1d_cost(
    m: int, n: int, k: int, nprocs: int, machine: MachineModel, variant: str = "auto"
) -> CostReport:
    """1D m/n/k-partition algorithms (replicate-one-operand or reduce-C)."""
    m, n, k, nprocs = args.problem(m, n, k, nprocs)
    if variant == "auto":
        variant = "m" if m >= max(n, k) else ("n" if n >= k else "k")
    rep = CostReport(
        algo=f"1d-{variant}", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"1d-{variant}({nprocs})", machine=machine,
    )
    ranks = list(range(nprocs))
    if variant == "m":
        rep.phase("replicate").__iadd__(_bruck_allgather(machine, ranks, k * n * ITEM))
        rep.phase("compute").time += machine.gemm_time(
            math.ceil(m / nprocs), n, k,
            stage_bytes=int((m / nprocs * k + k * n + m / nprocs * n) * ITEM),
        )
        rep.mem_words = (m / nprocs) * k + k * n + (m / nprocs) * n
    elif variant == "n":
        rep.phase("replicate").__iadd__(_bruck_allgather(machine, ranks, m * k * ITEM))
        rep.phase("compute").time += machine.gemm_time(
            m, math.ceil(n / nprocs), k,
            stage_bytes=int((m * k + k * n / nprocs + m * n / nprocs) * ITEM),
        )
        rep.mem_words = m * k + k * (n / nprocs) + m * (n / nprocs)
    elif variant == "k":
        rep.phase("compute").time += machine.gemm_time(
            m, n, math.ceil(k / nprocs),
            stage_bytes=int((m * k / nprocs + k / nprocs * n + m * n) * ITEM),
        )
        rep.phase("reduce").__iadd__(_reduce_scatter(machine, ranks, m * n * ITEM))
        rep.mem_words = m * (k / nprocs) + (k / nprocs) * n + m * n
    else:
        raise ValueError(f"unknown 1D variant {variant!r}")
    rep.flops_per_rank = 2.0 * m * n * k / nprocs
    return rep


def summa_cost(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    grid: tuple[int, int] | None = None,
    panel: int = 256,
) -> CostReport:
    """Stationary-C SUMMA on a ``pr x pc`` grid with panel width b."""
    m, n, k, nprocs = args.problem(m, n, k, nprocs)
    panel = args.count("panel", panel)
    pr, pc = near_square_pair(nprocs) if grid is None else (
        args.count("grid[0]", grid[0]), args.count("grid[1]", grid[1]))
    rep = CostReport(
        algo="summa", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{pr}x{pc}", machine=machine,
    )
    mb, nb = m / pr, n / pc
    iters = max(1, math.ceil(k / panel))
    b = k / iters
    _summa_panels(rep, GridSpec(pr, pc, 1, nprocs), mb, nb, b, iters)
    rep.phase("compute").time += _local_gemm(machine, mb, nb, k)
    rep.flops_per_rank = 2.0 * mb * nb * k
    # stationary blocks + one in-flight panel pair
    rep.mem_words = mb * k / pc + k * nb / pr + mb * nb + mb * b + b * nb
    return rep


def algo25d_cost(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    sq: int | None = None,
    c: int | None = None,
) -> CostReport:
    """The 2.5D algorithm with replication factor c (c=1 is Cannon)."""
    from ..baselines.algo25d import grid_25d

    m, n, k, nprocs = args.problem(m, n, k, nprocs)
    sq, c = grid_25d(nprocs, c) if sq is None or c is None else (
        args.count("sq", sq), args.count("c", c))
    rep = CostReport(
        algo="2.5d", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{sq}x{sq}x{c}", machine=machine,
    )
    c_words = _layered_cannon(rep, sq, c)
    rep.mem_words += c_words  # one C block
    return rep


def carma_cost(
    m: int, n: int, k: int, nprocs: int, machine: MachineModel
) -> CostReport:
    """CARMA's recursive bisection on the largest 2^t <= P ranks.

    Costs follow the recursion: each m-split exchanges the current B
    holdings pairwise, each n-split the A holdings, each k-split half
    the partial C on the way up; the leaf GEMM is the full local
    subproblem.  Fractional extents keep sibling subtrees congruent, as
    in the executed implementation.
    """
    from ..baselines.carma import active_count

    m, n, k, nprocs = args.problem(m, n, k, nprocs)
    act = active_count(nprocs)
    rep = CostReport(
        algo="carma", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"2^{int(math.log2(act))}", machine=machine,
    )
    fm, fn, fk = float(m), float(n), float(k)
    # Track per-rank holdings (words) of A and B down the recursion.
    a_hold, b_hold = fm * fk / act, fk * fn / act
    size = act
    ph_rep = rep.phase("replicate")
    ph_red = rep.phase("reduce")
    k_splits: list[float] = []
    while size > 1:
        if fm >= fn and fm >= fk:
            ph_rep += _p2p(machine, 0, size // 2, b_hold * ITEM)
            b_hold *= 2.0
            fm /= 2.0
        elif fn >= fk:
            ph_rep += _p2p(machine, 0, size // 2, a_hold * ITEM)
            a_hold *= 2.0
            fn /= 2.0
        else:
            a_hold /= 2.0
            b_hold /= 2.0
            k_splits.append(size)
            fk /= 2.0
        size //= 2
    # Leaf compute: the full local subproblem.
    rep.phase("compute").time += machine.gemm_time(
        max(1, int(fm)), max(1, int(fn)), max(1, int(fk)),
        stage_bytes=int((fm * fk + fk * fn + fm * fn) * ITEM),
    )
    rep.flops_per_rank = 2.0 * fm * fn * fk
    # Unwind: each k-split trades half the current C piece pairwise.
    c_words = fm * fn
    for size in reversed(k_splits):
        ph_red += _p2p(machine, 0, size // 2, c_words / 2.0 * ITEM)
        c_words /= 2.0
    rep.mem_words = a_hold + b_hold + fm * fn
    return rep

