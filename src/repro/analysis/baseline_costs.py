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

from ..grid.factorize import near_square_pair
from ..grid.optimizer import GridSpec
from ..machine.model import MachineModel
from .costs import (
    ITEM,
    CostReport,
    PhaseCost,
    _bcast_vdg,
    _bruck_allgather,
    _reduce_scatter,
)


def algo1d_cost(
    m: int, n: int, k: int, nprocs: int, machine: MachineModel, variant: str = "auto"
) -> CostReport:
    """1D m/n/k-partition algorithms (replicate-one-operand or reduce-C)."""
    if variant == "auto":
        variant = "m" if m >= max(n, k) else ("n" if n >= k else "k")
    rep = CostReport(
        algo=f"1d-{variant}", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"1d-{variant}({nprocs})", machine=machine,
    )
    ranks = list(range(nprocs))
    if variant == "m":
        rep.phase("replicate").__iadd__(
            _bruck_allgather(machine, ranks, k * n * ITEM)
        )
        rep.phase("compute").time += machine.gemm_time(
            math.ceil(m / nprocs), n, k,
            stage_bytes=int((m / nprocs * k + k * n + m / nprocs * n) * ITEM),
        )
        rep.mem_words = (m / nprocs) * k + k * n + (m / nprocs) * n
    elif variant == "n":
        rep.phase("replicate").__iadd__(
            _bruck_allgather(machine, ranks, m * k * ITEM)
        )
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
    pr, pc = grid if grid is not None else near_square_pair(nprocs)
    rep = CostReport(
        algo="summa", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{pr}x{pc}", machine=machine,
    )
    mb, nb = m / pr, n / pc
    iters = max(1, math.ceil(k / panel))
    b = k / iters
    g = GridSpec(pr, pc, 1, nprocs)
    ph = rep.phase("replicate")
    for _ in range(iters):
        if pc > 1:  # A panel along the grid row
            ph.__iadd__(_bcast_vdg(machine, g.fiber("n"), mb * b * ITEM))
        if pr > 1:  # B panel along the grid column
            ph.__iadd__(_bcast_vdg(machine, g.fiber("m"), b * nb * ITEM))
    rep.phase("compute").time += machine.gemm_time(
        int(mb), int(nb), max(1, int(k)),
        stage_bytes=int((mb * k + k * nb + mb * nb) * ITEM),
    )
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

    if sq is None or c is None:
        sq, c = grid_25d(nprocs, c)
    rep = CostReport(
        algo="2.5d", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{sq}x{sq}x{c}", machine=machine,
    )
    mb, nb, kb = m / sq, n / sq, k / sq
    fiber = GridSpec(sq, sq, c, nprocs).fiber("k")  # one rank per layer
    ph = rep.phase("replicate")
    if c > 1:
        ph.__iadd__(_bcast_vdg(machine, fiber, mb * kb * ITEM))
        ph.__iadd__(_bcast_vdg(machine, fiber, kb * nb * ITEM))
    steps = math.ceil(sq / c)
    gemm_step = machine.gemm_time(
        int(mb), int(nb), max(1, int(kb)),
        stage_bytes=int((mb * kb + kb * nb + mb * nb) * ITEM),
    )
    if sq > 1:
        shift_pair = machine.msg_time(mb * kb * ITEM, 0, sq) + machine.msg_time(
            kb * nb * ITEM, 0, 1
        )
        ph.time += shift_pair  # alignment
        ph.words += mb * kb + kb * nb
        ph.msgs += 2
        ph.time += max(0, steps - 1) * shift_pair  # per-step shifts, no overlap
        ph.words += max(0, steps - 1) * (mb * kb + kb * nb)
        ph.msgs += 2 * max(0, steps - 1)
    rep.phase("compute").time += steps * gemm_step
    rep.flops_per_rank = 2.0 * mb * nb * kb * steps
    if c > 1:
        rep.phase("reduce").__iadd__(_reduce_scatter(machine, fiber, mb * nb * ITEM))
    rep.mem_words = 2.0 * (mb * kb + kb * nb) + mb * nb
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

    act = active_count(nprocs)
    rep = CostReport(
        algo="carma", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"2^{int(math.log2(act))}", machine=machine,
    )
    fm, fn, fk = float(m), float(n), float(k)
    # Track per-rank holdings (words) of A and B down the recursion.
    a_hold = fm * fk / act
    b_hold = fk * fn / act
    size = act
    ph_rep = rep.phase("replicate")
    ph_red = rep.phase("reduce")
    c_words = 0.0
    k_splits: list[float] = []
    while size > 1:
        if fm >= fn and fm >= fk:
            ph_rep.__iadd__(PhaseCost(
                time=machine.msg_time(b_hold * ITEM, 0, size // 2),
                words=b_hold, msgs=1,
            ))
            b_hold *= 2.0
            fm /= 2.0
        elif fn >= fk:
            ph_rep.__iadd__(PhaseCost(
                time=machine.msg_time(a_hold * ITEM, 0, size // 2),
                words=a_hold, msgs=1,
            ))
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
        ph_red.__iadd__(PhaseCost(
            time=machine.msg_time(c_words / 2.0 * ITEM, 0, size // 2),
            words=c_words / 2.0, msgs=1,
        ))
        c_words /= 2.0
    rep.mem_words = a_hold + b_hold + fm * fn
    return rep

