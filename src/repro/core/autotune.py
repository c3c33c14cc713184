"""Model-driven variant selection (an extension the paper invites).

Section V sketches two memory-control levers — the SUMMA inner kernel
and fewer k-task groups — and Section IV-B shows that grids chosen by
pure volume analysis are not always the fastest in practice.  This
module closes the loop: it prices the candidate configurations with the
analytic engine on the *actual* machine model and returns the best
plan, optionally under a per-process memory cap.

Candidates considered:

* CA3DMM-C on its constrained-optimal grid (eqs. 4-8),
* CA3DMM-C on memory-capped grids (Section V lever 2),
* CA3DMM-S (SUMMA kernel, no constraint (7), no replication — lever 1),

and, for Table-II-style situations, a handful of near-optimal grids
around the volume optimum (sometimes a "suboptimal" grid with a
collective-friendlier ``pk`` wins, as the paper observed for pk=341).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .. import args
from ..analysis.costs import ITEM, CostReport, ca3dmm_cost
from ..grid.optimizer import (
    DEFAULT_L,
    GridSpec,
    MemLimitInfeasibleWarning,
    best_grids,
    ca3dmm_grid,
    cosma_grid,
)
from ..machine.model import MachineModel
from .ca3dmm import Ca3dmm


@dataclass(frozen=True)
class TunedChoice:
    """One evaluated candidate configuration."""

    inner: str  #: "cannon" or "summa"
    grid: GridSpec
    report: CostReport

    @property
    def time(self) -> float:
        return self.report.t_total

    @property
    def mem_words(self) -> float:
        return self.report.mem_words

    def describe(self) -> str:
        return (
            f"{self.inner:6s} grid {self.grid.pm}x{self.grid.pn}x{self.grid.pk}"
            f"  t={self.time:.4g}s  mem={self.mem_words * ITEM / 2 ** 20:.0f}MB"
        )


@dataclass
class TuneResult:
    """The winner plus the full ranked candidate list."""

    best: TunedChoice
    candidates: list[TunedChoice]

    def build(self, comm) -> Ca3dmm:
        """Instantiate the winning engine on a communicator.

        Only Cannon-kernel winners build a :class:`Ca3dmm`; for a SUMMA
        winner call :func:`repro.core.summa_variant.ca3dmm_s_matmul`
        with ``result.best.grid``.
        """
        if self.best.inner != "cannon":
            raise ValueError(
                "the winner uses the SUMMA kernel; call ca3dmm_s_matmul "
                "with best.grid instead of building a Ca3dmm engine"
            )
        return Ca3dmm(comm, self.best.report.m, self.best.report.n,
                      self.best.report.k, grid=self.best.grid)


def _near_optimal_grids(
    m: int, n: int, k: int, nprocs: int, l: float, count: int = 4
) -> list[GridSpec]:
    """The few lowest per-process-volume grids satisfying (5) and (7).

    Ranked by volume, then utilization, then ``(pm, pn)`` — eq. (10)
    latency plays no part, so on a tie the first entry may differ from
    :func:`ca3dmm_grid`'s.
    """
    return best_grids(
        m, n, k, nprocs, l, require_divisible=True, use_latency=False, count=count
    )


def tune(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    memory_limit_words: float | None = None,
    l: float = DEFAULT_L,
    consider_summa: bool = True,
    near_optimal: int = 4,
) -> TuneResult:
    """Pick the fastest CA3DMM configuration for a problem and machine.

    Returns every evaluated candidate, ranked; candidates violating
    ``memory_limit_words`` are excluded (unless nothing fits, in which
    case the lowest-memory candidate wins — the call always succeeds).
    Arguments as docs/API.md's "Argument contract" states.
    """
    m, n, k, nprocs = args.problem(m, n, k, nprocs)
    memory_limit_words = args.cap("memory_limit_words", memory_limit_words)
    l, near_optimal = args.fraction("l", l), args.count("near_optimal", near_optimal)
    candidates: list[TunedChoice] = []
    seen: set[tuple[str, int, int, int]] = set()

    def add(inner: str, grid: GridSpec) -> None:
        key = (inner, grid.pm, grid.pn, grid.pk)
        if key in seen:
            return
        seen.add(key)
        rep = ca3dmm_cost(m, n, k, nprocs, machine, grid=grid, inner=inner)
        candidates.append(TunedChoice(inner=inner, grid=grid, report=rep))

    for g in _near_optimal_grids(m, n, k, nprocs, l, count=near_optimal):
        add("cannon", g)
    if memory_limit_words is not None:
        add("cannon", ca3dmm_grid(m, n, k, nprocs, l, memory_limit_words=memory_limit_words))
    if consider_summa:
        add("summa", cosma_grid(m, n, k, nprocs, l))

    if memory_limit_words is not None:
        fitting = [c for c in candidates if c.mem_words <= memory_limit_words]
        if not fitting:
            floor = min(candidates, key=lambda c: c.mem_words)
            warnings.warn(
                MemLimitInfeasibleWarning(
                    f"memory_limit_words={memory_limit_words:g} excludes every "
                    f"tuning candidate for (m={m}, n={n}, k={k}, P={nprocs}); "
                    f"using the minimum-memory candidate "
                    f"({floor.inner}, {floor.grid.pm}x{floor.grid.pn}x"
                    f"{floor.grid.pk}) at {floor.mem_words:.0f} words, "
                    f"over the cap"
                ),
                stacklevel=2,
            )
            pool = [floor]
        else:
            pool = fitting
    else:
        pool = candidates
    ranked = sorted(pool, key=lambda c: c.time)
    return TuneResult(best=ranked[0], candidates=ranked)
