"""The paper's closed forms, and the executed metrics they are checked against.

The one home of every "expected" value the reports compare a run with:

* :func:`expected_phase_traffic` — per-phase words, messages and block
  sizes of the eq. (4) schedule (Section III-D), the one derivation
  (:func:`repro.machine.collcost.ca3dmm_phase_costs` prices the same
  blocks in the α-β model);
* ``Q`` — communication size: max over ranks of *words sent*; the sum
  of the phase traffic, which is paper eq. (9) ``3 (mnk/P)^(2/3)``
  (:func:`eq9_lower_bound`) under the balanced-grid assumptions;
* ``L`` — latency: communication rounds on the critical rank (paper
  eq. (10): ``log2(c) + s + pk - 1``, :meth:`GridSpec.latency_ca3dmm`);
* ``S`` — memory: max over ranks of live matrix words (paper eq. (11):
  ``2(c·mk + kn)/P + pk·mn/P``, :meth:`GridSpec.memory_words`);
* :func:`pebbling_lower_bound` — the red-blue pebbling I/O bound
  ``2mnk/(P·√M)`` of Kwasniewski et al.

:func:`theoretical_metrics` bundles Q/L/S for a plan and
:func:`executed_metrics` extracts the same three from executed traces,
so tests (and the verification bench) can assert agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import Ca3dmmPlan
    from ..mpi.runtime import SpmdResult


@dataclass(frozen=True)
class PhaseExpectation:
    """Predicted per-rank traffic of one phase (critical rank, words)."""

    words: float
    msgs: int
    blocks: tuple[float, ...]  #: words of the block(s) one round moves


def expected_phase_traffic(plan: "Ca3dmmPlan") -> dict[str, PhaseExpectation]:
    """Closed-form per-phase send volume/messages of the executed schedule.

    Words use the continuous block extents (``m/pm`` etc.), exact when
    the grid divides the dimensions; message counts are the executed
    algorithms' exact per-rank maxima (Bruck rounds for the replication
    allgather, 2 messages per Cannon round for A and B, ``pk-1``
    pairwise exchanges for the reduce-scatter).  A phase the plan does
    not schedule (``c``, ``s`` or ``pk`` equal to 1) is absent.
    """
    m, n, k = plan.m, plan.n, plan.k
    pm, pn, pk, s, c = plan.pm, plan.pn, plan.pk, plan.s, plan.c
    mb, nb, kg = m / pm, n / pn, k / pk
    kb = kg / s
    blk_a, blk_b = mb * kb, kb * nb

    out: dict[str, PhaseExpectation] = {}
    if c > 1:
        blk = blk_a if plan.replicates_a else blk_b
        out["replicate"] = PhaseExpectation(
            blk * (c - 1) / c, math.ceil(math.log2(c)), (blk,)
        )
    if s > 1:
        # Skew (A left by u, B up by v: ranks with u>0 and v>0 send both)
        # plus s-1 dual-buffered shift rounds moving A and B each.
        out["cannon"] = PhaseExpectation((blk_a + blk_b) * s, 2 * s, (blk_a, blk_b))
    if pk > 1:
        out["reduce"] = PhaseExpectation(mb * nb * (pk - 1) / pk, pk - 1, (mb * nb,))
    return out


def eq9_lower_bound(m: int, n: int, k: int, nprocs: int) -> float:
    """Paper eq. (9): Q = 3 (mnk/P)^(2/3) words."""
    return 3.0 * (m * n * k / nprocs) ** (2.0 / 3.0)


def pebbling_lower_bound(m: int, n: int, k: int, p: int, mem_words: float) -> float:
    """Red-blue pebbling I/O lower bound, in words per rank.

    ``2mnk/(P·√M)`` (Kwasniewski et al., SC'19): no schedule of the
    ``mnk`` elementary products over ``P`` processors with fast memory
    of ``M`` words can move fewer words through any single processor.
    COSMA audits its own schedule against the same bound; the reports
    pass the *measured* footprint per rank as ``M``, so the bound
    tightens as the run actually economizes memory.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if mem_words <= 0:
        return 0.0
    return 2.0 * m * n * k / (p * math.sqrt(mem_words))


@dataclass(frozen=True)
class PaperMetrics:
    """The theoretical Q/L/S of Section III-D for one plan."""

    q_words: float
    l_rounds: int
    s_words: float


def theoretical_metrics(plan: "Ca3dmmPlan") -> PaperMetrics:
    """Eqs. (9)-(11) evaluated for a concrete plan (no idealizations).

    ``q_words`` is the schedule's exact per-rank send volume (the sum of
    :func:`expected_phase_traffic`), which equals eq. (9) when the grid
    is perfectly balanced; tests check both the exact value against
    executed traffic and the eq. (9) form under the paper's assumptions.
    """
    return PaperMetrics(
        q_words=sum((e.words for e in expected_phase_traffic(plan).values()), 0.0),
        l_rounds=plan.grid.latency_ca3dmm(),
        s_words=plan.grid.memory_words(plan.m, plan.n, plan.k),
    )


@dataclass
class ExecutedMetrics:
    """Q/L/S observed in an executed run (matrix words / rounds)."""

    q_words: float
    msgs: int
    s_words: float
    time: float


def executed_metrics(result: "SpmdResult") -> ExecutedMetrics:
    """Extract the paper's metrics from executed traces.

    ``msgs`` counts individual messages (the executed Cannon stage sends
    A and B separately, so it is up to ~2x the paper's *round* count L;
    tests account for that factor explicitly).  S is the measured
    footprint (:attr:`~repro.obs.metrics.RunTotals.footprint_words`).
    """
    from ..obs.metrics import run_totals

    totals = run_totals(result.traces)
    return ExecutedMetrics(
        q_words=totals.q_words,
        msgs=totals.max_msgs,
        s_words=totals.footprint_words,
        time=result.time,
    )
