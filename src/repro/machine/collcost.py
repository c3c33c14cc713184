"""Closed-form α-β costs of the collectives, as used by the paper.

Section III-D of the paper assumes butterfly-style collectives with the
costs of Thakur, Rabenseifner & Gropp (IJHPCA 2005):

.. math::

    T_{allgather}(n, P) &= α \\log_2 P + β n (P-1)/P \\\\
    T_{broadcast}(n, P) &= α(\\log_2 P + P - 1) + 2 β n (P-1)/P \\\\
    T_{reduce\\_scatter}(n, P) &= α(P-1) + β n (P-1)/P

where ``n`` is the *total* message size in bytes.  The functions here
return ``(time_seconds, messages, bytes_sent_per_rank)`` triples so the
analytic engine can report latency (message counts) and volume alongside
time, and so tests can check the *executed* collectives against these
formulas.

Message counts mirror the algorithms actually implemented in
:mod:`repro.mpi.collectives` (Bruck allgather: ``ceil(log2 P)`` messages;
pairwise reduce-scatter / alltoall: ``P-1`` messages; binomial bcast for
short messages, scatter+allgather for long).  :func:`ca3dmm_phase_costs`
prices the blocks of the one derivation in :mod:`repro.analysis.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.verify import expected_phase_traffic
from .model import MachineModel


@dataclass(frozen=True)
class CollCost:
    """Cost of one collective from a single rank's point of view."""

    time: float  #: seconds in the α-β model
    msgs: int  #: messages sent by the rank
    bytes_sent: float  #: bytes sent by the rank

    def __add__(self, other: "CollCost") -> "CollCost":
        return CollCost(
            self.time + other.time,
            self.msgs + other.msgs,
            self.bytes_sent + other.bytes_sent,
        )


ZERO = CollCost(0.0, 0, 0.0)


def _log2ceil(p: int) -> int:
    return max(0, math.ceil(math.log2(p))) if p > 1 else 0


def allgather_cost(machine: MachineModel, nbytes: float, p: int) -> CollCost:
    """Bruck / recursive-doubling allgather of ``nbytes`` total."""
    if p <= 1:
        return ZERO
    steps = _log2ceil(p)
    vol = nbytes * (p - 1) / p
    return CollCost(machine.alpha * steps + machine.beta * vol, steps, vol)


def bcast_cost(machine: MachineModel, nbytes: float, p: int) -> CollCost:
    """van de Geijn broadcast (paper's ``T_broadcast``)."""
    if p <= 1:
        return ZERO
    steps = _log2ceil(p) + (p - 1)
    vol = 2.0 * nbytes * (p - 1) / p
    return CollCost(machine.alpha * steps + machine.beta * vol, steps, vol)


def reduce_scatter_cost(
    machine: MachineModel, nbytes: float, p: int, degraded: bool = True
) -> CollCost:
    """Pairwise-exchange reduce-scatter (paper's ``T_reduce_scatter``).

    When ``degraded`` and the per-step message exceeds the machine's
    MVAPICH2-style threshold, the bandwidth term is multiplied by the
    degradation factor (used for the GPU study, Table III).
    """
    if p <= 1:
        return ZERO
    vol = nbytes * (p - 1) / p
    beta = machine.beta
    if degraded and nbytes / p > machine.rs_degrade_threshold:
        beta *= machine.rs_degrade_factor
    return CollCost(machine.alpha * (p - 1) + beta * vol, p - 1, vol)


def alltoall_cost(machine: MachineModel, nbytes: float, p: int) -> CollCost:
    """Pairwise-exchange alltoall of ``nbytes`` local data."""
    if p <= 1:
        return ZERO
    vol = nbytes * (p - 1) / p
    return CollCost(machine.alpha * (p - 1) + machine.beta * vol, p - 1, vol)


def barrier_cost(machine: MachineModel, p: int) -> CollCost:
    if p <= 1:
        return ZERO
    steps = _log2ceil(p)
    return CollCost(machine.alpha * steps, steps, 0.0)


def p2p_cost(machine: MachineModel, nbytes: float) -> CollCost:
    """A single point-to-point message."""
    return CollCost(machine.alpha + machine.beta * nbytes, 1, nbytes)


def ca3dmm_phase_costs(plan, machine: MachineModel, item: int = 8) -> dict:
    """α-β cost of each CA3DMM communication phase for ``plan``.

    Prices the blocks of the phases
    :func:`repro.analysis.verify.expected_phase_traffic` schedules (the
    one derivation of the block extents) with the formulas above:

    - ``replicate``: allgather of the replicated operand block over the
      ``c`` k-groups sharing it,
    - ``cannon``: ``s`` rounds of two point-to-point shifts (A and B),
      covering the initial skew plus the ``s-1`` shift rounds,
    - ``reduce``: pairwise reduce-scatter of the C block over ``pk``.

    Returns ``{phase: CollCost}`` with per-rank critical costs; phases
    the plan does not schedule are absent.  ``item`` is the element size
    in bytes.  The audit layer (:mod:`repro.obs.audit`) compares these
    against the transport's measured per-phase counters.
    """
    out: dict[str, CollCost] = {}
    for phase, exp in expected_phase_traffic(plan).items():
        nbytes = [blk * item for blk in exp.blocks]
        if phase == "replicate":
            out[phase] = allgather_cost(machine, nbytes[0], plan.c)
        elif phase == "cannon":
            per_round = p2p_cost(machine, nbytes[0]) + p2p_cost(machine, nbytes[1])
            cost = ZERO
            for _ in range(plan.s):
                cost = cost + per_round
            out[phase] = cost
        else:
            out[phase] = reduce_scatter_cost(machine, nbytes[0], plan.pk)
    return out
