"""Closed-form per-phase cost models of the executed algorithms.

The executed engine (threads + real data) validates correctness and
measures traffic at small P; this module prices the *same schedules* at
the paper's scale (hundreds of matrix-dimension-thousands, thousands of
ranks) where executing real data is impossible in Python.  Planning is
shared — grid selection, group shapes, and per-rank block sizes come
from the identical code paths — so the analytic engine only replaces
data movement with the α-β formulas of :mod:`repro.machine.collcost`,
which the executed collectives are tested to match.

Node-awareness: every collective is priced on the *world ranks* of the
representative (rank-0) group, so intra-node vs inter-node links and the
pure-MPI/hybrid distinction of Fig. 4 fall out of the rank-to-node
mapping rather than ad-hoc factors.

All volumes are in **words** (matrix elements); times in seconds.
``ITEM`` converts to bytes (double precision, as in the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..grid.factorize import prime_factors
from ..grid.optimizer import GridSpec, ca3dmm_grid, cosma_grid, ctf_grid
from ..machine.model import MachineModel

ITEM = 8  #: bytes per word (float64)


@dataclass
class PhaseCost:
    """Cost of one phase on the critical rank."""

    time: float = 0.0
    words: float = 0.0  #: words sent by the rank
    msgs: int = 0  #: communication rounds (the paper's latency metric)

    def __iadd__(self, other: "PhaseCost") -> "PhaseCost":
        self.time += other.time
        self.words += other.words
        self.msgs += other.msgs
        return self


@dataclass
class CostReport:
    """Per-phase predicted costs of one algorithm on one problem."""

    algo: str
    m: int
    n: int
    k: int
    nprocs: int
    grid: str
    machine: MachineModel
    phases: dict[str, PhaseCost] = field(default_factory=dict)
    mem_words: float = 0.0
    flops_per_rank: float = 0.0

    def phase(self, name: str) -> PhaseCost:
        if name not in self.phases:
            self.phases[name] = PhaseCost()
        return self.phases[name]

    @property
    def t_total(self) -> float:
        return sum(p.time for p in self.phases.values())

    @property
    def q_words(self) -> float:
        """Max words sent by a rank (the paper's communication size Q)."""
        return sum(p.words for p in self.phases.values())

    @property
    def l_msgs(self) -> int:
        """Communication rounds (the paper's latency L)."""
        return sum(p.msgs for p in self.phases.values())

    @property
    def mem_mb(self) -> float:
        return self.mem_words * ITEM / 2 ** 20

    def pct_peak(self) -> float:
        """Achieved percentage of *nominal* peak, as plotted in Fig. 3/4."""
        total_flops = 2.0 * self.m * self.n * self.k
        peak_rate = self.nprocs * self.machine.peak_rate
        if self.t_total <= 0:
            return 0.0
        return (total_flops / self.t_total) / peak_rate * 100.0


# ------------------------------------------------------- pattern pricing -- #
def _pairwise(machine: MachineModel, ranks: list[int], block_bytes: float) -> PhaseCost:
    """Pairwise exchange (reduce-scatter / alltoall): g-1 rounds."""
    g = len(ranks)
    if g <= 1:
        return PhaseCost()
    t = machine.fan_out_time(block_bytes, ranks)
    return PhaseCost(time=t, words=block_bytes * (g - 1) / ITEM, msgs=g - 1)


def _bruck_allgather(machine: MachineModel, ranks: list[int], total_bytes: float) -> PhaseCost:
    """Bruck allgather of ``total_bytes`` distributed over the group."""
    g = len(ranks)
    if g <= 1:
        return PhaseCost()
    me_idx = 0
    block = total_bytes / g
    t, words, h, msgs = 0.0, 0.0, 1, 0
    while h < g:
        cnt = min(h, g - h)
        dest = ranks[(me_idx - h) % g]
        t += machine.msg_time(cnt * block, ranks[me_idx], dest)
        words += cnt * block / ITEM
        msgs += 1
        h += cnt
    return PhaseCost(time=t, words=words, msgs=msgs)


def _reduce_scatter(
    machine: MachineModel, ranks: list[int], total_bytes: float, degraded: bool = True
) -> PhaseCost:
    """Pairwise reduce-scatter with two MPI-library degradations.

    ``degraded=False`` models a library that ships its own reduction
    trees (COSMA) and therefore dodges both: the MVAPICH2 threshold
    behaviour (GPU study, Section IV-C) and the group-factorability
    penalty — butterfly reductions need well-factorable group sizes, so
    groups with a large prime factor (the paper's "for collective
    operations, pk = 341 is unfavorable", Table II) pay a bandwidth
    surcharge.
    """
    g = len(ranks)
    if g <= 1:
        return PhaseCost()
    piece = total_bytes / g
    cost = _pairwise(machine, ranks, piece)
    if degraded:
        if piece > machine.rs_degrade_threshold:
            cost.time += (
                (machine.rs_degrade_factor - 1.0) * machine.beta * piece * (g - 1)
            )
        lpf = max(prime_factors(g))
        if lpf > 4:
            surcharge = min(0.05 * (lpf - 2), 2.0)
            cost.time += surcharge * machine.beta * piece * (g - 1)
    return cost


def _bcast_vdg(machine: MachineModel, ranks: list[int], total_bytes: float) -> PhaseCost:
    """van de Geijn bcast: scatter (root-critical) + Bruck allgather."""
    g = len(ranks)
    if g <= 1:
        return PhaseCost()
    piece = total_bytes / g
    t = machine.fan_out_time(piece, ranks)
    words = 0.0
    for _ in range(g - 1):  # accumulated, not multiplied: see fan_out_time
        words += piece / ITEM
    ag = _bruck_allgather(machine, ranks, total_bytes)
    return PhaseCost(time=t + ag.time, words=words + ag.words, msgs=(g - 1) + ag.msgs)


def _p2p(machine: MachineModel, src: int, dst: int, nbytes: float) -> PhaseCost:
    return PhaseCost(time=machine.msg_time(nbytes, src, dst), words=nbytes / ITEM, msgs=1)


# ------------------------------------------------------ layout conversion -- #
def redist_cost(
    machine: MachineModel,
    total_words: float,
    nprocs: int,
    overlap: float = 0.0,
    congestion: float = 4.0,
    pack_bw: float = 4e9,
) -> PhaseCost:
    """Cost of converting ``total_words`` between unrelated layouts.

    Every rank sends ``(1-overlap)`` of its ``total/P`` share through
    the pairwise alltoall the executed redistribution uses.  The paper's
    conversion subroutine is deliberately unoptimized ("simply packs and
    unpacks matrix blocks and exchanges data using
    MPI_Neighbor_alltoallv"), so two real-world penalties are applied:
    ``pack_bw`` charges two memory passes (pack + unpack) over the share
    at a per-rank memory bandwidth, and ``congestion`` derates the
    alltoall bandwidth for the many small per-pair pieces and the global
    traffic pattern.  These reproduce the paper's Fig. 3 finding that an
    unfavourable 1D layout can dominate the runtime for tall-and-skinny
    problems.
    """
    if nprocs <= 1 or overlap >= 1.0:
        return PhaseCost()
    share = total_words / nprocs * (1.0 - overlap) * ITEM
    cost = _pairwise(machine, list(range(nprocs)), share / max(1, nprocs - 1))
    cost.time *= congestion
    cost.time += 2.0 * share / pack_bw
    return cost


# --------------------------------------------------------------- CA3DMM -- #
def ca3dmm_cost(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    grid: GridSpec | None = None,
    custom_layout: bool = False,
    inner: str = "cannon",
    summa_panel_frac: float = 1.0,
) -> CostReport:
    """Predicted cost of CA3DMM (or CA3DMM-S with ``inner='summa'``)."""
    g = grid if grid is not None else (
        ca3dmm_grid(m, n, k, nprocs) if inner == "cannon" else cosma_grid(m, n, k, nprocs)
    )
    pm, pn, pk = g.pm, g.pn, g.pk
    rep = CostReport(
        algo="ca3dmm" if inner == "cannon" else "ca3dmm-s",
        m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{pm}x{pn}x{pk}", machine=machine,
    )
    mb, nb, kg = m / pm, n / pn, k / pk

    if custom_layout:
        rep.phase("redist").__iadd__(
            redist_cost(machine, float(m * k + k * n + m * n), nprocs)
        )

    if inner == "cannon":
        s, c = g.s, g.c
        kb = kg / s  # Cannon block k-extent
        blk_a = mb * kb * ITEM
        blk_b = kb * nb * ITEM

        # Step 5: allgather replication over the c-rank replica group.
        if c > 1:
            if g.replicates_a:
                stride = pm * s  # replicas sit one Cannon group apart
                repl_bytes = blk_a
            else:
                stride = s
                repl_bytes = blk_b
            ranks = [i * stride for i in range(c)]
            rep.phase("replicate").__iadd__(_bruck_allgather(machine, ranks, repl_bytes))

        # Step 6: skew + s-1 overlapped shift steps.
        gemm_step = machine.gemm_time(
            int(mb), int(nb), max(1, int(kb)), stage_bytes=int((mb * kb + kb * nb + mb * nb) * ITEM)
        )
        ph_rep = rep.phase("replicate")  # shifts count as "replicate A,B" (Fig. 5)
        ph_cmp = rep.phase("compute")
        if s > 1:
            # Initial skew: A travels u columns left (world-rank stride
            # s per column in the column-major group), B travels v rows
            # up (stride 1).
            skew = _p2p(machine, 0, s, blk_a)
            skew.__iadd__(_p2p(machine, 0, 1, blk_b))
            skew.msgs = 1  # the A/B pair travels in one round: eq. (10) counts s
            ph_rep.__iadd__(skew)
            # Dual-buffer overlap: each of the s-1 shift steps costs the
            # larger of the transfer pair and the local GEMM step; only
            # the non-hidden communication remainder lands in "replicate".
            # With the full async engine the A and B shifts progress as
            # independent streams (step = max(gemm, max(flight_a,
            # flight_b))); "none"/"partial" price the single-NIC
            # serialization (step = max(gemm, flight_a + flight_b)) —
            # the executed arithmetic tests/core/test_cannon.py pins.
            msg_a = machine.msg_time(blk_a, 0, s)
            msg_b = machine.msg_time(blk_b, 0, 1)
            if machine.overlap == "full":
                shift_pair = max(msg_a, msg_b)
            else:
                shift_pair = msg_a + msg_b
            ph_rep.time += (s - 1) * max(0.0, shift_pair - gemm_step)
            ph_rep.words += (s - 1) * (blk_a + blk_b) / ITEM
            ph_rep.msgs += s - 1
            ph_cmp.time += s * gemm_step
        else:
            ph_cmp.time += gemm_step

        repl_factor_a = c if g.replicates_a else 1
        repl_factor_b = 1 if g.replicates_a else c
        rep.mem_words = (
            2.0 * (repl_factor_a * m * k + repl_factor_b * k * n) / g.used
            + pk * m * n / g.used
        )
    else:  # SUMMA inner kernel (CA3DMM-S)
        panel = max(1.0, kg * summa_panel_frac)
        iters = math.ceil(kg / panel)
        ph_rep = rep.phase("replicate")
        ph_cmp = rep.phase("compute")
        for _ in range(iters):
            if pn > 1:
                ph_rep.__iadd__(
                    _bcast_vdg(machine, g.fiber("n"), mb * panel * ITEM)
                )
            if pm > 1:
                ph_rep.__iadd__(
                    _bcast_vdg(machine, g.fiber("m"), panel * nb * ITEM)
                )
        gemm = machine.gemm_time(int(mb), int(nb), max(1, int(kg)))
        if machine.overlap_enabled and iters > 1:
            # Pipelined multicast: panel p+1's broadcasts ride the async
            # engine under panel p's GEMM.  Panel 0 stays an exposed
            # prologue, so at most (iters-1)/iters of the broadcast time
            # can hide, and "partial" halves the cover (one shared NIC
            # stream serializes the A- and B-panel broadcasts).
            frac = (iters - 1) / iters
            if machine.overlap == "partial":
                frac *= 0.5
            ph_rep.time -= frac * min(ph_rep.time, gemm)
        ph_cmp.time += gemm
        rep.mem_words = 2.0 * (m * k + k * n) / g.used + pk * m * n / g.used

    # Step 7, either kernel: reduce-scatter over the pk-rank k-fiber.
    rep.flops_per_rank = 2.0 * mb * nb * kg
    if pk > 1:
        rep.phase("reduce").__iadd__(
            _reduce_scatter(machine, g.fiber("k"), mb * nb * ITEM)
        )
    if custom_layout:
        rep.phase("redist").__iadd__(PhaseCost())  # C conversion folded above
    return rep


# ---------------------------------------------------------------- COSMA -- #
def cosma_cost(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    grid: GridSpec | None = None,
    custom_layout: bool = False,
    overlap_factor: float | None = None,
) -> CostReport:
    """Predicted cost of the COSMA-like schedule (Section III-C).

    ``overlap_factor`` is the fraction of replication time COSMA hides
    behind computation with its pipelined one-sided communication (the
    paper credits COSMA with overlap; CA3DMM gets its overlap from the
    Cannon dual buffer instead).  When ``None`` it is derived from the
    machine's async-engine capability: the historical 0.35 under
    ``overlap="none"`` (COSMA's own progress thread still earns some
    cover on hardware the runtime does not model), 0.9 under ``"full"``
    and 0.6 under ``"partial"`` — the COSMA-style overlap bound the
    bench crossover maps price against.
    """
    if overlap_factor is None:
        overlap_factor = {"none": 0.35, "partial": 0.6, "full": 0.9}[
            machine.overlap
        ]
    g = grid if grid is not None else cosma_grid(m, n, k, nprocs)
    pm, pn, pk = g.pm, g.pn, g.pk
    rep = CostReport(
        algo="cosma", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{pm}x{pn}x{pk}", machine=machine,
    )
    mb, nb, kg = m / pm, n / pn, k / pk

    if custom_layout:
        rep.phase("redist").__iadd__(
            redist_cost(machine, float(m * k + k * n + m * n), nprocs)
        )

    gemm = machine.gemm_time(
        int(mb), int(nb), max(1, int(kg)),
        stage_bytes=int((mb * kg + kg * nb + mb * nb) * ITEM),
    )
    ph_rep = rep.phase("replicate")
    if pn > 1:  # allgather A over the n-groups
        ph_rep.__iadd__(_bruck_allgather(machine, g.fiber("n"), mb * kg * ITEM))
    if pm > 1:  # allgather B over the m-groups
        ph_rep.__iadd__(_bruck_allgather(machine, g.fiber("m"), kg * nb * ITEM))
    # Pipelined overlap hides part of the replication behind the GEMM.
    hidden = min(ph_rep.time * overlap_factor, gemm * 0.9)
    ph_rep.time -= hidden

    rep.phase("compute").time += gemm
    rep.flops_per_rank = 2.0 * mb * nb * kg
    if pk > 1:
        # COSMA's own binary-tree collectives dodge the MVAPICH2
        # reduce-scatter threshold the paper observed (Section IV-C).
        rep.phase("reduce").__iadd__(
            _reduce_scatter(machine, g.fiber("k"), mb * nb * ITEM, degraded=False)
        )

    # Fully materialized replicated operands, the local C block, and the
    # initial 1/P shares the allgathers started from.  (Unlike CA3DMM's
    # dual-buffered Cannon blocks, COSMA's buffers hold each operand
    # once — the allgather output *is* the compute operand.)
    rep.mem_words = (
        mb * kg + kg * nb + mb * nb + (m * k + k * n) / max(1, g.used)
    )
    return rep


# ------------------------------------------------------------- CTF / 2.5D -- #
def ctf_cost(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    grid: GridSpec | None = None,
    framework_overhead: bool = True,
    gemm_efficiency: float = 0.3,
) -> CostReport:
    """Predicted cost of the CTF-like 2.5D schedule.

    ``framework_overhead`` adds the tensor-framework costs the paper's
    CTF measurements include: internal cyclic-layout packing/unpacking
    of every operand element (memory-bandwidth bound) and no
    communication/computation overlap.  ``gemm_efficiency`` derates the
    local GEMM rate — the paper states CTF "is not fine tuned for matrix
    multiplication, so its parallel efficiency is less satisfying", and
    its Fig. 3 CTF curves sit a factor ~3-5 below the tuned libraries
    across all P, which a pure communication model cannot produce.
    """
    g = grid if grid is not None else ctf_grid(m, n, k, nprocs)
    sq, c = g.pm, min(g.pk, g.pm)
    rep = CostReport(
        algo="ctf", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{sq}x{sq}x{c}", machine=machine,
    )
    mb, nb = m / sq, n / sq
    kb = k / sq  # Cannon-block k extent on the sq x sq face
    fiber = GridSpec(sq, sq, c, g.nprocs).fiber("k")  # one rank per layer

    ph_rep = rep.phase("replicate")
    if c > 1:  # broadcast A and B down the layer fibers
        ph_rep.__iadd__(_bcast_vdg(machine, fiber, mb * kb * ITEM))
        ph_rep.__iadd__(_bcast_vdg(machine, fiber, kb * nb * ITEM))
    steps = math.ceil(sq / c)
    if sq > 1:
        # Alignment + per-step shifts (no overlap in CTF mode).
        ph_rep.time += machine.msg_time(mb * kb * ITEM, 0, sq) + machine.msg_time(
            kb * nb * ITEM, 0, 1
        )
        ph_rep.words += mb * kb + kb * nb
        ph_rep.msgs += 2
        for _ in range(max(0, steps - 1)):
            ph_rep.time += machine.msg_time(mb * kb * ITEM, 0, sq) + machine.msg_time(
                kb * nb * ITEM, 0, 1
            )
            ph_rep.words += mb * kb + kb * nb
            ph_rep.msgs += 2
    ph_cmp = rep.phase("compute")
    eff = gemm_efficiency if framework_overhead else 1.0
    ph_cmp.time += steps * machine.gemm_time(
        int(mb), int(nb), max(1, int(kb)),
        stage_bytes=int((mb * kb + kb * nb + mb * nb) * ITEM),
    ) / eff
    rep.flops_per_rank = 2.0 * mb * nb * kb * steps
    if c > 1:
        rep.phase("reduce").__iadd__(
            _reduce_scatter(machine, fiber, mb * nb * ITEM)
        )

    if framework_overhead:
        local_words = (m * k + k * n + 2 * m * n) / max(1, g.used)
        mem_bw = 8e9  # bytes/s per rank for pack/unpack of cyclic layouts
        rep.phase("framework").time += local_words * ITEM * 2.0 / mem_bw
    rep.mem_words = 2.0 * (mb * kb + kb * nb) + 2.0 * mb * nb
    return rep

