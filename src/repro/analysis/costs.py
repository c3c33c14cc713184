"""Closed-form per-phase cost models of the executed algorithms.

The executed engine (ranks on the virtual MPI's discrete-event
scheduler, real data) validates correctness and measures traffic at
small P; this module prices the *same schedules* at the paper's scale
(hundreds of matrix-dimension-thousands, thousands of ranks) where
executing real data is impossible in Python.  Planning is shared — grid
selection, group shapes, and per-rank block sizes come from the
identical code paths — so the analytic engine only replaces data
movement with α-β prices.  The pattern pricers below (:func:`_pairwise`,
:func:`_bruck_allgather`, :func:`_reduce_scatter`, :func:`_bcast_vdg`,
:func:`_p2p`) are the one home of those prices under ``src/``, and the
executed collectives are tested against them
(``tests/analysis/test_collcost.py``).  A collective's rounds come from
:mod:`repro.patterns`, the one definition the executed collectives walk
too; its price is rank 0's row on the *world ranks* of the
representative (rank-0) group, so intra- vs inter-node links and the
pure-MPI/hybrid distinction of Fig. 4 fall out of the rank-to-node
mapping rather than ad-hoc factors.

Each closed form reads like its schedule, grid → moves → local GEMM, and
each move is priced once: :func:`_layered_cannon` is the 2.5D layer
schedule behind ``algo25d_cost`` and :func:`ctf_cost` (as ``ctf_matmul``
is ``algo25d_matmul`` on ``ctf_grid``), :func:`_summa_panels` the panel
loop behind ``summa_cost`` and CA3DMM-S, :func:`_local_gemm` one rank's
GEMM and :func:`_custom_layout` the conversion from a user's layout.

Every closed form (these three and ``baseline_costs``' four) checks its
problem with :func:`_checked` first.  :func:`ca3dmm_cost`,
:func:`cosma_cost` and :func:`ctf_cost` are pure functions of their
arguments and the paper's figures ask each question several times, so
each keeps its last :data:`COST_MEMO` reports by argument value; every
call, answered or priced, returns a fresh report (:func:`_fresh`) that
its caller may change.  The four baseline forms and :func:`redist_cost`
are not memoized: no caller asks them one question twice.

All volumes are in **words** (matrix elements); times in seconds.
``ITEM`` converts to bytes (double precision, as in the paper).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

from ..grid.factorize import prime_factors
from ..grid.optimizer import GridSpec, ca3dmm_grid, checked_sizes, cosma_grid, ctf_grid
from .. import patterns
from ..machine.model import MachineModel

ITEM = 8  #: bytes per word (float64)

#: :func:`redist_cost`'s alltoall bandwidth derate (many small per-pair
#: pieces, a global traffic pattern) and per-rank pack/unpack bandwidth.
REDIST_CONGESTION = 4.0
REDIST_PACK_BW = 4e9
#: Share of COSMA's replication its pipelined one-sided communication
#: hides behind the GEMM, by ``MachineModel.overlap``: 0.35 with the
#: engine off (COSMA's own progress thread still earns some cover on
#: hardware the runtime does not model), the COSMA-style overlap bound
#: the crossover maps price against with it on.
COSMA_OVERLAP = {"none": 0.35, "partial": 0.6, "full": 0.9}
#: CTF's local-GEMM derate and per-rank pack/unpack bandwidth (bytes/s)
#: for its internal cyclic layouts (see :func:`ctf_cost`).
CTF_GEMM_EFFICIENCY = 0.3
CTF_PACK_BW = 8e9
#: Reports each memoized closed form keeps: the paper's figures and tables
#: ask them 178 questions (80 / 78 / 20) in 272 calls a repetition.
COST_MEMO = 512


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


def _checked(nprocs, **sizes) -> tuple:
    """``(*sizes, nprocs)`` as a closed form prices them, integral values
    (numpy's too) made ``int``.  A ``ValueError`` names the argument: a
    size that is negative, infinite or NaN, an ``nprocs`` that is not an
    int >= 1 (a ``bool`` is not one).  A Python int skips the ABC checks,
    which would be most of a memo hit's time."""
    if type(nprocs) is not int and (
        isinstance(nprocs, bool) or not isinstance(nprocs, numbers.Integral)
    ) or nprocs < 1:
        raise ValueError(f"nprocs={nprocs!r}: a rank count must be an int >= 1")
    return (*checked_sizes(**sizes), int(nprocs))


def _fresh(rep: CostReport) -> CostReport:
    """A copy of a memoized report, each phase copied in insertion order
    (``t_total`` sums them in that order), so that no caller can change
    what the memo answers next."""
    return CostReport(
        rep.algo, rep.m, rep.n, rep.k, rep.nprocs, rep.grid, rep.machine,
        {name: PhaseCost(p.time, p.words, p.msgs) for name, p in rep.phases.items()},
        rep.mem_words, rep.flops_per_rank,
    )


# ------------------------------------------------------- pattern pricing -- #
@lru_cache(maxsize=256)
def _row(machine: MachineModel, ranks: tuple[int, ...], pattern, block: float):
    """``(time, words, msgs)`` of rank 0's sends in a :mod:`repro.patterns`
    row on the world ranks ``ranks``, ``block`` bytes per block, each
    priced as :meth:`MachineModel.msg_time` would, a size's two link
    prices made once.  Accumulated left to right, not multiplied: the
    paper-scale tables print these sums.  Cached: the paper's figures
    price 590 rows a pass, 209 of them distinct, of up to g - 1 rounds."""
    per_node = machine.ranks_per_node
    home = ranks[0] // per_node
    t = words = 0.0
    msgs, last = 0, None
    for dst, _, nblocks in pattern(0, len(ranks)):
        if dst is None:
            continue
        if nblocks != last:
            last, nbytes = nblocks, nblocks * block
            intra = machine.alpha_intra + machine.beta_intra * nbytes
            inter = machine.alpha + machine.beta * nbytes
        t += intra if ranks[dst] // per_node == home else inter
        words += nbytes / ITEM
        msgs += 1
    return t, words, msgs


def _pairwise(machine: MachineModel, ranks: list[int], block_bytes: float) -> PhaseCost:
    """Pairwise exchange (reduce-scatter / alltoall): g-1 rounds."""
    if len(ranks) <= 1:
        return PhaseCost()
    t, _, msgs = _row(machine, tuple(ranks), patterns.pairwise, block_bytes)
    return PhaseCost(time=t, words=block_bytes * msgs / ITEM, msgs=msgs)


def _bruck_allgather(machine: MachineModel, ranks: list[int], total_bytes: float) -> PhaseCost:
    """Bruck allgather of ``total_bytes`` distributed over the group."""
    if len(ranks) <= 1:
        return PhaseCost()
    return PhaseCost(*_row(machine, tuple(ranks), patterns.bruck, total_bytes / len(ranks)))


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
    if len(ranks) <= 1:
        return PhaseCost()
    piece = total_bytes / len(ranks)
    cost = PhaseCost(*_row(machine, tuple(ranks), patterns.linear_scatter, piece))
    cost += _bruck_allgather(machine, ranks, total_bytes)
    return cost


def _p2p(machine: MachineModel, src: int, dst: int, nbytes: float) -> PhaseCost:
    return PhaseCost(time=machine.msg_time(nbytes, src, dst), words=nbytes / ITEM, msgs=1)


def _local_gemm(machine: MachineModel, mb: float, nb: float, kb: float) -> float:
    """One rank's ``mb x kb`` by ``kb x nb`` GEMM, PCIe staging of the three
    blocks included (GPU mode)."""
    return machine.gemm_time(
        int(mb), int(nb), max(1, int(kb)),
        stage_bytes=int((mb * kb + kb * nb + mb * nb) * ITEM),
    )


# ------------------------------------------------------ layout conversion -- #
def redist_cost(
    machine: MachineModel, total_words: float, nprocs: int, overlap: float = 0.0
) -> PhaseCost:
    """Cost of converting ``total_words`` between unrelated layouts.

    Every rank sends ``(1-overlap)`` of its ``total/P`` share through
    the pairwise alltoall the executed redistribution uses.  The paper's
    conversion subroutine is deliberately unoptimized ("simply packs and
    unpacks matrix blocks and exchanges data using
    MPI_Neighbor_alltoallv"), so two real-world penalties are applied:
    two memory passes (pack + unpack) over the share at
    ``REDIST_PACK_BW``, and the alltoall time derated by
    ``REDIST_CONGESTION``.  These reproduce the paper's Fig. 3 finding
    that an unfavourable 1D layout can dominate the runtime for
    tall-and-skinny problems.
    """
    _checked(nprocs, total_words=total_words)
    if nprocs <= 1 or overlap >= 1.0:
        return PhaseCost()
    share = total_words / nprocs * (1.0 - overlap) * ITEM
    cost = _pairwise(machine, list(range(nprocs)), share / max(1, nprocs - 1))
    cost.time *= REDIST_CONGESTION
    cost.time += 2.0 * share / REDIST_PACK_BW
    return cost


def _custom_layout(rep: CostReport) -> None:
    """Steps 1 and 9 from a user's layout: A, B and C converted once, as
    the first phase of the report."""
    m, n, k = rep.m, rep.n, rep.k
    rep.phases["redist"] = redist_cost(rep.machine, float(m * k + k * n + m * n), rep.nprocs)


# ------------------------------------------------------- shared schedules -- #
def _summa_panels(
    rep: CostReport, g: GridSpec, mb: float, nb: float, width: float, iters: int
) -> PhaseCost:
    """SUMMA's panel loop on ``g``'s m x n face (``core.summa.summa_on_grid``):
    ``iters`` panels of ``width``, each A strip broadcast along the n-fiber,
    then its B strip along the m-fiber.  The two broadcasts are priced once
    and added in that order per panel — bit-identical to pricing each panel
    again.  Returns the replicate phase."""
    ph = rep.phase("replicate")
    strip_a = _bcast_vdg(rep.machine, g.fiber("n"), mb * width * ITEM)
    strip_b = _bcast_vdg(rep.machine, g.fiber("m"), width * nb * ITEM)
    for _ in range(iters):
        ph += strip_a
        ph += strip_b
    return ph


def _layered_cannon(rep: CostReport, sq: int, c: int) -> float:
    """The 2.5D schedule (``baselines.algo25d.algo25d_matmul``) on an
    ``sq x sq x c`` grid: A and B broadcast down the layer fibers, each
    layer's alignment and ⌈sq/c⌉-1 blocking shift pairs (no overlap),
    ⌈sq/c⌉ GEMM steps, and the reduction of C to layer 0.  Sets
    ``mem_words`` to the operand blocks' dual buffers and returns one C
    block's words, so each caller adds its own C buffers."""
    machine = rep.machine
    mb, nb, kb = rep.m / sq, rep.n / sq, rep.k / sq
    fiber = GridSpec(sq, sq, c, rep.nprocs).fiber("k")  # one rank per layer
    ph = rep.phase("replicate")
    ph += _bcast_vdg(machine, fiber, mb * kb * ITEM)
    ph += _bcast_vdg(machine, fiber, kb * nb * ITEM)
    steps = math.ceil(sq / c)
    if sq > 1:  # the alignment, then steps - 1 shifts: one A/B pair each
        pair = _p2p(machine, 0, sq, mb * kb * ITEM)
        pair += _p2p(machine, 0, 1, kb * nb * ITEM)
        for _ in range(steps):
            ph += pair
    rep.phase("compute").time += steps * _local_gemm(machine, mb, nb, kb)
    rep.flops_per_rank = 2.0 * mb * nb * kb * steps
    if c > 1:
        rep.phase("reduce").__iadd__(_reduce_scatter(machine, fiber, mb * nb * ITEM))
    rep.mem_words = 2.0 * (mb * kb + kb * nb)
    return mb * nb


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
    return _fresh(_ca3dmm_cost(*_checked(nprocs, m=m, n=n, k=k), machine, grid,
                               custom_layout, inner, summa_panel_frac))


@lru_cache(maxsize=COST_MEMO, typed=True)
def _ca3dmm_cost(m, n, k, nprocs, machine, grid, custom_layout, inner, summa_panel_frac):
    if inner not in ("cannon", "summa"):
        raise ValueError(f"inner must be 'cannon' or 'summa', not {inner!r}")
    search = ca3dmm_grid if inner == "cannon" else cosma_grid
    g = grid if grid is not None else search(m, n, k, nprocs)
    pm, pn, pk = g.pm, g.pn, g.pk
    rep = CostReport(
        algo="ca3dmm" if inner == "cannon" else "ca3dmm-s",
        m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{pm}x{pn}x{pk}", machine=machine,
    )
    mb, nb, kg = m / pm, n / pn, k / pk
    if custom_layout:
        _custom_layout(rep)

    if inner == "cannon":
        s, c = g.s, g.c
        kb = kg / s  # Cannon block k-extent
        blk_a, blk_b = mb * kb * ITEM, kb * nb * ITEM
        ph_rep = rep.phase("replicate")  # shifts count as "replicate A,B" (Fig. 5)

        # Step 5: allgather replication over the c-rank replica group
        # (replicas of A sit one Cannon group apart, of B one column).
        if c > 1:
            stride, repl_bytes = (pm * s, blk_a) if g.replicates_a else (s, blk_b)
            ph_rep += _bruck_allgather(machine, [i * stride for i in range(c)], repl_bytes)

        # Step 6: skew + s-1 overlapped shift steps.
        gemm_step = _local_gemm(machine, mb, nb, kb)
        ph_cmp = rep.phase("compute")
        if s > 1:
            # Initial skew: A travels u columns left (world-rank stride
            # s per column in the column-major group), B travels v rows
            # up (stride 1).
            skew = _p2p(machine, 0, s, blk_a)
            skew += _p2p(machine, 0, 1, blk_b)
            skew.msgs = 1  # the A/B pair travels in one round: eq. (10) counts s
            ph_rep += skew
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

        rep.mem_words = g.memory_words(m, n, k)
    else:  # SUMMA inner kernel (CA3DMM-S)
        panel = max(1.0, kg * summa_panel_frac)
        iters = math.ceil(kg / panel)
        ph_rep = _summa_panels(rep, g, mb, nb, panel, iters)
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
        rep.phase("compute").time += gemm
        rep.mem_words = 2.0 * (m * k + k * n) / g.used + pk * m * n / g.used

    # Step 7, either kernel: reduce-scatter over the pk-rank k-fiber.
    rep.flops_per_rank = 2.0 * mb * nb * kg
    if pk > 1:
        rep.phase("reduce").__iadd__(_reduce_scatter(machine, g.fiber("k"), mb * nb * ITEM))
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
) -> CostReport:
    """Predicted cost of the COSMA-like schedule (Section III-C).

    COSMA hides ``COSMA_OVERLAP[machine.overlap]`` of its replication
    behind computation with its pipelined one-sided communication (the
    paper credits COSMA with overlap; CA3DMM gets its overlap from the
    Cannon dual buffer instead).
    """
    return _fresh(_cosma_cost(*_checked(nprocs, m=m, n=n, k=k), machine, grid, custom_layout))


@lru_cache(maxsize=COST_MEMO, typed=True)
def _cosma_cost(m, n, k, nprocs, machine, grid, custom_layout):
    g = grid if grid is not None else cosma_grid(m, n, k, nprocs)
    pm, pn, pk = g.pm, g.pn, g.pk
    rep = CostReport(
        algo="cosma", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{pm}x{pn}x{pk}", machine=machine,
    )
    mb, nb, kg = m / pm, n / pn, k / pk
    if custom_layout:
        _custom_layout(rep)

    gemm = _local_gemm(machine, mb, nb, kg)
    ph_rep = rep.phase("replicate")
    if pn > 1:  # allgather A over the n-groups
        ph_rep += _bruck_allgather(machine, g.fiber("n"), mb * kg * ITEM)
    if pm > 1:  # allgather B over the m-groups
        ph_rep += _bruck_allgather(machine, g.fiber("m"), kg * nb * ITEM)
    # Pipelined overlap hides part of the replication behind the GEMM.
    hidden = min(ph_rep.time * COSMA_OVERLAP[machine.overlap], gemm * 0.9)
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
    rep.mem_words = mb * kg + kg * nb + mb * nb + (m * k + k * n) / max(1, g.used)
    return rep


# ------------------------------------------------------------- CTF / 2.5D -- #
def ctf_cost(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    machine: MachineModel,
    grid: GridSpec | None = None,
) -> CostReport:
    """Predicted cost of the CTF-like schedule: the 2.5D layers on
    ``ctf_grid`` plus three tensor-framework costs the paper's CTF
    measurements include.

    * Internal cyclic-layout packing/unpacking of every operand element,
      memory-bandwidth bound (``CTF_PACK_BW``), as a "framework" phase.
    * The local GEMM derated to ``CTF_GEMM_EFFICIENCY`` — the paper
      states CTF "is not fine tuned for matrix multiplication, so its
      parallel efficiency is less satisfying", and its Fig. 3 CTF curves
      sit a factor ~3-5 below the tuned libraries across all P, which a
      pure communication model cannot produce.
    * A second C buffer.

    There is no communication/computation overlap.  The traffic alone
    is ``algo25d_cost(sq=g.pm, c=min(g.pk, g.pm))`` on ``ctf_grid``'s face.
    """
    return _fresh(_ctf_cost(*_checked(nprocs, m=m, n=n, k=k), machine, grid))


@lru_cache(maxsize=COST_MEMO, typed=True)
def _ctf_cost(m, n, k, nprocs, machine, grid):
    g = grid if grid is not None else ctf_grid(m, n, k, nprocs)
    sq, c = g.pm, min(g.pk, g.pm)
    rep = CostReport(
        algo="ctf", m=m, n=n, k=k, nprocs=nprocs,
        grid=f"{sq}x{sq}x{c}", machine=machine,
    )
    c_words = _layered_cannon(rep, sq, c)
    rep.phases["compute"].time /= CTF_GEMM_EFFICIENCY
    local_words = (m * k + k * n + 2 * m * n) / max(1, g.used)
    rep.phase("framework").time += local_words * ITEM * 2.0 / CTF_PACK_BW
    rep.mem_words += 2.0 * c_words
    return rep
