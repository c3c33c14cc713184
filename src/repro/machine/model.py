"""Machine models: the α-β-γ cost parameters driving simulated time.

A :class:`MachineModel` prices three things:

* a point-to-point message of ``n`` bytes between two ranks — node-aware:
  ranks are mapped to nodes contiguously (``ranks_per_node`` per node);
  intra-node messages move at shared memory-bus rates, inter-node
  messages share the node's NIC among the ranks placed on it (the
  mechanism behind the paper's pure-MPI vs MPI+OpenMP study, Fig. 4),
* local compute (``flops · γ``, γ = 1 / sustained per-rank GEMM rate),
* for the GPU variant, PCIe staging of operands around each local GEMM
  plus an MVAPICH2-style reduce-scatter degradation above a message-size
  threshold (the effect Section IV-C blames for the square / large-K
  GPU gap).

``peak_gamma`` (1 / nominal peak rate) is kept separate from ``gamma``
so "percentage of peak" plots match the paper's convention of dividing
by the hardware's theoretical peak rather than the sustained GEMM rate.

Presets approximate the paper's testbed (Georgia Tech PACE-Phoenix:
2 x Xeon Gold 6226, 24 cores/node, 100 Gb/s InfiniBand, NVIDIA V100).
Absolute seconds are not the point of the reproduction — the ratios
between phases and between algorithms are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineModel:
    """Cost parameters for the simulated cluster.

    Attributes
    ----------
    alpha:
        Inter-node message latency (seconds).
    nic_beta:
        Inverse bandwidth of a node's NIC in seconds/byte (the wire
        rate; 8e-11 ≈ 100 Gb/s).
    alpha_intra / beta_intra:
        Latency and per-rank inverse bandwidth for two ranks on the
        same node (shared memory transport).
    gamma:
        Seconds per flop of sustained local GEMM on one rank.
    peak_gamma:
        Seconds per flop at the hardware's *nominal* peak (used only
        for percent-of-peak reporting).
    cores_per_node:
        Physical cores per node (the OpenMP width in hybrid mode).
    ranks_per_node:
        Ranks mapped to each node in the current mode: ``cores_per_node``
        for pure MPI, 1 for hybrid, GPUs-per-node for GPU runs.
    nic_share:
        Effective NIC efficiency multiplier.  Per-rank inter-node
        bandwidth is ``nic_share / (nic_beta * ranks_per_node)``:
        values > 1 model the paper's observation that concurrent
        streams from many ranks per node extract more of the NIC than
        one rank's single stream does.
    gpu / gpu_stage_beta:
        Accelerator mode and its PCIe staging rate (seconds/byte).
    rs_degrade_threshold / rs_degrade_factor:
        Reduce-scatter pieces larger than the threshold (bytes) have
        their bandwidth term multiplied by the factor (MVAPICH2
        behaviour reported in the paper's GPU experiments).
    overlap:
        Compute/communication overlap capability of the async comm
        engine: ``"none"`` (default — every transfer is charged to the
        rank clock exactly as before the engine existed), ``"full"``
        (posted transfers and nonblocking collectives progress on a
        per-rank comm timeline with unlimited concurrency; waits charge
        only the uncovered remainder), or ``"partial"`` (same engine,
        but inter-node transfers of one rank serialize on its shared
        NIC).  When the engine is on, the ``nic_share`` stream bonus is
        capped at 1 — concurrency is then modeled, not fudged — see
        :attr:`beta`.
    """

    alpha: float = 1.8e-6
    nic_beta: float = 8.0e-11
    alpha_intra: float = 5.0e-7
    beta_intra: float = 2.5e-10
    gamma: float = 1.0 / 45e9
    peak_gamma: float = 1.0 / 86.4e9
    cores_per_node: int = 24
    ranks_per_node: int = 24
    nic_share: float = 1.0
    gpu: bool = False
    gpu_stage_beta: float = 0.0
    rs_degrade_threshold: float = float("inf")
    rs_degrade_factor: float = 1.0
    overlap: str = "none"

    #: Recognised ``overlap`` capabilities.
    OVERLAP_MODES = ("none", "full", "partial")

    def __post_init__(self) -> None:
        if self.overlap not in self.OVERLAP_MODES:
            raise ValueError(
                f"unknown overlap mode {self.overlap!r}; "
                f"expected one of {self.OVERLAP_MODES}"
            )

    # ------------------------------------------------------------------ #
    @property
    def overlap_enabled(self) -> bool:
        """True when the async comm engine models overlap explicitly."""
        return self.overlap != "none"

    @property
    def beta(self) -> float:
        """Effective per-rank inter-node inverse bandwidth (s/byte).

        With the async comm engine on (``overlap != "none"``) the
        ``nic_share`` multiplier is capped at 1: values > 1 are a
        stand-in for concurrent-stream overlap, and the engine now
        models that concurrency explicitly — letting the bonus stack on
        top would double-count the same effect.
        """
        share = self.nic_share
        if self.overlap_enabled:
            share = min(share, 1.0)
        return self.nic_beta * max(1, self.ranks_per_node) / share

    @property
    def peak_rate(self) -> float:
        """Nominal peak flop rate of one rank (flops/s)."""
        return 1.0 / self.peak_gamma

    def node_of(self, world_rank: int) -> int:
        """Node index for a rank under contiguous block mapping."""
        return world_rank // max(1, self.ranks_per_node)

    def same_node(self, r0: int, r1: int) -> bool:
        return self.node_of(r0) == self.node_of(r1)

    def msg_time(self, nbytes: float, src: int = 0, dst: int = 1) -> float:
        """Simulated transfer time of one point-to-point message."""
        if self.same_node(src, dst):
            return self.alpha_intra + self.beta_intra * nbytes
        return self.alpha + self.beta * nbytes

    def fan_out_time(self, nbytes: float, ranks: list[int]) -> float:
        """Time for ``ranks[0]`` to send one ``nbytes`` message to every
        other rank of the group, in turn.

        Equal bit for bit to adding ``msg_time(nbytes, ranks[0], r)``
        over ``ranks[1:]``, with the two values :meth:`msg_time` chooses
        between priced once per group instead of once per message.  The
        times are still *accumulated* left to right: ``sum()`` or a
        ``count * time`` closed form rounds differently in the last bit,
        and the paper-scale tables print these sums.
        """
        intra = self.alpha_intra + self.beta_intra * nbytes
        inter = self.alpha + self.beta * nbytes
        per_node = max(1, self.ranks_per_node)
        home = ranks[0] // per_node
        t = 0.0
        for r in ranks[1:]:
            t += intra if r // per_node == home else inter
        return t

    def compute_time(self, flops: float) -> float:
        """Simulated time of ``flops`` floating-point operations."""
        return flops * self.gamma

    def gemm_time(self, m: int, n: int, k: int, stage_bytes: int = 0) -> float:
        """Simulated time of a local ``m x k`` by ``k x n`` GEMM.

        ``stage_bytes`` adds PCIe staging time in GPU mode (operand +
        result traffic around the accelerator).
        """
        t = self.compute_time(2.0 * m * n * k)
        if self.gpu and self.gpu_stage_beta > 0.0 and stage_bytes:
            t += self.gpu_stage_beta * stage_bytes
        return t

    def with_mode(self, mode: str) -> "MachineModel":
        """Return a copy configured for a parallelization mode.

        ``"mpi"``: one rank per core, 24 ranks sharing the NIC (with the
        stream-overlap bonus).  ``"hybrid"``: one rank per node with
        node-aggregate compute at a modest OpenMP-efficiency haircut and
        a single NIC stream.
        """
        if mode == "mpi":
            # Concurrent streams from 24 ranks saturate the NIC wire rate
            # (the overlap effect of [31] cited in the paper).
            return replace(self, ranks_per_node=self.cores_per_node, nic_share=1.0)
        if mode == "hybrid":
            # Threaded MKL on one node-sized block is about as efficient
            # as 24 rank-local GEMMs, so the pure-vs-hybrid contrast is
            # carried by communication — the paper's own explanation of
            # Fig. 4 (inter-node volume and per-group collective sizes).
            # A single MPI stream cannot saturate the NIC (~60% of wire).
            return replace(
                self,
                ranks_per_node=1,
                gamma=self.gamma / self.cores_per_node,
                peak_gamma=self.peak_gamma / self.cores_per_node,
                nic_share=0.6,
            )
        raise ValueError(f"unknown mode {mode!r}")

    def with_overlap(self, mode: str) -> "MachineModel":
        """Return a copy with the async comm engine set to ``mode``.

        ``"none"`` is the engine with zero overlap (fully serialized);
        ``"full"``/``"partial"`` enable the engine (see the class
        docstring).  GPU PCIe staging (``gemm_time(stage_bytes=...)``)
        is unchanged by the engine: staging is compute-side bus time and
        is charged exactly once in every mode.
        """
        return replace(self, overlap=mode)


def pace_phoenix_cpu(mode: str = "mpi") -> MachineModel:
    """CPU preset approximating the paper's PACE-Phoenix nodes."""
    return MachineModel().with_mode(mode)


def pace_phoenix_gpu() -> MachineModel:
    """GPU preset: 2 V100s per node, one rank per GPU.

    V100 sustained DGEMM ≈ 6.2 TF (7.0 TF nominal); PCIe gen3 x16
    stages at ≈ 12 GB/s.  The reduce-scatter threshold models the
    large-message MVAPICH2 degradation the paper observed on square
    problems (Section IV-C).
    """
    return MachineModel(
        gamma=1.0 / 6.2e12,
        peak_gamma=1.0 / 7.0e12,
        cores_per_node=24,
        ranks_per_node=2,
        gpu=True,
        gpu_stage_beta=1.0 / 12e9,
        rs_degrade_threshold=8 * 2 ** 20,
        rs_degrade_factor=2.5,
        nic_share=1.0,
    )


def laptop() -> MachineModel:
    """A small uniform-link model for tests: easy to reason about."""
    return MachineModel(
        alpha=1e-6,
        nic_beta=1e-10,
        alpha_intra=1e-6,
        beta_intra=1e-10,
        gamma=1e-11,
        peak_gamma=1e-11,
        cores_per_node=10 ** 9,  # everything lands on one "node":
        ranks_per_node=10 ** 9,  # uniform links via the intra path
        nic_share=1.0,
    )
