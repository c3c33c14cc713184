"""Analytic engine: internal consistency and executed cross-validation."""

from __future__ import annotations

import pytest

from repro.analysis.baseline_costs import algo1d_cost, carma_cost, summa_cost
from repro.analysis.costs import (
    ITEM,
    _bcast_vdg,
    _bruck_allgather,
    _pairwise,
    ca3dmm_cost,
    cosma_cost,
    ctf_cost,
    redist_cost,
)
from repro.analysis.verify import theoretical_metrics
from repro.bench import CPU_PROBLEMS, SCALING_PROCS
from repro.core import Ca3dmm
from repro.core.plan import Ca3dmmPlan
from repro.grid.optimizer import GridSpec, ca3dmm_grid
from repro.layout.matrix import DistMatrix, dense_random
from repro.machine.model import MachineModel, laptop, pace_phoenix_cpu, pace_phoenix_gpu


class TestReportBasics:
    def test_phase_accumulation(self):
        mach = pace_phoenix_cpu("mpi")
        rep = ca3dmm_cost(4096, 4096, 4096, 64, mach)
        assert rep.t_total == pytest.approx(sum(p.time for p in rep.phases.values()))
        assert rep.t_total > 0
        assert "compute" in rep.phases

    def test_pct_peak_bounded(self):
        mach = pace_phoenix_cpu("mpi")
        for P in (24, 192, 3072):
            rep = ca3dmm_cost(50000, 50000, 50000, P, mach)
            # Sustained rate is ~52% of nominal peak; efficiency can
            # never exceed it.
            assert 0 < rep.pct_peak() <= 100 * mach.peak_gamma / mach.gamma + 1e-9

    def test_forced_grid_respected(self):
        mach = pace_phoenix_cpu("mpi")
        rep = ca3dmm_cost(1000, 1000, 1000, 64, mach, grid=GridSpec(4, 4, 4, 64))
        assert rep.grid == "4x4x4"

    def test_custom_layout_adds_redist(self):
        mach = pace_phoenix_cpu("mpi")
        base = ca3dmm_cost(6000, 6000, 120000, 192, mach)
        conv = ca3dmm_cost(6000, 6000, 120000, 192, mach, custom_layout=True)
        assert conv.t_total > base.t_total
        assert "redist" in conv.phases and "redist" not in base.phases


class TestQLSConsistency:
    @pytest.mark.parametrize(
        "m,n,k,P",
        [(4096, 4096, 4096, 64), (512, 512, 65536, 64), (65536, 512, 512, 64)],
    )
    def test_report_q_matches_schedule_q(self, m, n, k, P):
        """CostReport words == the exact schedule volume of verify.py."""
        mach = laptop()
        rep = ca3dmm_cost(m, n, k, P, mach)
        plan = Ca3dmmPlan(m, n, k, P)
        q = theoretical_metrics(plan).q_words
        assert rep.q_words == pytest.approx(q, rel=0.05)

    def test_report_l_matches_eq10(self):
        """The analytic engine's rounds are eq. (10), at every Fig. 3 point."""
        mach = laptop()
        for prob in CPU_PROBLEMS:
            for P in SCALING_PROCS:
                rep = ca3dmm_cost(*prob.dims, P, mach)
                grid = ca3dmm_grid(*prob.dims, P)
                assert rep.l_msgs == grid.latency_ca3dmm(), (prob.cls, P)

    def test_report_memory_matches_eq11(self):
        mach = laptop()
        plan = Ca3dmmPlan(4096, 4096, 4096, 64)
        rep = ca3dmm_cost(4096, 4096, 4096, 64, mach)
        assert rep.mem_words == theoretical_metrics(plan).s_words


class TestExecutedCrossValidation:
    """The analytic time must track executed simulated time when both run
    the same machine model — the engines share their planning code."""

    @pytest.mark.parametrize(
        "m,n,k,P",
        [(48, 48, 96, 16), (64, 128, 32, 8), (96, 96, 96, 8)],
    )
    def test_time_within_factor_two(self, spmd, m, n, k, P):
        mach = laptop()
        plan = Ca3dmmPlan(m, n, k, P)

        def f(comm):
            eng = Ca3dmm(comm, m, n, k)
            a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
            b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
            t0 = comm.now()
            eng.multiply(a, b)
            return comm.now() - t0

        res = spmd(P, f, machine=mach)
        executed = max(res.results)
        predicted = ca3dmm_cost(m, n, k, P, mach).t_total
        assert predicted == pytest.approx(executed, rel=1.0)
        assert 0.3 * executed <= predicted <= 3.0 * executed


class TestRedistCost:
    def test_zero_cases(self):
        mach = laptop()
        assert redist_cost(mach, 1000.0, 1).time == 0
        assert redist_cost(mach, 1000.0, 8, overlap=1.0).time == 0

    def test_scales_with_volume(self):
        mach = pace_phoenix_cpu("mpi")
        small = redist_cost(mach, 1e6, 64)
        big = redist_cost(mach, 1e8, 64)
        assert big.time > small.time
        assert big.words == pytest.approx(100 * small.words, rel=1e-6)


class TestRefusals:
    """What a closed form cannot price is a ``ValueError`` naming the
    argument, not a label on another schedule's price, a negative time, a
    ``ZeroDivisionError`` or a one-rank run."""

    @pytest.mark.parametrize("argument,price", [
        ("inner", lambda mach: ca3dmm_cost(64, 64, 64, 8, mach, inner="summa-b")),
        ("inner", lambda mach: ca3dmm_cost(64, 64, 64, 8, mach, inner="Cannon")),
        ("nprocs", lambda mach: algo1d_cost(64, 64, 64, 0, mach)),
        ("nprocs", lambda mach: algo1d_cost(64, 64, 64, -1, mach, variant="k")),
        ("nprocs", lambda mach: carma_cost(64, 64, 64, 0, mach)),
        ("panel", lambda mach: summa_cost(64, 64, 64, 4, mach, panel=0)),
        ("panel", lambda mach: summa_cost(64, 64, 64, 4, mach, panel=-64)),
        ("dimensions", lambda mach: ca3dmm_cost(-4, 4, 4, 8, mach)),
        ("dimensions", lambda mach: cosma_cost(4, -4, 4, 8, mach)),
        ("dimensions", lambda mach: ctf_cost(-4, 4, 4, 8, mach)),
        ("nprocs", lambda mach: ctf_cost(64, 64, 64, 0, mach)),
        ("nprocs", lambda mach: ctf_cost(64, 64, 64, 2.5, mach)),
    ], ids=["ca3dmm-summa-b", "ca3dmm-Cannon", "1d-P0", "1d-k-P-1", "carma-P0",
            "summa-panel0", "summa-panel-64", "ca3dmm-m-4", "cosma-n-4", "ctf-m-4",
            "ctf-P0", "ctf-P2.5"])
    def test_unpriceable_input_is_a_value_error(self, argument, price):
        with pytest.raises(ValueError, match=argument):
            price(laptop())


class TestPatternPricingIsBitIdentical:
    """``_pairwise`` and ``_bcast_vdg`` price a group's two message times
    once (``MachineModel.fan_out_time``) and accumulate them; the sums
    must equal — ``==``, not ``approx`` — one ``msg_time`` call per
    message added left to right, because the committed tables print
    them."""

    MACHINES = {
        "mpi": pace_phoenix_cpu("mpi"),
        "hybrid": pace_phoenix_cpu("hybrid"),
        "gpu": pace_phoenix_gpu(),
        "mpi-full-overlap": pace_phoenix_cpu("mpi").with_overlap("full"),
    }

    @staticmethod
    def per_message(machine, ranks, nbytes):
        t = 0.0
        for r in ranks[1:]:
            t += machine.msg_time(nbytes, ranks[0], r)
        return t

    @pytest.mark.parametrize("g", [1, 2, 24, 341, 3072])
    @pytest.mark.parametrize("stride", [1, 2, 9, 24])
    @pytest.mark.parametrize("name", MACHINES)
    def test_equal_to_the_per_message_loop(self, name, stride, g):
        machine = self.MACHINES[name]
        ranks = [5 + i * stride for i in range(g)]  # rank 5: mid-node start
        for nbytes in (0.0, 8.0, 4096.0 / 3.0, 1e6 / 7.0, 2.5e9):
            cost = _pairwise(machine, ranks, nbytes)
            assert cost.time == self.per_message(machine, ranks, nbytes)
            assert cost.msgs == max(0, g - 1)
            assert cost.words == (nbytes * (g - 1) / ITEM if g > 1 else 0.0)

            bcast = _bcast_vdg(machine, ranks, nbytes)
            if g == 1:
                assert (bcast.time, bcast.words, bcast.msgs) == (0.0, 0.0, 0)
                continue
            piece, words = nbytes / g, 0.0
            for _ in ranks[1:]:
                words += piece / ITEM
            gather = _bruck_allgather(machine, ranks, nbytes)
            assert bcast.time == self.per_message(machine, ranks, piece) + gather.time
            assert bcast.words == words + gather.words
            assert bcast.msgs == g - 1 + gather.msgs


class TestShapesAtPaperScale:
    """The qualitative Fig.-3/Table-III orderings the reproduction claims."""

    @pytest.fixture(scope="class")
    def mach(self):
        return pace_phoenix_cpu("mpi")

    @pytest.mark.parametrize("P", [192, 768, 3072])
    def test_ctf_much_slower(self, mach, P):
        for dims in [(50000, 50000, 50000), (6000, 6000, 1200000)]:
            ca = ca3dmm_cost(*dims, P, mach).t_total
            ct = ctf_cost(*dims, P, mach).t_total
            assert ct > 1.5 * ca

    @pytest.mark.parametrize("P", [192, 768, 3072])
    def test_ca3dmm_not_worse_than_cosma_square_flat(self, mach, P):
        for dims in [(50000, 50000, 50000), (100000, 100000, 5000)]:
            ca = ca3dmm_cost(*dims, P, mach).t_total
            co = cosma_cost(*dims, P, mach).t_total
            assert ca <= co * 1.02

    @pytest.mark.parametrize("P", [192, 768, 3072])
    def test_large_k_m_close(self, mach, P):
        for dims in [(6000, 6000, 1200000), (1200000, 6000, 6000)]:
            ca = ca3dmm_cost(*dims, P, mach).t_total
            co = cosma_cost(*dims, P, mach).t_total
            assert ca == pytest.approx(co, rel=0.10)

    def test_strong_scaling_monotone(self, mach):
        times = [
            ca3dmm_cost(50000, 50000, 50000, P, mach).t_total
            for P in (192, 384, 768, 1536, 3072)
        ]
        assert all(a > b for a, b in zip(times[:-1], times[1:]))

    def test_gpu_reduce_scatter_penalty(self):
        """Table III mechanism: the MVAPICH2 threshold hits CA3DMM (plain
        MPI collectives) but not COSMA (its own trees) on square GPUs."""
        gm = pace_phoenix_gpu()
        dims = (50000, 50000, 50000)
        ca = ca3dmm_cost(*dims, 16, gm)
        co = cosma_cost(*dims, 16, gm)
        assert co.t_total < ca.t_total

    def test_gpu_large_m_parity(self):
        gm = pace_phoenix_gpu()
        dims = (300000, 10000, 10000)
        ca = ca3dmm_cost(*dims, 32, gm)
        co = cosma_cost(*dims, 32, gm)
        assert ca.t_total == pytest.approx(co.t_total, rel=0.15)


class TestMachineModel:
    def test_mode_switch(self):
        base = MachineModel()
        mpi = base.with_mode("mpi")
        hyb = base.with_mode("hybrid")
        assert mpi.ranks_per_node == base.cores_per_node
        assert hyb.ranks_per_node == 1
        assert hyb.gamma < mpi.gamma  # node-aggregate rate
        with pytest.raises(ValueError):
            base.with_mode("cuda")

    def test_node_awareness(self):
        m = MachineModel(ranks_per_node=4)
        assert m.same_node(0, 3)
        assert not m.same_node(3, 4)
        intra = m.msg_time(10 ** 6, 0, 3)
        inter = m.msg_time(10 ** 6, 0, 4)
        assert intra < inter

    def test_effective_beta_shares_nic(self):
        m = MachineModel(nic_beta=1e-10, ranks_per_node=10, nic_share=1.0)
        assert m.beta == pytest.approx(1e-9)

    def test_gpu_staging(self):
        g = pace_phoenix_gpu()
        plain = g.compute_time(2.0 * 100 * 100 * 100)
        staged = g.gemm_time(100, 100, 100, stage_bytes=10 ** 9)
        assert staged > plain
