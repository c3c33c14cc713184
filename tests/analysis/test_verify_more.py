"""The verification helpers themselves (eqs. 9-11 closed forms)."""

from __future__ import annotations

import pytest

from repro.analysis.verify import (
    PaperMetrics,
    eq9_lower_bound,
    expected_phase_traffic,
    theoretical_metrics,
)
from repro.core.plan import Ca3dmmPlan
from repro.grid.optimizer import GridSpec


class TestEq9:
    def test_value(self):
        assert eq9_lower_bound(8, 8, 8, 8) == pytest.approx(3 * (64.0) ** (2 / 3))

    def test_scaling_in_p(self):
        q1 = eq9_lower_bound(1000, 1000, 1000, 10)
        q8 = eq9_lower_bound(1000, 1000, 1000, 80)
        assert q1 / q8 == pytest.approx(4.0)  # P^(2/3)

    def test_symmetric_in_dims(self):
        assert eq9_lower_bound(10, 20, 30, 4) == eq9_lower_bound(30, 10, 20, 4)


class TestTheoreticalMetrics:
    def test_serial_plan_free(self):
        m = theoretical_metrics(Ca3dmmPlan(16, 16, 16, 1))
        assert m.q_words == 0
        assert m.l_rounds == 0

    def test_pure_1d_k_plan(self):
        plan = Ca3dmmPlan(8, 8, 64, 8, grid=GridSpec(1, 1, 8, 8))
        m = theoretical_metrics(plan)
        assert m.l_rounds == 7  # reduce-scatter only
        assert m.q_words == pytest.approx(8 * 8 * 7 / 8)

    def test_pure_2d_plan(self):
        plan = Ca3dmmPlan(16, 16, 16, 4, grid=GridSpec(2, 2, 1, 4))
        m = theoretical_metrics(plan)
        assert m.l_rounds == 2  # skew + 1 shift round
        blk = 8 * 8
        assert m.q_words == pytest.approx(2 * 2 * blk)

    def test_replicated_plan_counts_allgather(self):
        plan = Ca3dmmPlan(32, 64, 16, 8)  # 2x4x1, c=2
        m = theoretical_metrics(plan)
        blk_a = 16 * 8
        assert m.q_words >= blk_a * 0.5  # the (c-1)/c replication share
        assert m.l_rounds == 1 + 2  # log2(2) + s

    def test_memory_includes_dual_buffers(self):
        plan = Ca3dmmPlan(32, 64, 16, 8)
        m = theoretical_metrics(plan)
        # eq. (11): 2(c*mk + kn)/P + pk*mn/P
        expect = 2 * (2 * 32 * 16 + 16 * 64) / 8 + 1 * 32 * 64 / 8
        assert m.s_words == pytest.approx(expect)


_SHAPES = [(64, 64, 64), (96, 96, 96), (50, 37, 41), (32, 64, 16),
           (1000, 8, 8), (8, 8, 1000), (17, 5, 40)]
_PROCS = [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16, 17, 24, 32, 64]


class TestOneDerivation:
    """Every closed form has one home; the others are composed from it."""

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("nprocs", _PROCS)
    def test_theoretical_metrics_is_the_sum_of_the_parts(self, shape, nprocs):
        plan = Ca3dmmPlan(*shape, nprocs)
        assert theoretical_metrics(plan) == PaperMetrics(
            q_words=sum((e.words for e in expected_phase_traffic(plan).values()), 0.0),
            l_rounds=plan.grid.latency_ca3dmm(),
            s_words=plan.grid.memory_words(*shape),
        )
