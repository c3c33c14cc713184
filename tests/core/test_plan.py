"""Ca3dmmPlan against the paper's worked examples (Fig. 2) and invariants."""

from __future__ import annotations

import math

import pytest

from repro.core.plan import Ca3dmmPlan
from repro.grid.optimizer import GridSpec
from repro.layout.blocks import Rect


class TestExample1:
    """m=32, k=16, n=64, P=8 -> grid 2x4x1, c=2, A replicated (Fig. 2a)."""

    @pytest.fixture
    def plan(self):
        return Ca3dmmPlan(32, 64, 16, 8)

    def test_grid(self, plan):
        assert (plan.pm, plan.pn, plan.pk) == (2, 4, 1)
        assert plan.c == 2 and plan.s == 2
        assert plan.replicates_a

    def test_falls_back_to_2d(self, plan):
        """pk = 1: CA3DMM reduces to 2D Cannon's algorithm."""
        assert plan.pk == 1
        for rank in range(8):
            assert plan.c_owned(rank) == plan.c_block(
                plan.role(rank).i, plan.role(rank).j
            )

    def test_replica_pair_is_p1_p5(self, plan):
        """The paper pairs P1 (rank 0) and P5 (rank 4) on the same A block."""
        # one replica group, ordered by group index
        assert plan.groups(0)[1] == plan.groups(4)[1] == (0, 4)

    def test_p1_p5_jointly_hold_the_replicated_block(self, plan):
        a0, a4 = plan.a_owned(0), plan.a_owned(4)
        blk = plan.a_cannon_block(plan.role(0))
        assert blk == plan.a_cannon_block(plan.role(4))  # same post-replication block
        assert blk == Rect(0, 16, 0, 8)  # A(1:16, 1:8) in 1-based MATLAB notation
        # the pair's initial pieces tile the block disjointly
        assert a0.intersect(a4).is_empty()
        assert a0.area + a4.area == blk.area

    def test_cannon_groups_split_n(self, plan):
        # group 0 = P1..P4 (columns 0-1), group 1 = P5..P8 (columns 2-3)
        assert [plan.role(r).group for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


class TestExample2:
    """m=n=32, k=64, P=16 -> grid 2x2x4 (Fig. 2b)."""

    @pytest.fixture
    def plan(self):
        return Ca3dmmPlan(32, 32, 64, 16)

    def test_grid(self, plan):
        assert (plan.pm, plan.pn, plan.pk) == (2, 2, 4)
        assert plan.c == 1

    def test_k_task_groups(self, plan):
        """P1-P4 compute A(:,1:16) x B(1:16,:), P5-P8 the next slice, ..."""
        for rank in range(16):
            assert plan.role(rank).ik == rank // 4
        assert plan.k_range(0) == (0, 16)
        assert plan.k_range(1) == (16, 32)
        assert plan.k_range(3) == (48, 64)

    def test_final_c_strips_match_paper(self, plan):
        """P1 -> C(1:16,1:4), P5 -> C(1:16,5:8), P9 -> C(1:16,9:12), ..."""
        assert plan.c_owned(0) == Rect(0, 16, 0, 4)
        assert plan.c_owned(4) == Rect(0, 16, 4, 8)
        assert plan.c_owned(8) == Rect(0, 16, 8, 12)
        assert plan.c_owned(12) == Rect(0, 16, 12, 16)

    def test_kred_group_is_p1_p5_p9_p13(self, plan):
        # one k-reduction group, ordered by ik
        assert {plan.groups(r)[2] for r in (0, 4, 8, 12)} == {(0, 4, 8, 12)}


class TestExample3:
    """m=n=32, k=64, P=17: rank 17 is idle outside redistribution."""

    @pytest.fixture
    def plan(self):
        return Ca3dmmPlan(32, 32, 64, 17)

    def test_idle_rank(self, plan):
        assert plan.active == 16
        assert plan.role(16) is None
        assert plan.a_owned(16) is None
        assert plan.c_owned(16) is None
        assert plan.groups(16) == (None, None, None)

    def test_active_ranks_same_as_example2(self, plan):
        ref = Ca3dmmPlan(32, 32, 64, 16)
        for rank in range(16):
            assert plan.c_owned(rank) == ref.c_owned(rank)
            assert plan.a_owned(rank) == ref.a_owned(rank)
            assert plan.b_owned(rank) == ref.b_owned(rank)


class TestCoverage:
    @pytest.mark.parametrize(
        "m,n,k,P",
        [
            (32, 64, 16, 8),
            (32, 32, 64, 16),
            (32, 32, 64, 17),
            (7, 5, 3, 4),
            (40, 8, 8, 12),
            (8, 40, 8, 12),
            (1, 1, 64, 4),
            (64, 1, 16, 6),
            (16, 16, 1, 9),
            (33, 17, 29, 11),
            (13, 11, 50, 24),
        ],
    )
    def test_native_layouts_tile_exactly(self, m, n, k, P):
        plan = Ca3dmmPlan(m, n, k, P)
        plan.a_dist.validate()
        plan.b_dist.validate()
        plan.c_dist.validate()

    def test_b_replication_case(self):
        """pm > pn: B is the replicated operand, row-split pieces."""
        plan = Ca3dmmPlan(64, 16, 32, 8, grid=GridSpec(pm=4, pn=2, pk=1, nprocs=8))
        assert not plan.replicates_a and plan.c == 2
        r0 = plan.role(0)
        blk = plan.b_cannon_block(r0)
        piece = plan.b_owned(0)
        assert piece.rows * plan.c == pytest.approx(blk.rows, abs=plan.c)
        assert (piece.c0, piece.c1) == (blk.c0, blk.c1)  # full width, row piece
        plan.b_dist.validate()

    def test_row_split_c_strips(self):
        """Tall C blocks are row-split across the k-groups."""
        plan = Ca3dmmPlan(
            64, 4, 32, 8, grid=GridSpec(pm=1, pn=1, pk=8, nprocs=8)
        )
        strips = [plan.c_owned(r) for r in range(8)]
        assert all(s.cols == 4 for s in strips)  # full width
        assert sum(s.rows for s in strips) == 64
        plan.c_dist.validate()


class TestValidation:
    def test_incompatible_grid_rejected(self):
        with pytest.raises(ValueError):
            Ca3dmmPlan(8, 8, 8, 6, grid=GridSpec(pm=2, pn=3, pk=1, nprocs=6))

    def test_wrong_world_grid_rejected(self):
        with pytest.raises(ValueError):
            Ca3dmmPlan(8, 8, 8, 6, grid=GridSpec(pm=2, pn=2, pk=1, nprocs=4))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="^m=0: must be an int >= 1$"):
            Ca3dmmPlan(0, 4, 4, 4)

    @pytest.mark.parametrize("args, name", [
        ((8.5, 8, 8, 4), "m=8.5"),  # planned float Rects that dropped half a row
        ((math.inf, 8, 8, 4), "m=inf"),  # an OverflowError from the grid search
        ((8, 8, math.nan, 4), "k=nan"),
        ((8, 8.0, 8, 4), "n=8.0"),
    ])
    def test_a_size_that_is_not_an_integer_is_named(self, args, name):
        with pytest.raises(ValueError, match=f"^{name}: must be an int >= 1$"):
            Ca3dmmPlan(*args)

    def test_a_bool_world_is_rejected(self):
        """``Ca3dmmPlan(4, 4, 4, True)`` used to plan a 1-rank grid."""
        with pytest.raises(ValueError, match="nprocs"):
            Ca3dmmPlan(4, 4, 4, True)

    def test_rank_of_roundtrip(self):
        plan = Ca3dmmPlan(32, 32, 64, 16)
        for rank in range(plan.active):
            role = plan.role(rank)
            assert plan.rank_of(role.ik, role.i, role.j) == rank

    def test_describe_mentions_grid(self):
        text = Ca3dmmPlan(32, 64, 16, 8).describe()
        assert "2 x 4 x 1" in text
        assert "100.00 %" in text
