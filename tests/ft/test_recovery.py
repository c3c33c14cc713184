"""ULFM-style rank-failure recovery, end to end.

The acceptance story (ISSUE): a seeded plan that permanently kills a
rank mid-Cannon must leave :func:`~repro.ft.resilient_multiply` with a
correct C on every survivor — the survivors agree on the failure,
shrink the communicator, re-plan the CA3DMM grid for P' ranks,
redistribute the surviving A/B panels from buddy backups, and re-run.
Exhausting the retry budget or losing a buddy pair must surface a
typed :class:`~repro.ft.UnrecoverableError` instead of hanging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ft import UnrecoverableError, resilient_multiply
from repro.ft.recovery import _compact_k, _compacted_layout
from repro.layout import BlockCol1D, BlockCyclic2D, DistMatrix, Rect, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, RankFault, run_spmd
from tests.conftest import assert_replay_identical

M, N, K, P = 24, 20, 28, 8
REF = dense_random(M, K, seed=7) @ dense_random(K, N, seed=8)
TOL = 1e-9 * max(1.0, float(np.abs(REF).max()))


def _resilient(max_recoveries=1, abft=False):
    def f(comm):
        a = DistMatrix.from_global(
            comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
        )
        b = DistMatrix.from_global(
            comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
        )
        c = resilient_multiply(
            comm, a, b,
            c_dist=lambda cm: BlockCol1D((M, N), cm.size),
            abft=abft,
            max_recoveries=max_recoveries,
        )
        return c.to_global()

    return f


def _run(faults=None, fn=None, nprocs=P, record_events=True):
    return run_spmd(
        nprocs, fn or _resilient(), machine=laptop(),
        record_events=record_events, faults=faults,
    )


def _kill(rank, occurrence=1):
    return RankFault(rank=rank, phase="cannon", occurrence=occurrence, kill=True)


class TestKillRecovery:
    PLAN = FaultPlan(seed=0, ranks=(_kill(3),))

    def test_survivors_recover_correct_c(self):
        res = _run(faults=self.PLAN)
        assert res.failed_ranks == [3]
        assert res.results[3] is None
        got = [r for r in res.results if r is not None]
        assert len(got) == P - 1
        for c in got:
            assert float(np.abs(c - REF).max()) <= TOL

    def test_recovery_counted_in_metrics(self):
        res = _run(faults=self.PLAN)
        assert res.metrics.recoveries == 1
        assert "recoveries" in res.metrics.to_dict()

    def test_clean_run_counts_no_recoveries(self):
        res = _run()
        assert res.failed_ranks == []
        assert res.metrics.recoveries == 0
        assert float(np.abs(res.results[0] - REF).max()) <= TOL

    def test_deterministic_replay(self):
        """Replaying a faulted run is deterministic in *time*, not just
        data: failure detection is pinned to the transport's virtual
        clock (dead-letter sends, quiescence-gated revocation), so two
        identical runs produce identical makespans, traces and raw event
        logs — not only bit-equal C (docs/RECOVERY.md)."""
        first, second = (_run(faults=self.PLAN) for _ in range(2))
        assert_replay_identical(first, second)
        assert first.failed_ranks == second.failed_ranks == [3]

    def test_recovery_spans_recorded(self):
        res = _run(faults=self.PLAN)
        names = {s.name for s in res.spans}
        assert "ft_backup" in names
        assert "ft_recover" in names

    def test_double_kill(self):
        """Two non-adjacent kills: both ranks race toward their first
        Cannon entry, so the deaths land in the same attempt or split
        across two (the loser may be unwound by the first revocation
        before reaching Cannon).  Either way both must end up dead and
        every survivor correct."""
        plan = FaultPlan(seed=0, ranks=(_kill(3), _kill(5)))
        res = _run(faults=plan, fn=_resilient(max_recoveries=2))
        assert res.failed_ranks == [3, 5]
        assert res.metrics.recoveries in (1, 2)
        got = [r for r in res.results if r is not None]
        assert len(got) == P - 2
        for c in got:
            assert float(np.abs(c - REF).max()) <= TOL


class TestUnrecoverable:
    def test_budget_exhaustion_is_typed(self):
        """max_recoveries=0 turns the first (otherwise recoverable)
        failure into a typed give-up on every survivor."""
        plan = FaultPlan(seed=0, ranks=(_kill(3),))
        with pytest.raises(RuntimeError) as ei:
            _run(faults=plan, fn=_resilient(max_recoveries=0))
        cause = ei.value.__cause__
        assert isinstance(cause, UnrecoverableError)
        assert cause.recoveries == 1
        assert "budget" in str(cause)

    def test_adjacent_kill_loses_buddy(self):
        """Rank r backs up to r+1; losing both in *one* attempt makes the
        backup unreachable and recovery must give up, typed.  Kills are
        keyed on ``ft_attempt``, the phase the recovery loop enters as
        its very first action, so both deaths deterministically land in
        attempt 1."""
        plan = FaultPlan(seed=0, ranks=(
            RankFault(rank=3, phase="ft_attempt", occurrence=1, kill=True),
            RankFault(rank=4, phase="ft_attempt", occurrence=1, kill=True),
        ))
        with pytest.raises(RuntimeError) as ei:
            _run(faults=plan, fn=_resilient(max_recoveries=2))
        assert isinstance(ei.value.__cause__, UnrecoverableError)
        assert "buddy" in str(ei.value.__cause__)

    def test_plain_multiply_without_recovery_fails(self):
        """The same kill without the ft wrapper aborts the run — the
        recovery loop, not luck, is what survives it."""
        from repro.core import ca3dmm_matmul

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
            )
            b = DistMatrix.from_global(
                comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
            )
            return ca3dmm_matmul(a, b).to_global()

        with pytest.raises(RuntimeError):
            _run(faults=FaultPlan(seed=0, ranks=(_kill(3),)), fn=f)


class TestPartialReuse:
    """Partial-result reuse: surviving k-group partials are kept at
    failure time and reduced into the re-planned multiplication, so the
    recovery recomputes strictly less than one full call."""

    PLAN = FaultPlan(seed=0, ranks=(_kill(3),))

    def test_reuse_metrics_pair(self):
        res = _run(faults=self.PLAN)
        fm = res.metrics
        assert fm.reused_flops > 0
        assert fm.recomputed_flops < 2.0 * M * N * K
        # every k-slice is either reused or recomputed, exactly once
        assert fm.reused_flops + fm.recomputed_flops == \
            pytest.approx(2.0 * M * N * K)
        assert "reused_flops" in fm.to_dict()

    def test_reuse_span_recorded(self):
        res = _run(faults=self.PLAN)
        spans = [s for s in res.spans if s.name == "ft_reuse"]
        assert spans
        assert spans[0].attrs["k_reused"] > 0

    def test_reused_result_still_correct(self):
        res = _run(faults=self.PLAN)
        for c in (r for r in res.results if r is not None):
            assert float(np.abs(c - REF).max()) <= TOL

    def test_pk1_grid_salvages_surviving_cells(self):
        """With pk=1 every rank is in the single k-group, so a kill
        always breaks the *group* — but per-(i,j) salvage keeps the
        surviving Cannon cells anyway: reuse is strictly positive (the
        old per-k-group baseline was 0 here), the reused/recomputed
        pair still sums to one full call, and the result is correct."""
        from repro.grid.optimizer import GridSpec

        report: list = []

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
            )
            b = DistMatrix.from_global(
                comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
            )
            c = resilient_multiply(
                comm, a, b,
                c_dist=lambda cm: BlockCol1D((M, N), cm.size),
                grid=GridSpec(pm=4, pn=2, pk=1, nprocs=P),
                max_recoveries=1,
                salvage_report=report,
            )
            return c.to_global()

        res = _run(faults=self.PLAN, fn=f)
        fm = res.metrics
        assert fm.reused_flops > 0
        assert fm.recomputed_flops > 0
        assert fm.reused_flops + fm.recomputed_flops == \
            pytest.approx(2.0 * M * N * K)
        # the per-cell table agrees with the charged flops pair
        assert len(report) == 4 * 2  # pm x pn cells, pk = 1
        reused = sum(r["flops"] for r in report if r["status"] == "reused")
        redone = sum(r["flops"] for r in report if r["status"] == "recomputed")
        assert reused == pytest.approx(fm.reused_flops)
        assert redone == pytest.approx(fm.recomputed_flops)
        for c in (r for r in res.results if r is not None):
            assert float(np.abs(c - REF).max()) <= TOL

    def test_two_kills_in_different_k_groups_salvage_cells(self):
        """The pinned multi-kill scenario: at P=16 on a 4x2x2 grid a
        kill lands in *each* k-group (column-major ik = rank // 8, so
        ranks 0 and 8 sit in ik=0 and ik=1; their buddies 1 and 9
        survive).  The old per-k-group retention would reuse **zero**
        flops here — both groups are broken — but per-(i,j) salvage
        keeps every ABFT-verifiable surviving cell: reuse is strictly
        positive, the reused/recomputed pair still partitions one full
        call, a single recovery round suffices, and both k-groups
        contribute reused cells to the report."""
        from repro.grid.optimizer import GridSpec

        P16 = 16
        report: list = []

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
            )
            b = DistMatrix.from_global(
                comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
            )
            c = resilient_multiply(
                comm, a, b,
                c_dist=lambda cm: BlockCol1D((M, N), cm.size),
                grid=GridSpec(pm=4, pn=2, pk=2, nprocs=P16),
                max_recoveries=2,
                salvage_report=report,
            )
            return c.to_global()

        plan = FaultPlan(seed=0, ranks=(_kill(0), _kill(8)))
        res = _run(faults=plan, fn=f, nprocs=P16)
        assert res.failed_ranks == [0, 8]
        fm = res.metrics
        assert fm.recoveries == 1
        assert fm.reused_flops > 0  # per-k-group baseline: 0 (both broken)
        assert fm.reused_flops + fm.recomputed_flops == \
            pytest.approx(2.0 * M * N * K)
        by_ik: dict = {}
        for row in report:
            by_ik.setdefault(row["ik"], []).append(row["status"])
        assert set(by_ik) == {0, 1}
        for statuses in by_ik.values():
            assert "reused" in statuses
            assert "recomputed" in statuses
        for c in (r for r in res.results if r is not None):
            assert float(np.abs(c - REF).max()) <= TOL

    def test_reuse_with_abft_on(self):
        """Retention must happen after ABFT verification, so reuse and
        checksum protection compose."""
        res = _run(faults=self.PLAN, fn=_resilient(abft=True))
        fm = res.metrics
        assert fm.reused_flops > 0
        for c in (r for r in res.results if r is not None):
            assert float(np.abs(c - REF).max()) <= TOL


def _reference_compact(dist, tiles, me, k_ranges, axis):
    """The one-rank-at-a-time derivation ``_compact_k`` replaced, kept as
    it was: ``(rank -> rects, rank me's tiles)``."""
    offsets, total = [], 0
    for k0, k1 in k_ranges:
        offsets.append((k0, k1, total))
        total += k1 - k0
    mapping, my_tiles = {}, []
    for rank in range(dist.nranks):
        out_rects = []
        for ri, rect in enumerate(dist.owned_rects(rank)):
            lo, hi = (rect.r0, rect.r1) if axis == 0 else (rect.c0, rect.c1)
            for k0, k1, off in offsets:
                s0, s1 = max(lo, k0), min(hi, k1)
                if s0 >= s1:
                    continue
                n0, n1 = s0 - k0 + off, s1 - k0 + off
                if axis == 0:
                    out_rects.append(Rect(n0, n1, rect.c0, rect.c1))
                else:
                    out_rects.append(Rect(rect.r0, rect.r1, n0, n1))
                if rank == me:
                    tile = tiles[ri]
                    my_tiles.append(
                        tile[s0 - lo:s1 - lo, :] if axis == 0 else tile[:, s0 - lo:s1 - lo]
                    )
        mapping[rank] = out_rects
    return mapping, my_tiles


class TestCompactK:
    """Slicing the inputs to the k-ranges that died: one layout per
    ``(layout, k_ranges, axis)`` shared by the ranks, each cutting only
    its own tiles."""

    RANGES = [[(0, 5)], [(3, 9), (14, 20)], [(0, 0), (7, 8)], [(2, 11), (11, 13), (19, 20)]]

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("k_ranges", RANGES, ids=str)
    def test_equals_the_per_rank_derivation(self, k_ranges, axis):
        p, glob = 6, dense_random(20, 20, seed=3)
        dist = BlockCyclic2D((20, 20), p, 2, 3, bs=3)

        def f(comm):
            mat = DistMatrix.from_global(comm, dist, glob)
            cut = _compact_k(mat, k_ranges, axis)
            twice = _compact_k(cut, [(1, 3)], 1 - axis)  # an Explicit source
            return cut, twice.to_global()

        res = run_spmd(p, f, machine=laptop())
        keep = np.r_[tuple(slice(k0, k1) for k0, k1 in k_ranges)]
        want = glob[keep, :] if axis == 0 else glob[:, keep]
        for rank, (cut, twice) in enumerate(res.results):
            tiles = [glob[r.r0:r.r1, r.c0:r.c1] for r in dist.owned_rects(rank)]
            mapping, my_tiles = _reference_compact(dist, tiles, rank, k_ranges, axis)
            assert cut.dist is res.results[0][0].dist
            assert cut.dist.shape == want.shape
            assert [cut.dist.owned_rects(r) for r in range(p)] == [
                [x for x in mapping[r] if not x.is_empty()] for r in range(p)
            ]
            assert cut.dist.rects == tuple(tuple(mapping[r]) for r in range(p))
            np.testing.assert_equal(cut.tiles, my_tiles)
            assert all(t.flags.c_contiguous for t in cut.tiles)
            np.testing.assert_equal(twice, want[1:3, :] if axis == 1 else want[:, 1:3])

    def test_a_recovery_round_derives_each_layout_once(self):
        """Layouts built per round do not scale with the ranks asking."""
        _compacted_layout.cache_clear()
        res = _run(faults=FaultPlan(seed=0, ranks=(_kill(3),)), record_events=False)
        assert res.metrics.reused_flops > 0
        info = _compacted_layout.cache_info()
        assert info.misses == 2 and info.hits == 2 * (P - 1) - 2, info  # A and B, P - 1 survivors


class TestBackupValidation:
    def test_stale_backup_rects_are_rejected(self):
        """_recover_matrix must validate rect *identity*, not just the
        backup's length: a stale backup from a different layout passes a
        bare length check and silently corrupts the restored matrix."""
        from repro.ft.recovery import _recover_matrix
        from repro.layout.blocks import Rect

        def f(comm):
            mat = DistMatrix.from_global(
                comm, BlockCol1D((8, 8), 4), np.arange(64.0).reshape(8, 8)
            )
            sub = comm.create_sub([0, 1, 3])
            if sub is None:
                return "dead"  # rank 2 plays the casualty
            # Same rect count as rank 2's real slot, wrong identity.
            stale = [(Rect(0, 8, 0, 2), np.zeros((8, 2)))]
            try:
                _recover_matrix(sub, mat, stale, (0, 1, 2, 3), (0, 1, 3), 1)
            except UnrecoverableError as exc:
                return "stale" if "stale" in str(exc) else "typed"
            return "ok"

        res = run_spmd(4, f, machine=laptop())
        assert "stale" in res.results  # the buddy holder rejects it
        assert "typed" not in res.results

    def test_missing_backup_is_rejected(self):
        from repro.ft.recovery import _recover_matrix

        def f(comm):
            mat = DistMatrix.from_global(
                comm, BlockCol1D((8, 8), 4), np.arange(64.0).reshape(8, 8)
            )
            sub = comm.create_sub([0, 1, 3])
            if sub is None:
                return "dead"
            try:
                _recover_matrix(sub, mat, None, (0, 1, 2, 3), (0, 1, 3), 1)
            except UnrecoverableError as exc:
                return "missing" if "missing" in str(exc) else "typed"
            return "ok"

        res = run_spmd(4, f, machine=laptop())
        assert "missing" in res.results


class TestSingleRank:
    def test_kill_on_single_rank_comm_is_typed(self):
        """A kill with nobody left must surface a typed
        UnrecoverableError on the driver — not a hang, not an untyped
        abort."""
        plan = FaultPlan(seed=0, ranks=(
            RankFault(rank=0, phase="cannon", occurrence=1, kill=True),
        ))
        with pytest.raises(RuntimeError) as ei:
            _run(faults=plan, fn=_resilient(max_recoveries=1), nprocs=1)
        cause = ei.value.__cause__
        assert isinstance(cause, UnrecoverableError)
        assert "single-rank" in str(cause)


class TestUlfmPrimitives:
    def test_failed_ranks_and_agree_and_shrink(self):
        plan = FaultPlan(seed=0, ranks=(
            RankFault(rank=2, phase="doomed", occurrence=1, kill=True),
        ))

        def f(comm):
            if comm.rank == 2:
                with comm.phase("doomed"):  # kill fires on phase entry
                    pass
                return None  # pragma: no cover - unreachable
            # agree() rendezvouses with the other survivors, so by the
            # time it returns the kill has been observed everywhere.
            ok, survivors = comm.agree(True)
            assert not ok  # rank 2 never voted
            assert survivors == (0, 1, 3)
            assert comm.failed_ranks() == (2,)
            sub = comm.shrink(survivors)
            assert sub.size == 3
            return sub.allreduce(np.array([1.0]))[0]

        res = run_spmd(4, f, machine=laptop(), faults=plan)
        assert [r for r in res.results if r is not None] == [3.0, 3.0, 3.0]
        assert res.failed_ranks == [2]

    def test_shrink_excluding_self_raises(self):
        from repro.mpi import CommError

        def f(comm):
            if comm.rank == 0:
                with pytest.raises(CommError):
                    comm.shrink((1, 2))
            return comm.rank

        run_spmd(3, f, machine=laptop())
