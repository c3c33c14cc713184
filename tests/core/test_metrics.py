"""Executed Q/L/S against the paper's Section III-D analysis.

These are the reproduction's anchor tests: the *measured* traffic of the
executed engine must match the closed forms (eqs. 9-11) the paper proves.
Redistribution is excluded (native inputs/outputs), matching the paper's
own cost-analysis assumption that steps 4 and 8 can be skipped.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.analysis.verify import eq9_lower_bound, executed_metrics, theoretical_metrics
from repro.core import Ca3dmm
from repro.core.plan import Ca3dmmPlan
from repro.grid.optimizer import GridSpec
from repro.layout.matrix import DistMatrix, dense_random


from dataclasses import replace


class _Snapshot:
    """Post-multiply traffic counters (taken before the verification
    allgather, which is test scaffolding, not algorithm traffic)."""

    def __init__(self, traces):
        self.traces = traces

    @property
    def total_bytes(self):
        return sum(t.bytes_sent for t in self.traces)

    @property
    def time(self):
        return max(t.time for t in self.traces)


def _run_native(spmd, m, n, k, P, grid=None):
    """Run CA3DMM with native layouts so no redistribution traffic occurs."""
    plan = Ca3dmmPlan(m, n, k, P, grid=grid)

    def f(comm):
        eng = Ca3dmm(comm, m, n, k, grid=grid)
        A = dense_random(m, k, 0)
        B = dense_random(k, n, 1)
        a = DistMatrix.from_global(comm, plan.a_dist, A)
        b = DistMatrix.from_global(comm, plan.b_dist, B)
        # The paper excludes one-time initialization (communicator
        # creation) from its measurements; diff the counters around the
        # multiply itself.
        before = comm.transport.trace(comm.world_rank)
        c = eng.multiply(a, b)
        after = comm.transport.trace(comm.world_rank)
        # A real RankTrace (executed_metrics reads it through the shared
        # pass): the memory watermarks are measured, not differenced.
        delta = replace(
            after,
            bytes_sent=after.bytes_sent - before.bytes_sent,
            msgs_sent=after.msgs_sent - before.msgs_sent,
            time=after.time - before.time,
        )
        return np.allclose(c.to_global(), A @ B, atol=1e-9), delta

    res = spmd(P, f)
    assert all(ok for ok, _ in res.results)
    return plan, _Snapshot([snap for _, snap in res.results])


class TestCommunicationSize:
    @pytest.mark.parametrize(
        "m,n,k,P",
        [
            (24, 24, 48, 16),   # balanced 3D (2x2x4)
            (32, 64, 16, 8),    # Example 1 (replication)
            (48, 48, 48, 8),    # cube
            (16, 16, 64, 4),
        ],
    )
    def test_max_words_sent_matches_schedule(self, spmd, m, n, k, P):
        """Executed max-bytes-sent equals the schedule's exact Q."""
        plan, res = _run_native(spmd, m, n, k, P)
        metrics = theoretical_metrics(plan)
        measured = executed_metrics(res)
        # Executed traffic includes the allgather-of-lists pickling
        # overhead for the replication step; tolerate a few percent.
        assert measured.q_words == pytest.approx(metrics.q_words, rel=0.10, abs=64)

    def test_eq9_under_balanced_cube(self, spmd):
        """For a perfectly balanced cube grid, Q ≈ 3 (mnk/P)^(2/3)."""
        m = n = k = 48
        P = 8  # grid 2x2x2, d = 24 everywhere
        plan, res = _run_native(spmd, m, n, k, P, grid=GridSpec(2, 2, 2, 8))
        bound = eq9_lower_bound(m, n, k, P)
        measured = executed_metrics(res)
        # Cannon shifting transfers each block s times rather than the
        # one-touch ideal; the schedule stays within a small constant of
        # the lower bound (here s = 2).
        assert measured.q_words <= 2.2 * bound
        assert measured.q_words >= bound * 0.5

    def test_no_3d_traffic_when_serial(self, spmd):
        plan, res = _run_native(spmd, 16, 16, 16, 1)
        assert res.total_bytes == 0


class TestLatency:
    @pytest.mark.parametrize(
        "m,n,k,P",
        [(24, 24, 48, 16), (32, 64, 16, 8), (48, 48, 48, 8), (12, 12, 96, 8)],
    )
    def test_messages_bounded_by_eq10(self, spmd, m, n, k, P):
        """Executed per-rank messages <= 2x the round count L of eq. (10).

        The factor 2 is exact bookkeeping: each Cannon round moves an A
        and a B message, and the Bruck/pairwise collectives send one
        message per round.
        """
        plan, res = _run_native(spmd, m, n, k, P)
        metrics = theoretical_metrics(plan)
        measured = executed_metrics(res)
        assert measured.msgs <= 2 * metrics.l_rounds
        assert measured.msgs >= metrics.l_rounds * 0.5

    def test_eq10_value(self):
        plan = Ca3dmmPlan(32, 64, 16, 8)  # c=2, s=2, pk=1
        assert theoretical_metrics(plan).l_rounds == 1 + 2 + 0
        plan = Ca3dmmPlan(32, 32, 64, 16)  # c=1, s=2, pk=4
        assert theoretical_metrics(plan).l_rounds == 0 + 2 + 3


class TestMemory:
    @pytest.mark.parametrize(
        "m,n,k,P",
        [(24, 24, 48, 16), (32, 64, 16, 8), (48, 48, 48, 8)],
    )
    def test_peak_memory_matches_eq11(self, spmd, m, n, k, P):
        """Executed peak live words per rank ≈ eq. (11)."""
        plan, res = _run_native(spmd, m, n, k, P)
        metrics = theoretical_metrics(plan)
        measured = executed_metrics(res)
        # eq. (11) is exact under divisibility; balanced splits make the
        # real peak differ by ceil effects only.
        assert measured.s_words == pytest.approx(metrics.s_words, rel=0.30)

    def test_eq11_square_asymptotics(self):
        """For m=n=k, S = 4m²/P + m²/P^(2/3) (the paper's square case)."""
        m = 60
        plan = Ca3dmmPlan(m, m, m, 27, grid=GridSpec(3, 3, 3, 27))
        s = theoretical_metrics(plan).s_words
        assert s == pytest.approx(4 * m * m / 27 + m * m / 9, rel=1e-12)


class TestScalingTrend:
    def test_q_decreases_with_p(self):
        """Per-rank volume Q shrinks as P grows (communication scaling)."""
        qs = []
        for P in (8, 64, 216):
            plan = Ca3dmmPlan(96, 96, 96, P)
            qs.append(theoretical_metrics(plan).q_words)
        assert qs[0] > qs[1] > qs[2]

    def test_latency_grows_as_cuberoot(self):
        """L = O(P^(1/3)) for square problems (Section III-D)."""
        l1 = theoretical_metrics(Ca3dmmPlan(960, 960, 960, 64)).l_rounds
        l2 = theoretical_metrics(Ca3dmmPlan(960, 960, 960, 512)).l_rounds
        ratio = l2 / l1
        assert 1.5 <= ratio <= 3.0  # ideal: (512/64)^(1/3) = 2
