"""Cannon's algorithm kernel on s x s groups."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cannon import cannon_multiply
from repro.layout.blocks import block_range
from repro.mpi import Cart2D, run_spmd


def _run_cannon(spmd, s, m, n, k, shifts_per_gemm=1, dtype=np.float64):
    """Distribute unskewed blocks, run Cannon, reassemble C."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((m, k)).astype(dtype)
    B = rng.standard_normal((k, n)).astype(dtype)

    def f(comm):
        cart = Cart2D(comm, s, s)
        u, v = cart.row, cart.col
        am = block_range(m, s, u)
        ak = block_range(k, s, v)
        bk = block_range(k, s, u)
        bn = block_range(n, s, v)
        a_blk = np.ascontiguousarray(A[am[0] : am[1], ak[0] : ak[1]])
        b_blk = np.ascontiguousarray(B[bk[0] : bk[1], bn[0] : bn[1]])
        c_blk = cannon_multiply(cart, a_blk, b_blk, shifts_per_gemm=shifts_per_gemm)
        return (u, v, c_blk)

    res = spmd(s * s, f)
    C = np.zeros((m, n), dtype=np.promote_types(dtype, dtype))
    for u, v, blk in res.results:
        r = block_range(m, s, u)
        c = block_range(n, s, v)
        C[r[0] : r[1], c[0] : c[1]] = blk
    np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)
    return res


class TestCorrectness:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_square_blocks(self, spmd, s):
        _run_cannon(spmd, s, 12, 12, 12)

    @pytest.mark.parametrize("m,n,k", [(7, 5, 9), (20, 4, 4), (4, 20, 4), (5, 5, 40)])
    def test_ragged_blocks(self, spmd, m, n, k):
        _run_cannon(spmd, 3, m, n, k)

    def test_more_ranks_than_k(self, spmd):
        """k < s gives empty Cannon blocks on some steps."""
        _run_cannon(spmd, 4, 8, 8, 3)

    def test_more_ranks_than_m(self, spmd):
        _run_cannon(spmd, 4, 2, 9, 8)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_multi_shift_aggregation(self, spmd, g):
        """shifts_per_gemm > 1 changes compute granularity, not results."""
        _run_cannon(spmd, 4, 13, 11, 16, shifts_per_gemm=g)

    def test_float32(self, spmd):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6)).astype(np.float32)
        B = rng.standard_normal((6, 6)).astype(np.float32)

        def f(comm):
            cart = Cart2D(comm, 2, 2)
            u, v = cart.row, cart.col
            am, ak = block_range(6, 2, u), block_range(6, 2, v)
            bk, bn = block_range(6, 2, u), block_range(6, 2, v)
            blk = cannon_multiply(
                cart,
                np.ascontiguousarray(A[am[0]:am[1], ak[0]:ak[1]]),
                np.ascontiguousarray(B[bk[0]:bk[1], bn[0]:bn[1]]),
            )
            return blk.dtype == np.float32

        assert all(spmd(4, f).results)

    def test_non_square_grid_rejected(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 3)
            with pytest.raises(ValueError):
                cannon_multiply(cart, np.zeros((2, 2)), np.zeros((2, 2)))

        spmd(6, f)


class TestTraffic:
    def test_message_rounds(self, spmd):
        """Skew (<=2 msgs) + 2(s-1) shift messages per rank, max."""
        res = _run_cannon(spmd, 3, 9, 9, 9)
        s = 3
        # worst rank: 2 skew sends + 2 sends per shift step
        assert res.max_msgs_sent <= 2 + 2 * (s - 1)
        assert res.max_msgs_sent >= 2 * (s - 1)

    def test_s1_no_traffic(self, spmd):
        res = _run_cannon(spmd, 1, 5, 5, 5)
        assert res.total_bytes == 0

    def test_volume_is_s_blocks_each(self, spmd):
        """Per rank, A traffic = s block-sends (skew + s-1 shifts), same for B."""
        s, m, n, k = 3, 9, 9, 9
        res = _run_cannon(spmd, s, m, n, k)
        blk = (m // s) * (k // s) * 8
        # rank (1,1) skews A and B and shifts both every step: 2*s blocks... minus
        # rank-dependent skew skips; the max must be exactly 2*s blocks of traffic
        # minus the (u=0 / v=0) skips, so between 2(s-1) and 2s blocks.
        assert 2 * (s - 1) * blk <= res.max_bytes_sent <= 2 * s * blk


class TestEmptyStripMetrics:
    """A flushed strip with zero inner width must not tick the GEMM
    clock: in GPU mode a k == 0 tick still stages the m x n result over
    PCIe, charging phantom compute time (regression)."""

    def _compute_time(self, res):
        return sum(st.compute_time for t in res.traces for st in t.phases.values())

    def test_k_smaller_than_grid_charges_one_gemm_per_rank(self, spmd):
        """k=1 on a 2x2 grid: every rank sees one real and one empty
        strip; compute time must match exactly one GEMM per rank."""
        from repro.machine.model import pace_phoenix_gpu

        s, m, n, k = 2, 8, 6, 1
        machine = pace_phoenix_gpu()
        res = _run_cannon(lambda np_, f: run_spmd(np_, f, machine=machine),
                          s, m, n, k)
        mloc, nloc = m // s, n // s
        expected = machine.gemm_time(
            mloc, nloc, 1, stage_bytes=(mloc * 1 + 1 * nloc + mloc * nloc) * 8
        )
        got = self._compute_time(res)
        assert got == pytest.approx(s * s * expected), (
            f"phantom GEMM tick charged: {got} != {s * s * expected}"
        )

    def test_zero_k_block_charges_no_compute(self, spmd):
        """s=1 with an empty inner dimension: no tick at all."""

        def f(comm):
            cart = Cart2D(comm, 1, 1)
            c = cannon_multiply(cart, np.zeros((4, 0)), np.zeros((0, 3)))
            return c.shape

        from repro.machine.model import pace_phoenix_gpu

        res = run_spmd(1, f, machine=pace_phoenix_gpu())
        assert res.results == [(4, 3)]
        assert self._compute_time(res) == 0.0


class TestShiftStepArithmetic:
    """Pin the per-capability shift-step clock claimed in the docstring.

    With ``overlap="none"`` or ``"full"`` each posted shift transfer
    progresses as its own stream: step = max(gemm, flight).  With
    ``"partial"`` the rank's single NIC stream serializes the inter-node
    A and B sends: step = max(gemm, flight_a + flight_b).  An earlier
    docstring revision claimed unconditional ``max(gemm, comm)``.
    """

    @staticmethod
    def _makespan(overlap, m=8, n=8, k=8, s=2, ranks_per_node=1,
                  gamma=1e-11):
        from repro.machine.model import MachineModel

        # ranks_per_node=1 makes every shift inter-node (NIC-priced);
        # tiny gamma keeps the GEMM negligible -> comm-bound steps.
        mach = MachineModel(ranks_per_node=ranks_per_node, gamma=gamma,
                            overlap=overlap)
        rng = np.random.default_rng(7)
        A = rng.standard_normal((m, k))
        B = rng.standard_normal((k, n))

        def f(comm):
            cart = Cart2D(comm, s, s)
            u, v = cart.row, cart.col
            am = block_range(m, s, u)
            ak = block_range(k, s, v)
            bk = block_range(k, s, u)
            bn = block_range(n, s, v)
            cannon_multiply(
                cart,
                np.ascontiguousarray(A[am[0]:am[1], ak[0]:ak[1]]),
                np.ascontiguousarray(B[bk[0]:bk[1], bn[0]:bn[1]]),
            )

        return run_spmd(s * s, f, machine=mach).time

    def test_full_equals_none_bit_for_bit(self):
        """Dual-stream p2p shifts already hide under "none"; "full" must
        not perturb a single clock tick."""
        assert self._makespan("none") == self._makespan("full")

    def test_partial_serializes_comm_bound_shifts(self):
        """Comm-bound inter-node shifts: the shared NIC stream makes the
        step flight_a + flight_b, strictly slower than the dual-stream
        max(flight_a, flight_b)."""
        assert self._makespan("partial") > self._makespan("none")

    def test_compute_bound_steps_identical_everywhere(self):
        """When the GEMM dominates, step = gemm in every mode — the NIC
        serialization is fully hidden."""
        times = {
            mode: self._makespan(mode, gamma=1e-3)
            for mode in ("none", "partial", "full")
        }
        assert times["none"] == times["partial"] == times["full"]
