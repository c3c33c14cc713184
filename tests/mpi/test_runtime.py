"""Runtime behaviour: traces, clocks, failures, deadlock detection."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.machine.model import MachineModel
from repro.mpi import DeadlockError, run_spmd


class TestResults:
    def test_per_rank_results(self, spmd):
        res = spmd(5, lambda comm: comm.rank * 2)
        assert res.results == [0, 2, 4, 6, 8]

    def test_single_rank_world(self, spmd):
        res = spmd(1, lambda comm: (comm.rank, comm.size))
        assert res.results == [(0, 1)]

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)


class TestTraces:
    def test_traffic_counted_both_sides(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)

        res = spmd(2, f)
        assert res.traces[0].bytes_sent == 800
        assert res.traces[0].msgs_sent == 1
        assert res.traces[1].bytes_recv == 800
        assert res.traces[1].msgs_recv == 1
        assert res.max_bytes_sent == 800

    def test_no_traffic_no_bytes(self, spmd):
        res = spmd(3, lambda comm: None)
        assert res.total_bytes == 0
        assert res.time == 0.0

    def test_clocks_monotone_and_causal(self, spmd):
        """A relayed message chain accumulates time along the chain."""
        machine = MachineModel(
            alpha=1e-3, nic_beta=0.0, alpha_intra=1e-3, beta_intra=0.0,
            ranks_per_node=1,
        )

        def f(comm):
            if comm.rank == 0:
                comm.send(b"x", dest=1)
            elif comm.rank < comm.size - 1:
                comm.recv(source=comm.rank - 1)
                comm.send(b"x", dest=comm.rank + 1)
            else:
                comm.recv(source=comm.rank - 1)
            return comm.now()

        res = spmd(4, f, machine=machine)
        clocks = res.results
        assert clocks[1] <= clocks[2] <= clocks[3]
        # Three hops of alpha=1ms latency reach the last rank.
        assert clocks[3] == pytest.approx(3e-3, rel=1e-6)

    def test_compute_advances_clock(self, spmd):
        machine = MachineModel(gamma=1e-9)

        def f(comm):
            comm.compute(1e6)  # 1e6 flops at 1ns/flop = 1ms
            return comm.now()

        res = spmd(2, f, machine=machine)
        assert res.results[0] == pytest.approx(1e-3)

    def test_phase_attribution(self, spmd):
        def f(comm):
            with comm.phase("alpha-phase"):
                comm.compute(100.0)
            with comm.phase("beta-phase"):
                other = 1 - comm.rank
                comm.sendrecv(np.zeros(10), other, other)

        res = spmd(2, f)
        phases = res.traces[0].phases
        assert phases["alpha-phase"].compute_time > 0
        assert phases["beta-phase"].bytes_sent == 80
        assert "alpha-phase" in phases and "beta-phase" in phases

    def test_peak_live_bytes(self, spmd):
        def f(comm):
            comm.note_live_bytes(500)
            comm.note_live_bytes(300)  # lower: must not reduce the peak

        res = spmd(2, f)
        assert all(t.peak_live_bytes == 500 for t in res.traces)


class TestFailures:
    def test_exception_propagates(self, spmd):
        def f(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            spmd(3, f)

    def test_failure_wakes_blocked_ranks(self, spmd):
        """A crash on one rank must not hang ranks blocked in recv."""

        def f(comm):
            if comm.rank == 0:
                raise RuntimeError("early exit")
            comm.recv(source=0)  # would block forever without abort

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            spmd(3, f)

    @staticmethod
    def _deadlock(spmd, nprocs, f):
        """The typed error, raised structurally: ``deadlock_timeout``
        only bounds probe-poll livelock and must not be waited out."""
        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as ei:
            spmd(nprocs, f, deadlock_timeout=60.0)
        assert time.monotonic() - t0 < 1.0
        return ei.value

    def test_deadlock_detected(self, spmd):
        """Two ranks both receiving first is a classic deadlock."""

        def f(comm):
            other = 1 - comm.rank
            got = comm.recv(source=other, tag=7)  # nobody ever sends
            return got

        err = self._deadlock(spmd, 2, f)
        assert set(err.blocked) == {0, 1}
        for rank, why in err.blocked.items():
            assert why.startswith(f"recv(src={1 - rank}, tag=7")
            assert f"rank {rank}: {why}" in str(err)

    def test_mismatched_collective_deadlocks(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 never joins the barrier

        err = self._deadlock(spmd, 2, f)
        assert set(err.blocked) == {0}  # rank 1 returned; only 0 is stuck
        assert err.blocked[0].startswith("recv(src=1, tag=")


class TestOverlapModel:
    def test_isend_overlaps_with_compute(self, spmd):
        """Compute issued after isend hides the transfer time."""
        machine = MachineModel(
            alpha=0.0, nic_beta=0.0, alpha_intra=0.0,
            beta_intra=1e-6, gamma=1e-6, ranks_per_node=10 ** 9,
        )

        def f(comm):
            other = 1 - comm.rank
            req = comm.isend(np.zeros(100, np.uint8), dest=other)  # 100us transfer
            rreq = comm.irecv(source=other)
            comm.compute(200.0)  # 200us of work
            rreq.wait()
            req.wait()
            return comm.now()

        res = spmd(2, f, machine=machine)
        # Transfer (100us) fully hidden under compute (200us).
        assert res.results[0] == pytest.approx(200e-6, rel=1e-6)

    def test_blocking_send_does_not_overlap(self, spmd):
        machine = MachineModel(
            alpha=0.0, nic_beta=0.0, alpha_intra=0.0,
            beta_intra=1e-6, gamma=1e-6, ranks_per_node=10 ** 9,
        )

        def f(comm):
            other = 1 - comm.rank
            comm.send(np.zeros(100, np.uint8), dest=other)  # 100us, blocking
            comm.compute(200.0)  # 200us
            comm.recv(source=other)
            return comm.now()

        res = spmd(2, f, machine=machine)
        assert res.results[0] == pytest.approx(300e-6, rel=1e-6)
