"""Executed collectives vs the closed-form α-β costs the figures use.

These tests tie the two engines together: the byte/message counts the
executed collectives actually produce must equal what the pattern
pricers of :mod:`repro.analysis.costs` (the paper's Section III-D
table, priced node-aware) charge, each priced on the world
``list(range(P))``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.costs import (
    ITEM,
    _bcast_vdg,
    _bruck_allgather,
    _p2p,
    _pairwise,
    _reduce_scatter,
)
from repro.machine.model import MachineModel, laptop


def _traffic(spmd, P, fn):
    res = spmd(P, fn)
    return (
        max(t.bytes_sent for t in res.traces),
        max(t.msgs_sent for t in res.traces),
        res.time,
    )


def _flat() -> MachineModel:
    """One rank per node, every link α = 1 µs and β = 1e-10 s/byte."""
    return MachineModel(
        alpha=1e-6, nic_beta=1e-10, ranks_per_node=1, nic_share=1.0,
        alpha_intra=1e-6, beta_intra=1e-10,
    )


class TestAllgather:
    @pytest.mark.parametrize("P", [2, 3, 4, 7, 8, 16])
    def test_volume_and_rounds(self, spmd, P):
        nbytes_each = 800

        def f(comm):
            comm.allgather(np.zeros(100))

        got_bytes, got_msgs, _ = _traffic(spmd, P, f)
        cost = _bruck_allgather(laptop(), list(range(P)), nbytes_each * P)
        # Bruck moves total*(P-1)/P per rank; pickle wrapping adds a
        # constant per block.
        assert got_bytes == pytest.approx(cost.words * ITEM, rel=0.25)
        assert got_msgs == cost.msgs == math.ceil(math.log2(P))


class TestReduceScatter:
    @pytest.mark.parametrize("P", [2, 3, 5, 8])
    def test_pairwise_counts(self, spmd, P):
        block = 400  # bytes per destination block

        def f(comm):
            comm.reduce_scatter([np.zeros(50) for _ in range(comm.size)])

        got_bytes, got_msgs, _ = _traffic(spmd, P, f)
        cost = _reduce_scatter(laptop(), list(range(P)), block * P)
        assert got_msgs == cost.msgs == P - 1
        assert got_bytes == pytest.approx(cost.words * ITEM, rel=0.05)

    def test_paper_formula_value(self):
        """T_reduce_scatter = α(P-1) + βn(P-1)/P exactly."""
        c = _reduce_scatter(_flat(), list(range(8)), 8000)
        assert c.time == pytest.approx(7e-6 + 1e-10 * 8000 * 7 / 8)


class TestBcast:
    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_long_bcast_volume(self, spmd, P):
        """van de Geijn: root sends ~2n(P-1)/P bytes."""
        n = 100000 * 8

        def f(comm):
            arr = np.zeros(100000) if comm.rank == 0 else None
            comm.bcast(arr, root=0)

        got_bytes, _, _ = _traffic(spmd, P, f)
        cost = _bcast_vdg(laptop(), list(range(P)), n)
        assert got_bytes == pytest.approx(cost.words * ITEM, rel=0.10)

    def test_formula_matches_paper(self):
        c = _bcast_vdg(_flat(), list(range(8)), 8000)
        assert c.time == pytest.approx((3 + 7) * 1e-6 + 2e-10 * 8000 * 7 / 8)


class TestOthers:
    @pytest.mark.parametrize("P", [2, 5, 8])
    def test_alltoall_counts(self, spmd, P):
        def f(comm):
            comm.alltoall([np.zeros(25) for _ in range(comm.size)])

        got_bytes, got_msgs, _ = _traffic(spmd, P, f)
        cost = _pairwise(laptop(), list(range(P)), 200)
        assert got_msgs == cost.msgs == P - 1
        assert got_bytes == pytest.approx(cost.words * ITEM, rel=0.10)

    @pytest.mark.parametrize("P", [2, 3, 8])
    def test_barrier_rounds(self, spmd, P):
        def f(comm):
            comm.barrier()

        _, got_msgs, _ = _traffic(spmd, P, f)
        assert got_msgs == math.ceil(math.log2(P))

    def test_p2p_cost(self):
        m = laptop()  # uniform links via the intra path
        c = _p2p(m, 0, 1, 1000)
        assert c.msgs == 1 and c.words * ITEM == 1000
        assert c.time == pytest.approx(m.alpha_intra + m.beta_intra * 1000)

    def test_trivial_groups_free(self, spmd):
        m = laptop()
        for fn in (_bruck_allgather, _bcast_vdg, _reduce_scatter, _pairwise):
            assert fn(m, [0], 1000).time == 0
        _, got_msgs, got_time = _traffic(spmd, 1, lambda comm: comm.barrier())
        assert got_msgs == 0 and got_time == 0


#: A uniform-link machine whose only cost is a message's latency.
_LATENCY_ONLY = MachineModel(
    alpha=1e-3, nic_beta=0.0, alpha_intra=1e-3, beta_intra=0.0,
    ranks_per_node=10 ** 9,
)


class TestSimulatedTime:
    def test_executed_allgather_time_matches_formula(self, spmd):
        """With uniform links, the executed Bruck allgather's simulated
        time lands on α log2 P + βn(P-1)/P (power-of-two groups)."""
        P = 8

        def f(comm):
            comm.allgather(np.zeros(10))
            return comm.now()

        res = spmd(P, f, machine=_LATENCY_ONLY)
        # 3 rounds of 1ms latency (bandwidth term zeroed)
        assert max(res.results) == pytest.approx(3e-3, rel=0.01)

    @pytest.mark.parametrize("P", [2, 3, 5, 8])
    @pytest.mark.parametrize("coll", ["allgather", "reduce_scatter", "alltoall"])
    def test_executed_time_is_the_pricers(self, spmd, coll, P):
        """β = 0: every rank's clock after the collective is the
        pricer's time, odd and prime groups included."""
        calls = {
            "allgather": (lambda comm: comm.allgather(np.zeros(10)),
                          _bruck_allgather(_LATENCY_ONLY, list(range(P)), 80 * P)),
            "reduce_scatter": (
                lambda comm: comm.reduce_scatter([np.zeros(10)] * comm.size),
                _reduce_scatter(_LATENCY_ONLY, list(range(P)), 80 * P)),
            "alltoall": (lambda comm: comm.alltoall([np.zeros(10)] * comm.size),
                         _pairwise(_LATENCY_ONLY, list(range(P)), 80)),
        }
        body, cost = calls[coll]

        def f(comm):
            body(comm)
            return comm.now()

        res = spmd(P, f, machine=_LATENCY_ONLY)
        assert set(res.results) == {cost.time}
