"""Collective correctness across group sizes, payload kinds, and roots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM

SIZES = [1, 2, 3, 4, 5, 7, 8, 12, 16]


@pytest.mark.parametrize("size", SIZES)
class TestBcast:
    def test_object(self, spmd, size):
        root = size // 2

        def f(comm):
            value = {"data": list(range(20))} if comm.rank == root else None
            return comm.bcast(value, root=root)

        res = spmd(size, f)
        assert all(r == {"data": list(range(20))} for r in res.results)

    def test_long_array(self, spmd, size):
        """Arrays above the threshold take the scatter+allgather path."""

        def f(comm):
            arr = np.arange(20000.0).reshape(100, 200) if comm.rank == 0 else None
            got = comm.bcast(arr, root=0)
            return float(got.sum()), got.shape

        res = spmd(size, f)
        expect = float(np.arange(20000.0).sum())
        assert all(r == (expect, (100, 200)) for r in res.results)

    def test_short_array(self, spmd, size):
        def f(comm):
            arr = np.ones(3) if comm.rank == 0 else None
            return comm.bcast(arr, root=0).tolist()

        res = spmd(size, f)
        assert all(r == [1.0, 1.0, 1.0] for r in res.results)


@pytest.mark.parametrize("size", SIZES)
class TestReduceAllreduce:
    def test_reduce_sum(self, spmd, size):
        root = size - 1

        def f(comm):
            out = comm.reduce(np.full(4, float(comm.rank + 1)), SUM, root=root)
            return None if out is None else float(out[0])

        res = spmd(size, f)
        assert res.results[root] == sum(range(1, size + 1))
        assert all(r is None for i, r in enumerate(res.results) if i != root)

    def test_allreduce_sum(self, spmd, size):
        def f(comm):
            return float(comm.allreduce(np.array([float(comm.rank)]))[0])

        res = spmd(size, f)
        assert res.results == [float(sum(range(size)))] * size

    def test_allreduce_max_min(self, spmd, size):
        def f(comm):
            mx = comm.allreduce(np.array([float(comm.rank)]), MAX)
            mn = comm.allreduce(np.array([float(comm.rank)]), MIN)
            return float(mx[0]), float(mn[0])

        res = spmd(size, f)
        assert all(r == (size - 1.0, 0.0) for r in res.results)

    def test_allreduce_prod(self, spmd, size):
        def f(comm):
            return float(comm.allreduce(np.array([2.0]), PROD)[0])

        res = spmd(size, f)
        assert res.results == [2.0 ** size] * size


@pytest.mark.parametrize("size", SIZES)
class TestGatherScatter:
    def test_gather(self, spmd, size):
        def f(comm):
            return comm.gather(comm.rank ** 2, root=0)

        res = spmd(size, f)
        assert res.results[0] == [r ** 2 for r in range(size)]

    def test_scatter(self, spmd, size):
        def f(comm):
            vals = [f"item-{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(vals, root=0)

        res = spmd(size, f)
        assert res.results == [f"item-{i}" for i in range(size)]

    def test_allgather_order(self, spmd, size):
        def f(comm):
            return comm.allgather((comm.rank, comm.rank * 3))

        res = spmd(size, f)
        for r in res.results:
            assert r == [(i, i * 3) for i in range(size)]

    def test_allgather_arrays_varying_sizes(self, spmd, size):
        """Allgather must handle per-rank payloads of different sizes."""

        def f(comm):
            contrib = np.full(comm.rank + 1, float(comm.rank))
            parts = comm.allgather(contrib)
            return [p.tolist() for p in parts]

        res = spmd(size, f)
        expect = [[float(i)] * (i + 1) for i in range(size)]
        assert all(r == expect for r in res.results)


@pytest.mark.parametrize("size", SIZES)
class TestAlltoallReduceScatter:
    def test_alltoall(self, spmd, size):
        def f(comm):
            values = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(values)

        res = spmd(size, f)
        for rank, r in enumerate(res.results):
            assert r == [f"{s}->{rank}" for s in range(size)]

    def test_reduce_scatter_sum(self, spmd, size):
        def f(comm):
            blocks = [np.full(3, float(comm.rank + d)) for d in range(comm.size)]
            return float(comm.reduce_scatter(blocks)[0])

        res = spmd(size, f)
        for rank, r in enumerate(res.results):
            assert r == sum(s + rank for s in range(size))

    def test_reduce_scatter_ragged_blocks(self, spmd, size):
        """Destination blocks may have different shapes."""

        def f(comm):
            blocks = [np.full((d + 1, 2), 1.0) for d in range(comm.size)]
            out = comm.reduce_scatter(blocks)
            return out.shape, float(out.sum())

        res = spmd(size, f)
        for rank, r in enumerate(res.results):
            assert r == ((rank + 1, 2), float(size * (rank + 1) * 2))

    def test_barrier_completes(self, spmd, size):
        def f(comm):
            for _ in range(3):
                comm.barrier()
            return True

        res = spmd(size, f)
        assert all(res.results)

    def test_the_barrier_token_is_handed_over(self, spmd, size):
        """Every dissemination hop sends ``None``: it weighs 0 bytes, as
        the ``b""`` it replaced did, and nothing is pickled."""
        from tests.mpi.test_message_path import counted_pickles

        with counted_pickles() as pickled:
            res = spmd(size, lambda comm: comm.barrier())
        hops = size * (size - 1).bit_length()
        assert sum(t.msgs_sent for t in res.traces) == (hops if size > 1 else 0)
        assert sum(t.bytes_sent for t in res.traces) == 0 and pickled == [0, 0]


class TestDeterminism:
    def test_allreduce_bitwise_identical_across_ranks(self, spmd):
        """Every rank must get the bit-identical reduction result."""

        def f(comm):
            rng = np.random.default_rng(comm.rank)
            out = comm.allreduce(rng.standard_normal(64))
            return out.tobytes()

        res = spmd(7, f)
        assert len(set(res.results)) == 1

    def test_back_to_back_collectives_do_not_crosstalk(self, spmd):
        def f(comm):
            a = comm.allgather(comm.rank)
            b = comm.allgather(comm.rank + 100)
            c = comm.allreduce(np.array([1.0]))
            return a, b, float(c[0])

        res = spmd(6, f)
        for r in res.results:
            assert r == (list(range(6)), [i + 100 for i in range(6)], 6.0)
