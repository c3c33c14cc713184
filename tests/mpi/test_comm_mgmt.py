"""Communicator management: split, dup, create_sub, and Cart2D."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.model import laptop
from repro.mpi import Cart2D, run_spmd
from repro.mpi.errors import CommError


class TestSplit:
    def test_split_even_odd(self, spmd):
        def f(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            return (sub.rank, sub.size, sub.allgather(comm.rank))

        res = spmd(6, f)
        for rank, (sr, ss, members) in enumerate(res.results):
            assert ss == 3
            assert sr == rank // 2
            assert members == ([0, 2, 4] if rank % 2 == 0 else [1, 3, 5])

    def test_split_key_reorders(self, spmd):
        def f(comm):
            # Reverse ordering via descending keys.
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = spmd(4, f)
        assert res.results == [3, 2, 1, 0]

    def test_split_none_color(self, spmd):
        def f(comm):
            sub = comm.split(color=0 if comm.rank < 2 else None, key=comm.rank)
            if comm.rank < 2:
                assert sub is not None and sub.size == 2
                return sub.allreduce(np.array([1.0]))[0]
            assert sub is None
            return None

        res = spmd(5, f)
        assert res.results[:2] == [2.0, 2.0]
        assert res.results[2:] == [None, None, None]

    def test_nested_splits_are_isolated(self, spmd):
        """Traffic in a subcommunicator never leaks into the parent."""

        def f(comm):
            sub = comm.split(color=comm.rank // 2, key=comm.rank)
            sub2 = sub.split(color=0, key=sub.rank)
            a = sub2.allgather(comm.rank)
            b = comm.allgather(comm.rank)
            return a, b

        res = spmd(4, f)
        assert res.results[0][0] == [0, 1]
        assert res.results[2][0] == [2, 3]
        assert all(r[1] == [0, 1, 2, 3] for r in res.results)

    def test_repeated_splits_unique_contexts(self, spmd):
        def f(comm):
            subs = [comm.split(color=0, key=comm.rank) for _ in range(3)]
            return [s.allreduce(np.array([float(comm.rank)]))[0] for s in subs]

        res = spmd(3, f)
        assert all(r == [3.0, 3.0, 3.0] for r in res.results)


class TestDupCreate:
    def test_dup_preserves_group(self, spmd):
        def f(comm):
            d = comm.dup()
            return (d.rank, d.size, d.group == comm.group)

        res = spmd(4, f)
        for rank, (dr, ds, same) in enumerate(res.results):
            assert (dr, ds, same) == (rank, 4, True)

    def test_create_sub(self, spmd):
        def f(comm):
            sub = comm.create_sub([3, 1])
            if comm.rank in (1, 3):
                # order follows the list: rank 3 is local 0, rank 1 local 1
                return (sub.rank, sub.allgather(comm.rank))
            assert sub is None
            return None

        res = spmd(4, f)
        assert res.results[3] == (0, [3, 1])
        assert res.results[1] == (1, [3, 1])

    def test_create_sub_duplicate_ranks_rejected(self, spmd):
        def f(comm):
            with pytest.raises(CommError):
                comm.create_sub([0, 0])

        spmd(2, f)


class TestSplitGrouping:
    """One rank groups a split's triples for all of them; every rank's
    view must still be the brute-force answer."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.none() | st.integers(0, 3), st.integers(0, 2)),
        min_size=1, max_size=24,
    ))
    def test_groups_equal_brute_force(self, spec):
        """``spec[r]`` is parent rank r's ``(color, key)``.  The parent is
        the world in reverse, so parent ranks are not world ranks."""
        p = len(spec)

        def expected(sign):
            return {
                color: tuple(
                    p - 1 - r
                    for _k, r in sorted(
                        (sign * k, r) for r, (c, k) in enumerate(spec) if c == color
                    )
                )
                for color, _key in spec
                if color is not None
            }

        def f(comm):
            parent = comm.split(0, -comm.rank)
            assert parent.group == tuple(range(p - 1, -1, -1))
            color, key = spec[parent.rank]
            # Same colors, opposite keys, back to back: a grouping shared
            # between the two calls would give the second the first's order.
            first, second = parent.split(color, key), parent.split(color, -key)
            if color is None:
                assert first is None and second is None
                return None
            twin = first.dup()
            tail = first.create_sub(range(1, first.size))
            assert (tail is None) == (first.rank == 0)
            return (
                first.group, second.group, twin.allgather(comm.rank),
                None if tail is None else tail.group,
            )

        res = run_spmd(p, f, machine=laptop())
        ascending, descending = expected(1), expected(-1)
        for w, out in enumerate(res.results):
            color = spec[p - 1 - w][0]
            if color is None:
                assert out is None
                continue
            first, second, twin, tail = out
            assert first == ascending[color] and second == descending[color]
            assert tuple(twin) == first
            assert tail is None or tail == first[1:]


class TestCart2D:
    def test_coords_column_major(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 3)
            return (cart.row, cart.col)

        res = spmd(6, f)
        assert res.results == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]

    def test_neighbours_wrap(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 2)
            return (cart.left(1), cart.right(1), cart.up(1), cart.down(1))

        res = spmd(4, f)
        # rank 0 = (0,0): left -> (0,1)=2, right -> 2, up -> (1,0)=1, down -> 1
        assert res.results[0] == (2, 2, 1, 1)

    def test_row_col_comms(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 2, 3)
            row = cart.row_comm()
            col = cart.col_comm()
            return (row.size, col.size, row.allgather(cart.col), col.allgather(cart.row))

        res = spmd(6, f)
        for rs, cs, rows, cols in res.results:
            assert (rs, cs) == (3, 2)
            assert rows == [0, 1, 2]
            assert cols == [0, 1]

    def test_size_mismatch_rejected(self, spmd):
        def f(comm):
            with pytest.raises(CommError):
                Cart2D(comm, 2, 2)

        spmd(6, f)

    def test_rank_of_wraps(self, spmd):
        def f(comm):
            cart = Cart2D(comm, 3, 3)
            return cart.rank_of(-1, 4)

        res = spmd(9, f)
        # (-1 mod 3, 4 mod 3) = (2, 1) -> 2 + 1*3 = 5
        assert res.results[0] == 5
