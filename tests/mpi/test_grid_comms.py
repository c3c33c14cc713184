"""Who sits where in a 3D grid: ``GridSpec`` coordinates and ``grid_comms``.

The column-major rank order is stated once, on ``GridSpec``; ``grid_comms``
turns it into fiber and plane communicators, idle ranks included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.optimizer import GridSpec
from repro.mpi import Cart2D, grid_comms
from repro.mpi.errors import CommError


class TestCoords:
    def test_column_major(self):
        g = GridSpec(2, 3, 2, 12)
        assert g.coords(0) == (0, 0, 0)
        assert g.coords(1) == (1, 0, 0)
        assert g.coords(2) == (0, 1, 0)
        assert g.coords(6) == (0, 0, 1)
        assert g.coords(11) == (1, 2, 1)

    @pytest.mark.parametrize("dims", [(2, 2, 3), (1, 4, 1), (3, 1, 2)])
    def test_rank_of_roundtrip(self, dims):
        g = GridSpec(*dims, 14)
        for rank in range(g.used):
            assert g.rank_of(*g.coords(rank)) == rank

    def test_idle_ranks_have_no_coords(self):
        g = GridSpec(2, 2, 3, 14)
        assert g.coords(12) is None and g.coords(13) is None
        assert g.group(13, "k") is None

    def test_fibers_through_rank_zero(self):
        g = GridSpec(2, 3, 4, 24)
        assert g.fiber("m") == [g.rank_of(i, 0, 0) for i in range(2)] == [0, 1]
        assert g.fiber("n") == [g.rank_of(0, j, 0) for j in range(3)] == [0, 2, 4]
        assert g.fiber("k") == [g.rank_of(0, 0, ik) for ik in range(4)] == [0, 6, 12, 18]
        assert GridSpec(1, 1, 1, 5).fiber("k") == [0]

    def test_size_mismatch(self, spmd):
        def f(comm):
            with pytest.raises(CommError):
                grid_comms(comm, GridSpec(2, 2, 2, 8), "k")

        spmd(9, f)


class TestFibers:
    def test_fiber_sizes_and_membership(self, spmd):
        g = GridSpec(2, 3, 2, 12)

        def f(comm):
            fi, fj, fl, lay = grid_comms(comm, g, "m", "n", "k", "mn")
            i, j, l = g.coords(comm.rank)
            return (
                fi.size, fj.size, fl.size, lay.size,
                fi.allgather(i), fj.allgather(j), fl.allgather(l),
            )

        res = spmd(12, f)
        for ni, nj, nl, lay, gi, gj, gl in res.results:
            assert (ni, nj, nl, lay) == (2, 3, 2, 6)
            assert gi == [0, 1]
            assert gj == [0, 1, 2]
            assert gl == [0, 1]

    def test_fiber_members_differ_along_their_axis_only(self, spmd):
        g = GridSpec(2, 3, 2, 12)

        def f(comm):
            out = {}
            for axis, sub in zip("mnk", grid_comms(comm, g, "m", "n", "k")):
                out[axis] = sub.allgather(comm.rank)
            return out

        for rank, fibers in enumerate(spmd(12, f).results):
            at = g.coords(rank)
            for pos, axis in enumerate("mnk"):
                extent = (g.pm, g.pn, g.pk)[pos]
                want = [
                    g.rank_of(*(t if p == pos else at[p] for p in range(3)))
                    for t in range(extent)
                ]
                assert fibers[axis] == want

    def test_fiber_reduction_sums_along_axis(self, spmd):
        """Summing rank ids along the k-fiber matches the arithmetic."""
        g = GridSpec(2, 2, 3, 12)

        def f(comm):
            (kfiber,) = grid_comms(comm, g, "k")
            total = kfiber.allreduce(np.array([float(comm.rank)]))
            i, j, _ = g.coords(comm.rank)
            expect = sum(g.rank_of(i, j, l) for l in range(3))
            return float(total[0]) == expect

        assert all(spmd(12, f).results)

    def test_plane_is_column_major_2d(self, spmd):
        g = GridSpec(2, 2, 2, 8)

        def f(comm):
            (plane,) = grid_comms(comm, g, "mn")
            cart = Cart2D(plane, 2, 2)
            return (cart.row, cart.col) == g.coords(comm.rank)[:2]

        assert all(spmd(8, f).results)

    def test_idle_ranks_join_every_split_and_get_none(self, spmd):
        """The case ``Cart3D`` refused: a world larger than the grid."""
        g = GridSpec(2, 2, 2, 11)

        def f(comm):
            subs = grid_comms(comm, g, "mn", "k")
            return [None if s is None else s.size for s in subs]

        res = spmd(11, f).results
        assert res[:8] == [[4, 2]] * 8
        assert res[8:] == [[None, None]] * 3
