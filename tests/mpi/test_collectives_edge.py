"""Collective edge cases: thresholds, dtypes, operator semantics."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.mpi import MAX, MIN, CommError, Op, SUM
from repro.mpi.collectives import BCAST_LONG_THRESHOLD

#: Run by ``test_one_value_per_rank_is_a_typed_error_before_any_message``
#: in a child interpreter (with and without ``-O``): each misuse must be
#: refused with a ``CommError`` on a world that has posted nothing.
_MISUSE = """
import numpy as np
from repro.mpi import CommError, run_spmd

def misuse(nprocs, call):
    world = []
    def body(comm):
        world.append(comm.transport)
        call(comm)
    try:
        run_spmd(nprocs, body)
    except RuntimeError as exc:
        assert type(exc.__cause__) is CommError, repr(exc.__cause__)
        print(exc.__cause__, "/ posted", sum(st.msgs_sent for st in world[0].ranks))

misuse(3, lambda comm: comm.scatter([1], root=0))
misuse(3, lambda comm: comm.alltoall([1, 2]))
misuse(2, lambda comm: comm.reduce_scatter([np.ones(2)]))
"""


class TestBcastThreshold:
    def test_exactly_at_threshold_uses_long_path(self, spmd):
        n = BCAST_LONG_THRESHOLD // 8  # exactly threshold bytes

        def f(comm):
            arr = np.arange(float(n)) if comm.rank == 0 else None
            got = comm.bcast(arr, root=0)
            return float(got[-1])

        res = spmd(4, f)
        assert res.results == [float(n - 1)] * 4

    def test_just_below_threshold_uses_binomial(self, spmd):
        n = BCAST_LONG_THRESHOLD // 8 - 1

        def f(comm):
            arr = np.ones(n) if comm.rank == 0 else None
            return float(comm.bcast(arr, root=0).sum())

        res = spmd(4, f)
        assert res.results == [float(n)] * 4

    def test_long_bcast_preserves_dtype_and_shape(self, spmd):
        def f(comm):
            arr = (
                np.arange(20000, dtype=np.float32).reshape(100, 200)
                if comm.rank == 0
                else None
            )
            got = comm.bcast(arr, root=0)
            return got.dtype == np.float32 and got.shape == (100, 200)

        assert all(spmd(3, f).results)

    def test_long_bcast_complex(self, spmd):
        def f(comm):
            arr = (np.arange(20000) * (1 + 2j)) if comm.rank == 0 else None
            got = comm.bcast(arr, root=0)
            return bool(got[1] == 1 + 2j)

        assert all(spmd(5, f).results)


class TestOperators:
    def test_custom_op(self, spmd):
        absmax = Op(lambda a, b: np.maximum(np.abs(a), np.abs(b)), "absmax")

        def f(comm):
            v = np.array([float(comm.rank) * (-1) ** comm.rank])
            return float(comm.allreduce(v, absmax)[0])

        res = spmd(5, f)
        assert res.results == [4.0] * 5

    def test_noncommutative_op_deterministic(self, spmd):
        """A non-commutative op still yields identical results everywhere."""
        first = Op(lambda a, b: a, "first", commutative=False)

        def f(comm):
            out = comm.allreduce(np.array([float(comm.rank)]), first)
            return float(out[0])

        res = spmd(8, f)
        assert len(set(res.results)) == 1

    def test_reduce_scatter_max(self, spmd):
        def f(comm):
            blocks = [np.array([float(comm.rank * 10 + d)]) for d in range(comm.size)]
            return float(comm.reduce_scatter(blocks, MAX)[0])

        res = spmd(4, f)
        # destination d receives max over sources s of (10 s + d)
        assert res.results == [30.0, 31.0, 32.0, 33.0]

    def test_reduce_min(self, spmd):
        def f(comm):
            return comm.reduce(np.array([float(comm.size - comm.rank)]), MIN, root=0)

        res = spmd(5, f)
        assert float(res.results[0][0]) == 1.0


class TestDegenerate:
    def test_all_collectives_on_singleton(self, spmd):
        def f(comm):
            assert comm.bcast(7, 0) == 7
            assert comm.allgather("x") == ["x"]
            assert comm.gather(1, 0) == [1]
            assert comm.scatter([5], 0) == 5
            assert comm.alltoall(["z"]) == ["z"]
            assert float(comm.allreduce(np.array([2.0]))[0]) == 2.0
            assert float(comm.reduce_scatter([np.array([3.0])])[0]) == 3.0
            comm.barrier()
            return True

        assert all(spmd(1, f).results)

    def test_zero_length_payloads(self, spmd):
        def f(comm):
            got = comm.allgather(np.zeros(0))
            rs = comm.reduce_scatter([np.zeros(0) for _ in range(comm.size)])
            return all(g.size == 0 for g in got) and rs.size == 0

        assert all(spmd(4, f).results)

    def test_scatter_wrong_length_asserts(self, spmd):
        # "asserts" in the id is history: it is a typed CommError now.
        def f(comm):
            if comm.rank == 0:
                with pytest.raises(CommError, match="scatter.*got 3.*size is 1"):
                    comm.scatter([1, 2, 3], root=0)  # wrong length
            # avoid stranding non-roots: root never sent, so nothing to do

        spmd(1, f)

    @pytest.mark.parametrize("optimize", [False, True], ids=["plain", "python-O"])
    def test_one_value_per_rank_is_a_typed_error_before_any_message(self, optimize):
        """``scatter``, ``alltoall`` and ``reduce_scatter`` given the wrong
        number of values raise ``CommError`` naming the collective, the
        length given and ``comm.size`` — also under ``python -O``, where
        the old ``assert`` vanished and an ``IndexError`` came out of the
        exchange after the root had already posted messages."""
        proc = subprocess.run(
            [sys.executable, *(["-O"] if optimize else []), "-c", _MISUSE],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "scatter (at the root) needs one value per rank: got 1, comm.size is 3 / posted 0",
            "alltoall needs one value per rank: got 2, comm.size is 3 / posted 0",
            "reduce_scatter needs one value per rank: got 1, comm.size is 2 / posted 0",
        ]

    def test_sum_of_objects_via_pickle(self, spmd):
        """Object-mode reduce with Python-number payloads."""

        def f(comm):
            return comm.allreduce(comm.rank, SUM)

        res = spmd(6, f)
        assert res.results == [15] * 6
