"""The inputs nobody ran: thin problems and zero dimensions, on every schedule.

A dimension of 1, or smaller than the world, leaves ranks with empty
native rectangles; every schedule of ``repro.baselines.SCHEDULES`` must
still equal numpy.  Before the placeholder of an empty block was shaped
by the rank's own rectangle (``DistMatrix.local_block``), ``cosma_matmul``
and ``carma_matmul`` died inside a rank with numpy's "mismatch in its
core dimension" on the fourteen ``THIN_REGRESSIONS`` below.  A zero
dimension is one typed error, raised before any message is sent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BlockCol1D, DistMatrix, ca3dmm_matmul, dense_random
from repro.baselines import SCHEDULES
from repro.core.pdgemm import pdgemm
from repro.ft import resilient_multiply
from tests.conftest import schedules_for

#: m, n or k is 1, or smaller than most of PROCS.
THIN_SHAPES = [
    (1, 1, 1), (5, 3, 1), (1, 7, 5), (6, 1, 4), (3, 2, 9),
    (2, 17, 3), (13, 1, 1), (1, 1, 11), (1, 9, 1),
]
PROCS = [1, 2, 3, 4, 5, 7, 9, 12, 16]
THIN_REGRESSIONS = [
    (name, shape, p)
    for name in ("cosma", "carma")
    for shape, procs in (((1, 1, 1), (4, 5, 7, 9, 12, 16)), ((5, 3, 1), (16,)))
    for p in procs
]


def operands(comm, m, n, k):
    a_mat, b_mat = dense_random(m, k, 1), dense_random(k, n, 2)
    a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), a_mat)
    b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), b_mat)
    return a, b, a_mat @ b_mat


@pytest.mark.parametrize("p", PROCS)
@pytest.mark.parametrize("shape", THIN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_thin_problems_equal_numpy_on_every_schedule(spmd, shape, p):
    def f(comm):
        a, b, ref = operands(comm, *shape)
        return {
            name: float(np.abs(fn(a, b).to_global() - ref).max())
            for name, fn in schedules_for(p).items()
        }

    for errs in spmd(p, f).results:
        assert max(errs.values()) < 1e-12, errs


@pytest.mark.parametrize("name,shape,p", THIN_REGRESSIONS)
def test_thin_problems_that_crashed_cosma_and_carma(spmd, name, shape, p):
    def f(comm):
        a, b, ref = operands(comm, *shape)
        return np.allclose(SCHEDULES[name](a, b).to_global(), ref, atol=1e-12)

    assert len(THIN_REGRESSIONS) == 14
    assert all(spmd(p, f).results)


@pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 3), (3, 3, 0)], ids=["m0", "n0", "k0"])
def test_zero_dimension_is_one_typed_error_before_any_message(spmd, shape):
    def f(comm):
        a, b, _ = operands(comm, *shape)
        entries = dict(schedules_for(comm.size))
        entries["pdgemm"] = lambda a, b: pdgemm("N", "N", 1.0, a, b)
        entries["resilient"] = lambda a, b: resilient_multiply(comm, a, b)
        for name, fn in entries.items():
            with pytest.raises(ValueError, match="matrix dimensions must be positive"):
                fn(a, b)
        return True

    res = spmd(4, f)
    assert all(res.results)
    assert [t.msgs_sent for t in res.traces] == [0] * 4


def test_op_coded_entry_points_share_the_shape_check(spmd):
    """``pdgemm``, ``ca3dmm_matmul`` and ``resilient_multiply`` derive
    (m, n, k) from their op codes through ``problem_dims``."""

    def f(comm):
        a, b, _ = operands(comm, 4, 6, 5)  # A is 4x5, B is 5x6: A^T B has no shared k
        for call in (
            lambda: pdgemm("T", "N", 1.0, a, b),
            lambda: ca3dmm_matmul(a, b, transa=True),
            lambda: resilient_multiply(comm, a, b, transa=True),
        ):
            with pytest.raises(ValueError, match=r"op\(A\) is 5x4, op\(B\) is 5x6"):
                call()
        return True

    res = spmd(2, f)
    assert all(res.results)
    assert [t.msgs_sent for t in res.traces] == [0, 0]
