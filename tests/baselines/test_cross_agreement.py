"""All algorithms must agree with each other bit-for-meaning.

One distributed input pair, every algorithm, identical mathematical
output — the strongest single check that the schedules of
``repro.baselines.SCHEDULES`` implement the same multiplication.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout import BlockCol1D, BlockRow1D, DistMatrix, dense_random
from tests.conftest import schedules_for


@pytest.mark.parametrize("m,n,k,P", [(24, 20, 28, 8), (40, 8, 8, 12), (9, 9, 60, 16)])
def test_all_algorithms_agree(spmd, m, n, k, P):
    def f(comm):
        A, B = dense_random(m, k, 5), dense_random(k, n, 6)
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), A)
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), B)
        out_dist = BlockRow1D((m, n), comm.size)
        ref = A @ B
        errs = {}
        for name, fn in schedules_for(P).items():
            c = fn(a, b, c_dist=out_dist)
            errs[name] = float(np.max(np.abs(c.to_global() - ref)))
        return errs

    res = spmd(P, f)
    scale = max(m, n, k)
    for errs in res.results:
        for name, err in errs.items():
            assert err < 1e-10 * scale, f"{name} disagrees: {err}"


def test_algorithms_preserve_input(spmd):
    """No algorithm may mutate the caller's distributed operands."""

    def f(comm):
        A, B = dense_random(12, 16, 1), dense_random(16, 10, 2)
        a = DistMatrix.from_global(comm, BlockCol1D((12, 16), comm.size), A)
        b = DistMatrix.from_global(comm, BlockCol1D((16, 10), comm.size), B)
        snap_a = [t.copy() for t in a.tiles]
        snap_b = [t.copy() for t in b.tiles]
        for fn in schedules_for(comm.size).values():
            fn(a, b)
            assert all(np.array_equal(s, t) for s, t in zip(snap_a, a.tiles))
            assert all(np.array_equal(s, t) for s, t in zip(snap_b, b.tiles))
        return True

    assert all(spmd(4, f).results)
