"""The SUMMA family and CA3DMM-S make their grid groups without a split.

``Cart2D.row_col_comms`` makes a grid's rows and columns with one
``Comm.create_groups``, and ``grid_comms`` a 3D grid's planes and
fibers with one more: one context agreement per call whose largest
group has more than one rank, none otherwise, and never a
``Comm.split``.  On P = 7 the 2D grid is 1 x 7, so its columns are
single ranks, made locally, and CA3DMM-S's 2 x 1 x 3 grid leaves one
rank idle.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines import SCHEDULES
from repro.baselines.summa import summa_grid
from repro.grid.optimizer import cosma_grid
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import collectives, run_spmd
from repro.mpi.comm import Comm

M, N, K = 24, 20, 28


def expected_agreements(name: str, p: int, rank: int) -> int:
    """Agreements ``rank`` takes part in: one per ``create_groups`` call
    whose largest group holds more than one rank."""
    if name != "ca3dmm-s":
        return int(max(summa_grid(p, None)) > 1)
    g = cosma_grid(M, N, K, p)
    plane = int(max(g.pm * g.pn, g.pk) > 1)  # grid_comms(comm, g, "mn", "k")
    lines = int(rank < g.used and max(g.pm, g.pn) > 1)  # Cart2D over the plane
    return plane + lines


@pytest.mark.parametrize("p", [7, 64])
@pytest.mark.parametrize("name", ["summa", "summa-a", "summa-b", "summa-auto", "ca3dmm-s"])
def test_grid_groups_take_one_agreement_each_and_no_split(name, p, monkeypatch):
    agreements: Counter = Counter()
    splits: Counter = Counter()
    inside: set = set()  # world ranks inside a create_groups call
    split, create_groups, allreduce = Comm.split, Comm.create_groups, collectives.allreduce

    def counted_split(self, *args, **kw):
        splits[self.world_rank] += 1
        return split(self, *args, **kw)

    def marked_create_groups(self, *args, **kw):
        inside.add(self.world_rank)
        try:
            return create_groups(self, *args, **kw)
        finally:
            inside.discard(self.world_rank)

    def counted_allreduce(comm, *args, **kw):
        agreements[comm.world_rank] += comm.world_rank in inside
        return allreduce(comm, *args, **kw)

    monkeypatch.setattr(Comm, "split", counted_split)
    monkeypatch.setattr(Comm, "create_groups", marked_create_groups)
    monkeypatch.setattr(collectives, "allreduce", counted_allreduce)
    ref = dense_random(M, K, 1) @ dense_random(K, N, 2)

    def body(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((M, K), p), dense_random(M, K, 1))
        b = DistMatrix.from_global(comm, BlockCol1D((K, N), p), dense_random(K, N, 2))
        return SCHEDULES[name](a, b).to_global()

    res = run_spmd(p, body, machine=laptop())
    for c in res.results:
        np.testing.assert_allclose(c, ref, atol=1e-10)
    assert sum(splits.values()) == 0, "a grid group reached Comm.split"
    assert [agreements[r] for r in range(p)] == [
        expected_agreements(name, p, r) for r in range(p)]
