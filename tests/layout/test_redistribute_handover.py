"""A redistribution batch is handed over, not pickled: its pieces are the
receiver's from the moment they are sent.

What the pickle used to guarantee by construction must hold for the
copies: no piece a rank receives shares memory with a sender's tile, a
sender may overwrite its tiles as soon as ``redistribute`` returns, and a
corruption fault flips the receiver's copy, never the sender's tile.
"""

from __future__ import annotations

import numpy as np

from repro.layout.distributions import Block2D, BlockCol1D, BlockRow1D
from repro.layout.matrix import DistMatrix, dense_random
from repro.layout.redistribute import redistribute
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.mpi.datatypes import Hop
from repro.mpi.faults import FaultPlan, LinkFault

P = 4
SHAPE = (12, 10)
REF = dense_random(*SHAPE, 3)
SRC, DST = BlockCol1D(SHAPE, P), BlockRow1D(SHAPE, P)


class _Tap:
    """A communicator that keeps everything ``recv`` returns."""

    def __init__(self, comm):
        self._comm = comm
        self.received = []

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def recv(self, source, tag):
        got = self._comm.recv(source=source, tag=tag)
        self.received.append(got)
        return got


def _held(result_tiles, rank: int, dst=DST) -> list[bool]:
    return [
        np.array_equal(tile, REF[r.r0 : r.r1, r.c0 : r.c1])
        for r, tile in zip(dst.owned_rects(rank), result_tiles)
    ]


def test_no_received_piece_shares_memory_with_a_sender_tile():
    dst = Block2D(SHAPE, P, 2, 2)

    def f(comm):
        tap = _Tap(comm)
        x = DistMatrix.from_global(tap, SRC, REF)
        y = redistribute(x, dst)
        return x.tiles, tap.received, y.tiles

    res = run_spmd(P, f, machine=laptop())
    tiles = [t for sent, _got, _y in res.results for t in sent]
    hops = [hop for _sent, got, _y in res.results for hop in got]
    assert hops and all(type(hop) is Hop for hop in hops)
    pieces = [data for hop in hops for _rect, data in hop.blocks]
    assert len(pieces) >= len(hops)
    for data in pieces:
        assert not any(np.shares_memory(data, tile) for tile in tiles)
    for rank, (_sent, _got, y) in enumerate(res.results):
        assert all(_held(y, rank, dst))


def test_a_sender_may_overwrite_its_tiles_once_redistribute_returns():
    """Ranks run one at a time: the last one to post finds every batch
    it awaits already sent, returns, and scribbles on its tiles before
    the others have assembled what it sent them."""

    def f(comm):
        x = DistMatrix.from_global(comm, SRC, REF)
        y = redistribute(x, DST)
        for tile in x.tiles:
            tile[...] = -1.0
        comm.barrier()
        return y.tiles

    for rank, tiles in enumerate(run_spmd(P, f, machine=laptop()).results):
        assert all(_held(tiles, rank)), rank


def test_a_corrupted_batch_flips_the_receivers_copy_only():
    """``corrupt_at=(0,)`` on the link 0 → 1 in phase ``redist``: one
    element of rank 1's result is off, rank 0's tile is bit-identical."""
    plan = FaultPlan(
        seed=3, links=(LinkFault(src=0, dst=1, corrupt_phase="redist", corrupt_at=(0,)),)
    )

    def f(comm):
        x = DistMatrix.from_global(comm, SRC, REF)
        before = [t.tobytes() for t in x.tiles]
        y = redistribute(x, DST)
        return before, [t.tobytes() for t in x.tiles], y.tiles

    res = run_spmd(P, f, machine=laptop(), faults=plan)
    assert [t.corruptions_injected for t in res.traces] == [1, 0, 0, 0]
    for rank, (before, after, tiles) in enumerate(res.results):
        assert before == after, rank
        off = sum(
            int(np.count_nonzero(tile != REF[r.r0 : r.r1, r.c0 : r.c1]))
            for r, tile in zip(DST.owned_rects(rank), tiles)
        )
        assert off == (1 if rank == 1 else 0), rank
