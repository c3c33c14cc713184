"""Every collective posts exactly its rank's row of :mod:`repro.patterns`.

For each collective, group size and overlap mode, the messages a rank
posts — destination, ``coll`` label and bytes, in posting order — are
the sends of its row(s), each weighing the blocks the algorithm says it
moves.  The bytes are written from each algorithm's invariant, not by
replaying the rows: every contribution below weighs a different number
of bytes per rank, so a row that sends to the right rank but moves the
wrong blocks (a Bruck round receiving from ``me - h`` instead of
``me + h``) posts the wrong bytes.  The results are checked too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import patterns
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.mpi.collectives import BCAST_LONG_THRESHOLD
from repro.mpi.datatypes import nbytes_of

SIZES = [1, 2, 3, 5, 6, 7, 8, 12]
#: a long broadcast's element count: above the threshold, and a multiple of
#: every size here, so each scatter chunk weighs the same
LONG = 840 * (BCAST_LONG_THRESHOLD // (8 * 840) + 1)


def _sends(row, label, weigh):
    """``(dst, label, bytes)`` of a row's sends; ``weigh(dst, nblocks)``."""
    return [(dst, label, weigh(dst, n)) for dst, _, n in row if dst is not None]


def _block(r: int) -> np.ndarray:
    """Rank ``r``'s contribution: ``r + 1`` words, so every rank's differs."""
    return np.full(r + 1, float(r))


def _bruck_bytes(me: int, size: int):
    """A Bruck round sends the first ``n`` blocks it holds: those of ranks
    ``me, me + 1, …`` (mod size)."""
    return lambda _dst, n: sum(_block((me + j) % size).nbytes for j in range(n))


def _header(is_long: bool, value) -> int:
    """What a broadcast's header weighs: the path, and a long one's shape."""
    return nbytes_of((is_long, value.shape if is_long else None))


def _bcast(me, size, root, value, label="bcast.binomial"):
    """A short broadcast: the header's binomial row, then the value's."""
    return (_sends(patterns.binomial_bcast(me, size, root), label,
                   lambda _d, _n: _header(False, value))
            + _sends(patterns.binomial_bcast(me, size, root), label,
                     lambda _d, _n: value.nbytes))


def _long_bcast(me, size, root, value):
    """The header's binomial row, the scatter's and the allgather's."""
    label, chunk = "bcast.scatter_allgather", value.nbytes // size
    return (_sends(patterns.binomial_bcast(me, size, root), "bcast.binomial",
                   lambda _d, _n: _header(True, value))
            + _sends(patterns.linear_scatter(me, size, root), label, lambda _d, _n: chunk)
            + _sends(patterns.bruck(me, size), label, lambda _d, n: n * chunk))


def _allreduce(me, size):
    value = np.ones(3)
    if size & (size - 1) == 0:
        return _sends(patterns.recursive_doubling(me, size), "allreduce.recursive_doubling",
                      lambda _d, _n: value.nbytes)
    label = "allreduce.reduce_bcast"
    return (_sends(patterns.binomial_reduce(me, size, 0), label, lambda _d, _n: value.nbytes)
            + _bcast(me, size, 0, value, label))


def _root(size: int) -> int:
    return size // 2


#: name -> (what every rank runs, its expected sends, its expected result)
CASES = {
    "barrier": (
        lambda c: c.barrier(),
        lambda me, p: _sends(patterns.dissemination(me, p), "barrier.dissemination",
                             lambda _d, _n: 0),
        lambda me, p: None,
    ),
    "bcast": (
        lambda c: c.bcast(_block(7) if c.rank == _root(c.size) else None, _root(c.size)).tolist(),
        lambda me, p: _bcast(me, p, _root(p), _block(7)),
        lambda me, p: _block(7).tolist(),
    ),
    "bcast-long": (
        lambda c: float(c.bcast(np.arange(LONG, dtype=float) if c.rank == _root(c.size)
                                else None, _root(c.size)).sum()),
        lambda me, p: _long_bcast(me, p, _root(p), np.arange(LONG, dtype=float)),
        lambda me, p: float(np.arange(LONG, dtype=float).sum()),
    ),
    "ibcast": (
        lambda c: c.ibcast(_block(7) if c.rank == 0 else None).wait().tolist(),
        lambda me, p: _bcast(me, p, 0, _block(7)),
        lambda me, p: _block(7).tolist(),
    ),
    "reduce": (
        lambda c: c.reduce(np.ones(3), root=_root(c.size)),
        lambda me, p: _sends(patterns.binomial_reduce(me, p, _root(p)), "reduce.binomial",
                             lambda _d, _n: 24),
        lambda me, p: [float(p)] * 3 if me == _root(p) else None,
    ),
    "allreduce": (
        lambda c: c.allreduce(np.ones(3)).tolist(),
        _allreduce,
        lambda me, p: [float(p)] * 3,
    ),
    "gather": (
        lambda c: c.gather(_block(c.rank), _root(c.size)),
        lambda me, p: _sends(patterns.linear_gather(me, p, _root(p)), "gather.linear",
                             lambda _d, _n: _block(me).nbytes),
        lambda me, p: [_block(r).tolist() for r in range(p)] if me == _root(p) else None,
    ),
    "scatter": (
        lambda c: c.scatter([_block(r) for r in range(c.size)] if c.rank == _root(c.size)
                            else None, _root(c.size)),
        lambda me, p: _sends(patterns.linear_scatter(me, p, _root(p)), "scatter.linear",
                             lambda d, _n: _block(d).nbytes),
        lambda me, p: _block(me).tolist(),
    ),
    "allgather": (
        lambda c: c.allgather(_block(c.rank)),
        lambda me, p: _sends(patterns.bruck(me, p), "allgather.bruck", _bruck_bytes(me, p)),
        lambda me, p: [_block(r).tolist() for r in range(p)],
    ),
    "iallgather": (
        lambda c: c.iallgather(_block(c.rank)).wait(),
        lambda me, p: _sends(patterns.bruck(me, p), "allgather.bruck", _bruck_bytes(me, p)),
        lambda me, p: [_block(r).tolist() for r in range(p)],
    ),
    "alltoall": (
        lambda c: c.alltoall([_block(r) for r in range(c.size)]),
        lambda me, p: _sends(patterns.pairwise(me, p), "alltoall.pairwise",
                             lambda d, _n: _block(d).nbytes),
        lambda me, p: [_block(me).tolist()] * p,
    ),
    "reduce_scatter": (
        lambda c: c.reduce_scatter([_block(r) for r in range(c.size)]),
        lambda me, p: _sends(patterns.pairwise(me, p), "reduce_scatter.pairwise",
                             lambda d, _n: _block(d).nbytes),
        lambda me, p: (_block(me) * p).tolist(),
    ),
    "ireduce_scatter": (
        lambda c: c.ireduce_scatter([_block(r) for r in range(c.size)]).wait(),
        lambda me, p: _sends(patterns.pairwise(me, p), "reduce_scatter.pairwise",
                             lambda d, _n: _block(d).nbytes),
        lambda me, p: (_block(me) * p).tolist(),
    ),
}


def _plain(value):
    """Arrays as lists, so results compare with ``==``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("overlap", ["none", "full"])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", CASES)
def test_every_rank_posts_its_row(name, size, overlap):
    run, sends, result = CASES[name]
    res = run_spmd(size, run, machine=laptop().with_overlap(overlap), record_events=True)
    posted = {me: [] for me in range(size)}
    for msg in sorted(res.tracer.msglog, key=lambda m: m.seq):
        posted[msg.src].append((msg.dst, msg.coll, msg.nbytes))
    for me in range(size):
        assert posted[me] == sends(me, size), (name, size, me)
        assert _plain(res.results[me]) == result(me, size), (name, size, me)
