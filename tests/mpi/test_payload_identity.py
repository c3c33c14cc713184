"""What every array payload costs the wire, pinned byte for byte against
the parent.

``tests/mpi/test_payload_contract.py`` holds each priced payload to a
pickle the test builds itself; this file holds whole runs to the commit
*before* arrays in an allgather stopped being pickled: one sha256
per case over every message's ``(src, dst, tag, nbytes)`` in the
tracer's ``msglog``.  The cases are allgathers of arrays (six dtypes; an
empty, a 1-D, a 1x1, a 256x257, an F-order, a strided and a read-only
block; P = 2, 3, 5, 7, 8 and 64), allgathers that mix ``None`` and
arrays, ``ca3dmm_matmul`` on grids that replicate an operand (with and
without ABFT), redistributions whose batches straddle 64 and 128 KiB or
hold one piece of more than 64 KiB, and a redistribution from tiles that
came out of an allgather.  ``payload_digests.json`` was recorded before
allgather windows of arrays were handed over; re-record only for a
change that means to move what a payload costs, with ``python -m
tests.oracles record payload`` (see :mod:`tests.oracles`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro import BlockCol1D, BlockCyclic2D, BlockRow1D, DistMatrix
from repro.core import Ca3dmm, Ca3dmmPlan
from repro.layout.blocks import Rect
from repro.layout.distributions import Explicit
from repro.layout.redistribute import redistribute
from repro.machine.model import laptop
from tests import oracles

DTYPES = ("float32", "float64", "complex64", "complex128", "int64", "bool")


def _values(shape: tuple[int, ...], dtype: str, rank: int) -> np.ndarray:
    n = int(np.prod(shape))
    return ((np.arange(n) + rank) % (2 if dtype == "bool" else 7)).astype(dtype).reshape(shape)


def _read_only(dtype: str, rank: int) -> np.ndarray:
    """A contiguous view nobody may write: 3 x (5 + 4r), so some ranks'
    buffers are shorter than 256 bytes and some longer."""
    block = _values((3, 5 + 4 * rank), dtype, rank)
    view = block[:]
    view.flags.writeable = False
    return view


#: kind -> rank r's block of ``dtype``; the shapes differ between ranks.
BLOCKS = {
    "empty": lambda dtype, r: _values((0, 3 + r % 2), dtype, r),
    "vector": lambda dtype, r: _values((5 + r,), dtype, r),
    "one": lambda dtype, r: _values((1, 1), dtype, r),
    "big": lambda dtype, r: _values((256, 257), dtype, r),
    "fortran": lambda dtype, r: np.asfortranarray(_values((4 + r % 3, 3), dtype, r)),
    "strided": lambda dtype, r: _values((6, 7 + r), dtype, r)[::2, 1::2],
    "read_only": _read_only,
}


def _allgather(kind: str, dtype: str):
    def body(comm):
        comm.allgather(BLOCKS[kind](dtype, comm.rank))
    return body


def _mixed(who: str):
    """``None`` from most ranks, an array from rank 0 or from every odd one."""
    def body(comm):
        has = comm.rank == 0 if who == "rank0" else comm.rank % 2 == 1
        comm.allgather(_values((3, 4), "float64", comm.rank) if has else None)
    return body


def _matmul(m: int, n: int, k: int, abft: bool):
    def body(comm):
        plan = Ca3dmmPlan(m, n, k, comm.size)
        a = DistMatrix.from_global(comm, plan.a_dist, _values((m, k), "float64", 0))
        b = DistMatrix.from_global(comm, plan.b_dist, _values((k, n), "float64", 1))
        Ca3dmm(comm, m, n, k, abft=abft).multiply(a, b)
    return body


#: name -> (source layout, destination layout) on P = 4 ranks, m x n.
def _layouts(name: str, m: int, n: int):
    p = 4
    return {
        "cyclic_to_rows": (BlockCyclic2D((m, n), p, 2, 2, 16), BlockRow1D((m, n), p)),
        "rows_to_cyclic": (BlockRow1D((m, n), p), BlockCyclic2D((m, n), p, 2, 2, 16)),
        "cols_to_rows": (BlockCol1D((m, n), p), BlockRow1D((m, n), p)),
    }[name]


def _redistribute(name: str, m: int, n: int, dtype: str):
    src, dst = _layouts(name, m, n)

    def body(comm):
        a = DistMatrix.from_global(comm, src, _values((m, n), dtype, 0))
        redistribute(a, dst)
    return body


def _gathered_tiles(comm):
    """Rank r's tiles are the top half of rank r+1's column strip and the
    bottom half of rank r+2's, both as the allgather delivered them."""
    m, n, p = 16, 4 * comm.size, comm.size
    strips = BlockCol1D((m, n), p)
    got = comm.allgather(_values((m, 4), "float64", comm.rank))
    mapping = {
        r: [Rect(0, m // 2, 4 * ((r + 1) % p), 4 * ((r + 1) % p) + 4),
            Rect(m // 2, m, 4 * ((r + 2) % p), 4 * ((r + 2) % p) + 4)]
        for r in range(p)
    }
    r = comm.rank
    tiles = [got[(r + 1) % p][: m // 2], got[(r + 2) % p][m // 2:]]
    a = DistMatrix(comm, Explicit.from_mapping((m, n), p, mapping), tiles)
    redistribute(a, strips)


def _cases() -> dict:
    cases = {}
    for kind in BLOCKS:
        for dtype in DTYPES:
            for p in (2, 3, 5, 7, 8) + (() if kind == "big" else (64,)):
                cases[f"allgather/{kind}/{dtype}/P{p}"] = (p, _allgather(kind, dtype))
    for who in ("rank0", "odd"):
        for p in (2, 7, 8):
            cases[f"mixed/{who}/P{p}"] = (p, _mixed(who))
    for m, n, k, p in ((192, 384, 192, 16), (1536, 1536, 1536, 16),
                       (512, 128, 256, 32), (256, 1024, 256, 64)):
        for abft in (False, True):
            cases[f"ca3dmm/{m}x{n}x{k}/P{p}/{'abft' if abft else 'plain'}"] = (
                p, _matmul(m, n, k, abft))
    for name in ("cyclic_to_rows", "rows_to_cyclic"):
        for n in (448, 480, 512, 544, 960, 992, 1024, 1056):
            for dtype in ("float64", "complex64"):
                cases[f"redist/{name}/256x{n}/{dtype}"] = (4, _redistribute(name, 256, n, dtype))
    for m in (364, 368, 512):  # one piece of 66, 68 and 131 KB per batch
        cases[f"redist/cols_to_rows/{m}x{m}/float64"] = (4, _redistribute(
            "cols_to_rows", m, m, "float64"))
    for p in (3, 5, 8):
        cases[f"redist/gathered_tiles/P{p}"] = (p, _gathered_tiles)
    return cases


def digest(outcome: oracles.Outcome) -> str:
    return oracles.sha("".join(repr((rec.src, rec.dst, rec.tag, rec.nbytes))
                               for rec in outcome.result.tracer.msglog))


CASES = {key: (oracles.Run(functools.partial(oracles.spmd, body=body), key, p, laptop()), digest)
         for key, (p, body) in _cases().items()}
ORACLE = oracles.Oracle("payload", __file__, CASES)


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(ORACLE.recorded) == sorted(CASES)


test_every_message_costs_what_it_did = ORACLE.test()
