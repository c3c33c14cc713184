"""Blocks nobody writes travel frozen (``repro.mpi.datatypes.freeze``).

No rank writes a Cannon block, so the engine and the 2D Cannon baseline
freeze the operand blocks they allocated, and ``cannon_multiply`` freezes
every block it receives: from then on a block is handed from rank to
rank as it is.  Every other schedule freezes the blocks it replicates,
broadcasts, shifts or exchanges the same way.  A caller's tiles are
never frozen, and a flip on the wire lands on a copy, which the receiver
sees and ABFT detects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BlockCol1D, BlockRow1D, DistMatrix, ca3dmm_matmul, dense_random
from repro.baselines import SCHEDULES as REGISTRY, matmul_1d_m
from repro.baselines.cannon2d import cannon_matmul
from repro.core.cannon import cannon_multiply
from repro.core.pdgemm import pdgemm
from repro.layout.blocks import block_range
from repro.machine.model import laptop
from repro.mpi import Cart2D, FaultPlan, LinkFault, run_spmd
from repro.mpi.datatypes import freeze, is_frozen

M, N, K, P = 24, 20, 16, 4


def _blocks(cart: Cart2D, a: np.ndarray, b: np.ndarray, own: bool = True):
    """The unskewed Cannon blocks of ``cart``'s position: copies the rank
    owns, or views of ``a`` and ``b``."""
    s, u, v = cart.nrows, cart.row, cart.col
    (m0, m1), (ak0, ak1) = block_range(a.shape[0], s, u), block_range(a.shape[1], s, v)
    (bk0, bk1), (n0, n1) = block_range(b.shape[0], s, u), block_range(b.shape[1], s, v)
    take = np.copy if own else np.asarray
    return take(a[m0:m1, ak0:ak1]), take(b[bk0:bk1, n0:n1])


def _assemble(results, s: int, m: int, n: int) -> np.ndarray:
    c = np.zeros((m, n))
    for u, v, blk in results:
        (r0, r1), (c0, c1) = block_range(m, s, u), block_range(n, s, v)
        c[r0:r1, c0:c1] = blk
    return c


class TestCorruptedFrozenBlock:
    A, B = dense_random(M, K, 1), dense_random(K, N, 2)

    def test_the_senders_block_is_unchanged(self):
        """A flip on a shift of frozen blocks lands on the receiver's
        copy: every rank's own blocks are as it froze them, and the
        product shows the flip."""
        plan = FaultPlan(seed=5, links=(LinkFault(corrupt_phase="cannon", corrupt_at=(1,)),))

        def body(comm):
            cart = Cart2D(comm, 2, 2)
            a_blk, b_blk = map(freeze, _blocks(cart, self.A, self.B))
            with comm.phase("cannon"):
                c_blk = cannon_multiply(cart, a_blk, b_blk)
            return (cart.row, cart.col, c_blk), (a_blk, b_blk), _blocks(cart, self.A, self.B)

        res = run_spmd(P, body, machine=laptop(), faults=plan)
        assert sum(t.corruptions_injected for t in res.traces) >= 1
        for _c, (a_blk, b_blk), (a_want, b_want) in res.results:
            assert is_frozen(a_blk) and is_frozen(b_blk)
            assert np.array_equal(a_blk, a_want) and np.array_equal(b_blk, b_want)
        c = _assemble([r[0] for r in res.results], 2, M, N)
        assert not np.allclose(c, self.A @ self.B)

    def test_abft_still_detects_the_flip(self):
        """The protected engine: the flipped copy is caught in phase
        ``cannon`` and the product is right."""
        plan = FaultPlan(seed=11, links=(LinkFault(corrupt_phase="cannon", corrupt_at=(0,)),))

        def body(comm):
            a = DistMatrix.from_global(comm, BlockCol1D((M, K), comm.size), self.A)
            b = DistMatrix.from_global(comm, BlockCol1D((K, N), comm.size), self.B)
            return pdgemm("N", "N", 1.0, a, b, abft=True).to_global()

        res = run_spmd(P, body, machine=laptop(), faults=plan)
        assert res.metrics.corruptions_injected_by_phase.get("cannon", 0) >= 1
        assert res.metrics.corruptions_detected_by_phase.get("cannon", 0) >= 1
        np.testing.assert_allclose(res.results[0], self.A @ self.B, rtol=1e-12, atol=1e-12)


def test_a_flip_in_a_frozen_replication_lands_on_a_copy():
    """Every message of ``matmul_1d_m``'s allgather of frozen B bands may
    flip (64², P = 8): each flip lands on a frozen copy in that window,
    so every rank's own band is as it froze it, and the product shows
    the flips."""
    plan = FaultPlan(seed=5, links=(LinkFault(corrupt_prob=1.0, corrupt_phase="replicate"),))
    a_glob, b_glob = dense_random(64, 64, 1), dense_random(64, 64, 2)

    def body(comm):
        a = DistMatrix.from_global(comm, BlockRow1D((64, 64), comm.size), a_glob)
        b = DistMatrix.from_global(comm, BlockRow1D((64, 64), comm.size), b_glob)
        return matmul_1d_m(a, b).to_global(), b.tiles[0]

    res = run_spmd(8, body, machine=laptop(), faults=plan)
    assert sum(t.corruptions_injected for t in res.traces) == 24
    for rank, (_c, tile) in enumerate(res.results):
        assert tile.flags.writeable and np.array_equal(tile, b_glob[8 * rank: 8 * rank + 8])
    assert not np.allclose(res.results[0][0], a_glob @ b_glob)


def _matmul(schedule):
    """``schedule`` on A in row strips and B in column strips; the
    caller's tiles."""

    def run(comm, a_glob, b_glob):
        a = DistMatrix.from_global(comm, BlockRow1D(a_glob.shape, comm.size), a_glob)
        b = DistMatrix.from_global(comm, BlockCol1D(b_glob.shape, comm.size), b_glob)
        tiles = [*a.tiles, *b.tiles]
        return tiles, lambda: schedule(a, b)

    return run


def _direct_cannon(comm, a_glob, b_glob):
    """Cannon on the blocks of a 2 x 2 grid: views of a read-only A, or
    copies the caller owns and did not freeze."""
    cart = Cart2D(comm, 2, 2)
    a_blk, b_blk = _blocks(cart, a_glob, b_glob, own=a_glob.flags.writeable)
    return [a_blk, b_blk], lambda: cannon_multiply(cart, a_blk, b_blk)


SCHEDULES = {
    "ca3dmm_matmul": _matmul(ca3dmm_matmul),
    "pdgemm": _matmul(lambda a, b: pdgemm("N", "N", 1.0, a, b)),
    "cannon_matmul": _matmul(cannon_matmul),
    "cannon_multiply": _direct_cannon,
    **{name: _matmul(schedule) for name, schedule in REGISTRY.items()},
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize("a_read_only", [False, True], ids=["A_writeable", "A_read_only"])
def test_every_caller_tile_keeps_its_writeable_flag(name, a_read_only):
    """A from a global that may be read-only (whose tiles are then
    read-only views), B from a writeable one: after the multiply every
    tile is as writeable as it was, and holds what it held."""
    a_glob, b_glob = dense_random(M, K, 3), dense_random(K, N, 4)
    a_glob.setflags(write=not a_read_only)

    def body(comm):
        tiles, multiply = SCHEDULES[name](comm, a_glob, b_glob)
        before = [(t.flags.writeable, t.copy()) for t in tiles]
        multiply()
        return before, [(t.flags.writeable, t) for t in tiles]

    res = run_spmd(P, body, machine=laptop())
    for before, after in res.results:
        assert [w for w, _t in before] == [w for w, _t in after]
        assert all(np.array_equal(x, y) for (_w, x), (_v, y) in zip(before, after))
    flags = {w for before, _after in res.results for w, _t in before}
    assert flags == ({False, True} if a_read_only else {True})
    assert not a_glob.flags.writeable if a_read_only else a_glob.flags.writeable
