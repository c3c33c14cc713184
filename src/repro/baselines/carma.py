"""CARMA (Demmel et al., IPDPS 2013): recursive communication-avoiding MM.

CARMA bisects the largest dimension of the current subproblem at every
level, assigning each half-problem to half of the processes, until one
process remains per subproblem.  Each bisection costs:

* ``m``-split — the two halves need the same B: pairwise exchange of B
  holdings (a replication),
* ``n``-split — pairwise exchange of A holdings,
* ``k``-split — nothing on the way down; on the way back up the paired
  processes exchange-and-sum *halves* of their partial C blocks (a
  pairwise reduce-scatter).

As the paper notes, CARMA "requires the number of processes to be a
power of two and requires special matrix distributions": we honour
both.  Only the largest ``2^t <= P`` ranks are active (the rest join
redistribution only), and the native layouts — computed by a dry-run of
the same recursion — give each rank exactly the A/B rectangle its leaf
first touches, so descending performs only the replication exchanges
CARMA's cost model counts.

To keep the recursion *structurally* identical across sibling halves
(required so paired ranks hold congruent C blocks at k-unwinds), split
decisions use exact fractional extents, halved identically for both
children; integer index ranges use the usual balanced splitting, whose
floor-of-halves arithmetic nests exactly for power-of-two groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.steps import enter, leave, problem_dims
from ..layout.blocks import Rect, block_range
from ..layout.distributions import Distribution, Explicit
from ..layout.matrix import DistMatrix
from ..mpi.comm import Comm
from ..mpi.datatypes import INTERNAL_TAG_BASE, freeze

_TAG_XCHG = INTERNAL_TAG_BASE + 301
_TAG_CRED = INTERNAL_TAG_BASE + 302


def active_count(nprocs: int) -> int:
    """Largest power of two not exceeding the world size."""
    t = 1
    while t * 2 <= nprocs:
        t *= 2
    return t


@dataclass(frozen=True)
class _Prob:
    """A subproblem: global index ranges plus exact fractional extents."""

    m0: int
    m1: int
    n0: int
    n1: int
    k0: int
    k1: int
    fm: float
    fn: float
    fk: float

    @staticmethod
    def root(m: int, n: int, k: int) -> "_Prob":
        return _Prob(0, m, 0, n, 0, k, float(m), float(n), float(k))

    def split_dim(self) -> str:
        """Bisect the largest (fractional) dimension; ties: m, then n."""
        if self.fm >= self.fn and self.fm >= self.fk:
            return "m"
        if self.fn >= self.fk:
            return "n"
        return "k"

    def child(self, dim: str, side: int) -> "_Prob":
        if dim == "m":
            lo, hi = block_range(self.m1 - self.m0, 2, side)
            return _Prob(
                self.m0 + lo, self.m0 + hi, self.n0, self.n1, self.k0, self.k1,
                self.fm / 2.0, self.fn, self.fk,
            )
        if dim == "n":
            lo, hi = block_range(self.n1 - self.n0, 2, side)
            return _Prob(
                self.m0, self.m1, self.n0 + lo, self.n0 + hi, self.k0, self.k1,
                self.fm, self.fn / 2.0, self.fk,
            )
        lo, hi = block_range(self.k1 - self.k0, 2, side)
        return _Prob(
            self.m0, self.m1, self.n0, self.n1, self.k0 + lo, self.k0 + hi,
            self.fm, self.fn, self.fk / 2.0,
        )


# --------------------------------------------------------------- planning -- #
def _plan(
    prob: _Prob,
    lo: int,
    size: int,
    a_rect: tuple[int, int],
    b_rect: tuple[int, int],
    a_map: dict[int, list[Rect]],
    b_map: dict[int, list[Rect]],
) -> dict[int, Rect]:
    """Assign initial A/B rects; return final C rect per rank (this subtree).

    ``a_rect`` is the k-column ownership span of A for this group
    (halved at every n- and k-split); ``b_rect`` the k-row span of B
    (halved at every m- and k-split).
    """
    if size == 1:
        a_map[lo] = [Rect(prob.m0, prob.m1, a_rect[0], a_rect[1])]
        b_map[lo] = [Rect(b_rect[0], b_rect[1], prob.n0, prob.n1)]
        return {lo: Rect(prob.m0, prob.m1, prob.n0, prob.n1)}
    dim = prob.split_dim()
    h = size // 2
    out: dict[int, Rect] = {}
    for side, glo in ((0, lo), (1, lo + h)):
        child = prob.child(dim, side)
        a_sub, b_sub = a_rect, b_rect
        if dim == "k":
            # Ownership follows the k-halves exactly, so descending a
            # k-split moves no data (CARMA's cost model) — at the price
            # of the unbalanced "special" initial distribution the paper
            # criticizes.
            a_sub = (max(a_rect[0], child.k0), min(a_rect[1], child.k1))
            b_sub = (max(b_rect[0], child.k0), min(b_rect[1], child.k1))
            a_sub = a_sub if a_sub[0] < a_sub[1] else (child.k0, child.k0)
            b_sub = b_sub if b_sub[0] < b_sub[1] else (child.k0, child.k0)
        elif dim == "n":
            s0, s1 = block_range(a_rect[1] - a_rect[0], 2, side)
            a_sub = (a_rect[0] + s0, a_rect[0] + s1)
        else:  # dim == "m"
            s0, s1 = block_range(b_rect[1] - b_rect[0], 2, side)
            b_sub = (b_rect[0] + s0, b_rect[0] + s1)
        out.update(_plan(child, glo, h, a_sub, b_sub, a_map, b_map))
    if dim == "k":
        # Unwind: paired ranks keep complementary halves of their C rects.
        for idx in range(h):
            for side, r in ((0, lo + idx), (1, lo + h + idx)):
                out[r] = out[r].strip(2, side)
    return out


@lru_cache(maxsize=64)
def carma_native_dists(
    m: int, n: int, k: int, nranks: int
) -> tuple[Explicit, Explicit, Explicit]:
    """CARMA's native initial A/B and final C layouts; one triple per run."""
    act = active_count(nranks)
    a_map: dict[int, list[Rect]] = {}
    b_map: dict[int, list[Rect]] = {}
    c_map = _plan(_Prob.root(m, n, k), 0, act, (0, k), (0, k), a_map, b_map)
    return (
        Explicit.from_mapping((m, k), nranks, a_map),
        Explicit.from_mapping((k, n), nranks, b_map),
        Explicit.from_mapping((m, n), nranks, {r: [rc] for r, rc in c_map.items()}),
    )


# -------------------------------------------------------------- execution -- #
_Piece = tuple[int, int, np.ndarray]  # (span lo, span hi, slab)


def _filter_spans(pieces: list[_Piece], lo: int, hi: int) -> tuple[list[_Piece], list[_Piece]]:
    """Partition pieces into (inside [lo,hi), outside); spans never straddle."""
    inside, outside = [], []
    for p in pieces:
        if p[0] >= lo and p[1] <= hi:
            inside.append(p)
        elif p[1] <= lo or p[0] >= hi:
            outside.append(p)
        else:  # pragma: no cover - the nesting argument rules this out
            raise AssertionError(f"piece span {p[:2]} straddles [{lo},{hi})")
    return inside, outside


def _assemble(pieces: list[_Piece], axis: int, other_extent: int, dtype) -> np.ndarray:
    """Sort pieces by span and concatenate into a dense operand."""
    pieces = sorted(pieces, key=lambda p: p[0])
    if not pieces:
        shape = (other_extent, 0) if axis == 1 else (0, other_extent)
        return np.zeros(shape, dtype=dtype)
    return np.concatenate([p[2] for p in pieces], axis=axis)


def _recurse(
    comm: Comm,
    prob: _Prob,
    lo: int,
    size: int,
    a_pieces: list[_Piece],
    b_pieces: list[_Piece],
    dtype,
) -> tuple[Rect, np.ndarray]:
    if size == 1:
        a_loc = _assemble(a_pieces, 1, prob.m1 - prob.m0, dtype)
        b_loc = _assemble(b_pieces, 0, prob.n1 - prob.n0, dtype)
        with comm.phase("compute"):
            comm.gemm_tick(a_loc.shape[0], b_loc.shape[1], a_loc.shape[1])
            # An operand this leaf holds no piece of (its m- or n-range
            # is empty) was assembled without its k-extent too: multiply
            # only when both have extent.
            c = a_loc @ b_loc if a_loc.size and b_loc.size else np.zeros(
                (prob.m1 - prob.m0, prob.n1 - prob.n0), dtype=dtype
            )
        return Rect(prob.m0, prob.m1, prob.n0, prob.n1), c

    dim = prob.split_dim()
    h = size // 2
    side = 0 if comm.rank < lo + h else 1
    partner = comm.rank + h if side == 0 else comm.rank - h
    child = prob.child(dim, side)

    if dim == "m":
        # Replicate B: pairwise exchange of all B holdings.
        with comm.phase("replicate"):
            got = comm.sendrecv(b_pieces, partner, partner, _TAG_XCHG, _TAG_XCHG)
        b_pieces = b_pieces + got
    elif dim == "n":
        with comm.phase("replicate"):
            got = comm.sendrecv(a_pieces, partner, partner, _TAG_XCHG, _TAG_XCHG)
        a_pieces = a_pieces + got
    else:
        # k-split: ownership was planned to follow the k-halves exactly,
        # so descending moves no data — every held piece already lies in
        # this side's half (checked; a violation would be a planning bug).
        a_in, a_out = _filter_spans(a_pieces, child.k0, child.k1)
        b_in, b_out = _filter_spans(b_pieces, child.k0, child.k1)
        if a_out or b_out:  # pragma: no cover - guarded invariant
            raise AssertionError("CARMA k-split found out-of-half pieces")
        a_pieces, b_pieces = a_in, b_in

    rect, c_loc = _recurse(comm, child, lo if side == 0 else lo + h, h, a_pieces, b_pieces, dtype)

    if dim == "k":
        # Pairwise reduce-scatter of the congruent partial C blocks.
        by_cols = rect.cols >= rect.rows
        extent = rect.cols if by_cols else rect.rows
        freeze(c_loc)  # nobody writes it again: the result is `mine + got`
        keep_lo, keep_hi = block_range(extent, 2, side)
        send_lo, send_hi = block_range(extent, 2, 1 - side)
        if by_cols:
            mine, theirs = c_loc[:, keep_lo:keep_hi], c_loc[:, send_lo:send_hi]
            new_rect = Rect(rect.r0, rect.r1, rect.c0 + keep_lo, rect.c0 + keep_hi)
        else:
            mine, theirs = c_loc[keep_lo:keep_hi, :], c_loc[send_lo:send_hi, :]
            new_rect = Rect(rect.r0 + keep_lo, rect.r0 + keep_hi, rect.c0, rect.c1)
        with comm.phase("reduce"):
            # A row half is a frozen view, a column half a fresh contiguous
            # copy made frozen: either way the send hands it over uncopied.
            got = comm.sendrecv(
                freeze(np.ascontiguousarray(theirs)), partner, partner, _TAG_CRED, _TAG_CRED
            )
        return new_rect, mine + got
    return rect, c_loc


def carma_matmul(
    a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None
) -> DistMatrix:
    """Run CARMA on the largest power-of-two subset of the communicator."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    act = active_count(comm.size)
    native = carma_native_dists(m, n, k, comm.size)
    a_loc, b_loc = enter(a, b, native)

    dtype = np.promote_types(a.dtype, b.dtype)
    c_loc = None
    if comm.rank < act:
        # An empty native rectangle is not a piece: the recursion ships
        # its holdings, and k-splits legitimately own nothing.
        a_rect, b_rect, c_rect = (dist.block(comm.rank) for dist in native)
        # enter() allocated both blocks and nobody writes them: frozen, no
        # exchange copies a piece.
        a_pieces = [(a_rect.c0, a_rect.c1, freeze(a_loc.astype(dtype, copy=False)))
                    ] if a_loc.size else []
        b_pieces = [(b_rect.r0, b_rect.r1, freeze(b_loc.astype(dtype, copy=False)))
                    ] if b_loc.size else []
        rect, c_loc = _recurse(
            comm, _Prob.root(m, n, k), 0, act, a_pieces, b_pieces, dtype
        )
        if not c_rect.is_empty() and c_rect != rect:  # pragma: no cover - plan/exec skew
            raise AssertionError(f"final C rect {rect} != planned {c_rect}")
    return leave(comm, native[2], c_loc, c_dist)
