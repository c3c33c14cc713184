"""The CA3DMM execution plan — who sits where and owns what.

A :class:`Ca3dmmPlan` is computed identically (and deterministically) on
every rank from ``(m, n, k, P)``; it encodes steps 1-3 of Algorithm 1:

* the ``pm x pn x pk`` grid (step 1) in the column-major rank order
  :class:`~repro.grid.optimizer.GridSpec` states once (``coords`` /
  ``rank_of``): ``r = i + pm*j + pm*pn*ik``.  Ranks ``r >= pm*pn*pk`` are
  idle outside redistribution (step 2).
* Cannon groups (step 3): ``s = min(pm, pn)``, ``c = max(pm,pn)/s``
  (eq. 8).  When ``pn > pm`` groups tile the n-dimension and **A** is the
  replicated operand (Example 1); when ``pm > pn`` groups tile the
  m-dimension and **B** is replicated.
* the library-native initial distributions of A and B and final
  distribution of C.  The replicated operand's Cannon block is split
  into ``c`` equal pieces across its replica set, so A and B start as
  genuine 2D partitions over all active ranks and initial memory is
  balanced; C ends 2D-partitioned because each k-group's partial block
  is reduce-scattered into ``pk`` pieces (Example 2: the 16x16 block of
  ``C`` lands as four 16x4 column strips on ranks P1, P5, P9, P13).

All index ranges use the balanced ``floor(r*dim/p)`` splitting of
:mod:`repro.layout.blocks`, nested level by level (k into ``pk`` groups,
a group's range into ``s`` Cannon blocks, a block into ``c`` replica
pieces), so every rank derives identical rectangles with no
communication.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .. import args
from ..grid.optimizer import (
    DEFAULT_L,
    GridSpec,
    MemLimitInfeasibleWarning,
    ca3dmm_grid,
)
from ..layout.blocks import Rect, block_range
from ..layout.distributions import Explicit


@dataclass(frozen=True)
class RankRole:
    """Where one active rank sits in the 3D grid / Cannon structure."""

    rank: int  #: world rank
    ik: int  #: k-task group index, 0 <= ik < pk
    i: int  #: m-dimension grid index, 0 <= i < pm
    j: int  #: n-dimension grid index, 0 <= j < pn
    group: int  #: Cannon group index within the k-task group, 0 <= group < c
    u: int  #: row within the s x s Cannon group
    v: int  #: column within the s x s Cannon group


class Ca3dmmPlan:
    """Partitioning and grouping decisions for one CA3DMM multiplication."""

    def __init__(
        self,
        m: int,
        n: int,
        k: int,
        nprocs: int,
        grid: GridSpec | None = None,
        l: float = DEFAULT_L,
        memory_limit_words: float | None = None,
    ):
        self.m, self.n, self.k, self.nprocs = args.problem(m, n, k, nprocs)
        l = args.fraction("l", l)
        self.memory_limit_words = args.cap("memory_limit_words", memory_limit_words)
        #: True when ``memory_limit_words`` excluded every candidate grid
        #: and the search fell back to the minimum-memory grid (the cap
        #: is then NOT honoured); surfaced as ``RunMetrics.mem_limit_infeasible``
        #: and checked by the memprof gate.
        self.mem_limit_infeasible = False
        if grid is not None:
            self.grid = grid
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                self.grid = ca3dmm_grid(self.m, self.n, self.k, self.nprocs, l,
                                        memory_limit_words=self.memory_limit_words)
            for w in caught:  # flag the infeasible cap, re-emit everything
                if issubclass(w.category, MemLimitInfeasibleWarning):
                    self.mem_limit_infeasible = True
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if self.grid.nprocs != self.nprocs:
            raise ValueError("grid was built for a different world size")
        if not self.grid.cannon_compatible:
            raise ValueError(f"grid {self.grid} violates constraint (7)")

    # ------------------------------------------------------------- basics -- #
    @property
    def pm(self) -> int:
        return self.grid.pm

    @property
    def pn(self) -> int:
        return self.grid.pn

    @property
    def pk(self) -> int:
        return self.grid.pk

    @property
    def s(self) -> int:
        return self.grid.s

    @property
    def c(self) -> int:
        return self.grid.c

    @property
    def active(self) -> int:
        return self.grid.used

    @property
    def replicates_a(self) -> bool:
        """A is the replicated operand iff ``pn > pm`` (Example 1)."""
        return self.pn > self.pm

    # -------------------------------------------------------------- roles -- #
    def role(self, rank: int) -> RankRole | None:
        """Grid/Cannon coordinates of ``rank``; None for idle ranks."""
        at = self.grid.coords(rank)
        if at is None:
            return None
        i, j, ik = at
        if self.replicates_a:  # groups tile the n-dimension
            group, v = divmod(j, self.s)
            u = i
        else:  # groups tile the m-dimension (or c == 1)
            group, u = divmod(i, self.s)
            v = j
        return RankRole(rank=rank, ik=ik, i=i, j=j, group=group, u=u, v=v)

    def rank_of(self, ik: int, i: int, j: int) -> int:
        """Inverse of :meth:`role` on grid coordinates."""
        return self.grid.rank_of(i, j, ik)

    # -------------------------------------------------------- index ranges -- #
    def k_range(self, ik: int) -> tuple[int, int]:
        """Global k-slice of k-task group ``ik``."""
        return block_range(self.k, self.pk, ik)

    def m_range(self, i: int) -> tuple[int, int]:
        return block_range(self.m, self.pm, i)

    def n_range(self, j: int) -> tuple[int, int]:
        return block_range(self.n, self.pn, j)

    def k_block_range(self, ik: int, t: int) -> tuple[int, int]:
        """Cannon-block ``t`` of group ``ik``'s k-slice (``0 <= t < s``)."""
        k0, k1 = self.k_range(ik)
        lo, hi = block_range(k1 - k0, self.s, t)
        return k0 + lo, k0 + hi

    # ------------------------------------------------ Cannon block rects -- #
    def a_block(self, ik: int, i: int, t: int) -> Rect:
        """The (unskewed) Cannon block ``A_{i,t}`` of k-group ``ik``."""
        r0, r1 = self.m_range(i)
        c0, c1 = self.k_block_range(ik, t)
        return Rect(r0, r1, c0, c1)

    def b_block(self, ik: int, t: int, j: int) -> Rect:
        """The (unskewed) Cannon block ``B_{t,j}`` of k-group ``ik``."""
        r0, r1 = self.k_block_range(ik, t)
        c0, c1 = self.n_range(j)
        return Rect(r0, r1, c0, c1)

    def c_block(self, i: int, j: int) -> Rect:
        """The ``C`` block computed at grid position ``(i, j)``."""
        r0, r1 = self.m_range(i)
        c0, c1 = self.n_range(j)
        return Rect(r0, r1, c0, c1)

    # --------------------------------------------- native A distribution -- #
    def a_cannon_block(self, role: RankRole) -> Rect:
        """The A block this rank holds *after* replication (unskewed)."""
        if self.replicates_a:
            return self.a_block(role.ik, role.u, role.v)
        return self.a_block(role.ik, role.i, role.v)

    def b_cannon_block(self, role: RankRole) -> Rect:
        """The B block this rank holds *after* replication (unskewed)."""
        if self.replicates_a:
            return self.b_block(role.ik, role.u, role.j)
        return self.b_block(role.ik, role.u, role.v)

    def a_owned(self, rank: int) -> Rect | None:
        """This rank's native *initial* piece of A (before replication).

        When A is replicated, the Cannon block is column-split into
        ``c`` pieces and this rank holds piece ``role.group``.
        """
        role = self.role(rank)
        if role is None:
            return None
        blk = self.a_cannon_block(role)
        if not self.replicates_a or self.c == 1:
            return blk
        lo, hi = block_range(blk.cols, self.c, role.group)
        return Rect(blk.r0, blk.r1, blk.c0 + lo, blk.c0 + hi)

    def b_owned(self, rank: int) -> Rect | None:
        """This rank's native *initial* piece of B (before replication).

        When B is replicated, the Cannon block is row-split into ``c``
        pieces and this rank holds piece ``role.group``.
        """
        role = self.role(rank)
        if role is None:
            return None
        blk = self.b_cannon_block(role)
        if self.replicates_a or self.c == 1:
            return blk
        lo, hi = block_range(blk.rows, self.c, role.group)
        return Rect(blk.r0 + lo, blk.r0 + hi, blk.c0, blk.c1)

    # --------------------------------------------- native C distribution -- #
    def c_split_cols(self, i: int, j: int) -> bool:
        """Whether the (i, j) C block is column-split across the pk group.

        Column-split when the block is at least as wide as tall
        (Example 2 splits a square 16x16 block into column strips).
        """
        blk = self.c_block(i, j)
        return blk.cols >= blk.rows

    def c_owned(self, rank: int) -> Rect | None:
        """This rank's final piece of C (after reduce-scatter)."""
        role = self.role(rank)
        if role is None:
            return None
        return self.c_block(role.i, role.j).strip(self.pk, role.ik)

    # ----------------------------------------- distribution descriptors -- #
    def _explicit(self, shape: tuple[int, int], rect_of) -> Explicit:
        # Empty rectangles stay in the table: they shape the placeholder
        # of a rank that owns nothing (``Distribution.block``).
        mapping = {r: [rect_of(r)] for r in range(self.active)}
        return Explicit.from_mapping(shape, self.nprocs, mapping)

    @cached_property
    def a_dist(self) -> Explicit:
        """Native initial distribution of A over the whole world."""
        return self._explicit((self.m, self.k), self.a_owned)

    @cached_property
    def b_dist(self) -> Explicit:
        """Native initial distribution of B over the whole world."""
        return self._explicit((self.k, self.n), self.b_owned)

    @cached_property
    def c_dist(self) -> Explicit:
        """Native final distribution of C over the whole world."""
        return self._explicit((self.m, self.n), self.c_owned)

    # ----------------------------------------------- communicator groups -- #
    def groups(self, rank: int) -> tuple[tuple[int, ...] | None, ...]:
        """``(cannon, replica, kred)``: the groups ``rank`` talks in, each
        as the ranks of the plan's world in their new local order, for
        :meth:`~repro.mpi.comm.Comm.create_groups`; ``None`` each for an
        idle rank.

        * cannon — this rank's s x s Cannon group, local rank ``u + s*v``.
        * replica — the ``c`` ranks holding pieces of the same replicated
          block, by group index.
        * kred — the ``pk`` ranks holding partial results of the same C
          block, by ``ik``.

        Each order is ascending rank (the grid is column-major and a
        Cannon group's ``u`` is its fastest coordinate), so the table is
        one pass over the ranks, built once per shared plan; every member
        of a group holds the same tuple.
        """
        return self._group_table[rank]

    def _group_keys(self, rank: int) -> tuple[tuple, tuple, tuple]:
        role = self.role(rank)
        return (role.ik, role.group), (role.ik, role.u, role.v), (role.i, role.j)

    @cached_property
    def _group_table(self) -> list[tuple[tuple[int, ...] | None, ...]]:
        members: list[dict[tuple, list[int]]] = [{}, {}, {}]
        for r in range(self.active):
            for kind, key in zip(members, self._group_keys(r)):
                kind.setdefault(key, []).append(r)
        made = [{key: tuple(v) for key, v in kind.items()} for kind in members]
        table = [
            tuple(kind[key] for kind, key in zip(made, self._group_keys(r)))
            for r in range(self.active)
        ]
        return table + [(None, None, None)] * (self.nprocs - self.active)

    @property
    def largest_group(self) -> int:
        """Ranks in the largest group of :meth:`groups`."""
        return max(self.s * self.s, self.c, self.pk)

    # ------------------------------------------------------------ summary -- #
    def describe(self) -> str:
        """Human-readable plan summary (mirrors the artifact's output)."""
        mb, nb, kb = (
            -(-self.m // self.pm),
            -(-self.n // self.pn),
            -(-self.k // self.pk),
        )
        lines = [
            f"Process grid pm x pn x pk : {self.pm} x {self.pn} x {self.pk}",
            f"Work cuboid  mb x nb x kb : {mb} x {nb} x {kb}",
            f"Cannon groups per k-group : {self.c} (s = {self.s}, "
            f"replicates {'A' if self.replicates_a else 'B' if self.c > 1 else 'nothing'})",
            f"Process utilization       : {100.0 * self.active / self.nprocs:.2f} %",
        ]
        return "\n".join(lines)


@lru_cache(maxsize=64, typed=True)
def _shared_plan_cached(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    grid: "GridSpec | None",
    l: float,
    memory_limit_words: float | None,
) -> Ca3dmmPlan:
    return Ca3dmmPlan(
        m, n, k, nprocs, grid=grid, l=l, memory_limit_words=memory_limit_words
    )


def shared_plan(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    grid: "GridSpec | None" = None,
    l: float = DEFAULT_L,
    memory_limit_words: float | None = None,
) -> Ca3dmmPlan:
    """Memoized :class:`Ca3dmmPlan` shared across the ranks of a run.

    Every rank of an SPMD run plans the *identical* multiplication, and
    a plan is immutable once built, so per-rank construction only
    multiplies work: the distribution tables (:attr:`Ca3dmmPlan.a_dist`
    and friends) enumerate all ``P`` ranks, which made building them on
    each rank an O(P^2) startup cost — the dominant term at the
    1024-rank scale the scheduler targets.  Sharing one instance per
    parameter set makes those tables world-level work again.
    """
    return _shared_plan_cached(m, n, k, nprocs, grid, l, memory_limit_words)
