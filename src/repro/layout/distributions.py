"""Distribution descriptors: who owns which rectangles of a global matrix.

A :class:`Distribution` is a *pure description* — it holds no data and no
communicator, only the mapping ``rank -> list of owned Rects`` over a
fixed number of participating ranks.  The same descriptor object is used
by the executed engine (to slice local tiles and plan redistribution)
and by the analytic engine (to size layout-conversion traffic).

Provided layouts, matching the ones discussed in the paper:

* :class:`BlockRow1D` / :class:`BlockCol1D` — the "natural" 1D layouts
  applications use (the paper's "custom layout" experiments use 1D
  column).
* :class:`Block2D` — a ``pr x pc`` 2D block layout (column-major rank
  order to match the paper's grid convention).
* :class:`BlockCyclic2D` — ScaLAPACK-style 2D block-cyclic.
* :class:`Explicit` — arbitrary per-rank rectangle lists; CA3DMM's
  library-native partitionings are expressed with this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .. import args
from .blocks import Rect, block_range, columns_cover_exactly, rect_array


class Distribution:
    """Base class; subclasses implement :meth:`_rects_of` — or, when
    every rank holds at most one rectangle, just :meth:`block`."""

    shape: tuple[int, int]
    nranks: int

    def owned_rects(self, rank: int) -> list[Rect]:
        """Rectangles owned by ``rank`` (possibly empty), in a fixed order.

        A fresh list of the same :class:`Rect` objects every time: the
        per-rank tuples are derived once and kept on the descriptor
        beside ``_rect_index`` (derived state, like it).
        """
        owned = self.__dict__.setdefault("_owned", {})
        rects = owned.get(rank)
        if rects is None:
            rects = owned[rank] = tuple(self._rects_of(rank))
        return list(rects)

    def _rects_of(self, rank: int) -> Sequence[Rect]:
        """The non-empty rectangles of ``rank``, derived from the fields."""
        rect = self.block(rank)
        return () if rect is None or rect.is_empty() else (rect,)

    def block(self, rank: int) -> Rect | None:
        """The one rectangle a block layout assigns ``rank``, **kept when it
        is empty** (a thin matrix, more ranks than rows) — the shape a
        kernel's zero-size placeholder for that rank must have.  None where
        the layout gives the rank no rectangle, or several."""
        return None

    def whole(self) -> Rect:
        m, n = self.shape
        return Rect(0, m, 0, n)

    def owned_elements(self, rank: int) -> int:
        return sum(r.area for r in self.owned_rects(rank))

    def rect_index(self) -> tuple:
        """Flat arrays over every (rank, rect) pair: ``(ranks, r0, r1, c0, c1)``.

        Built once per descriptor and cached on the instance (safe: the
        index is derived state, so it never affects the frozen
        dataclass's equality or hash).  Redistribution planning uses it
        to bbox-test one rank's holdings against *all* destinations in
        a single vectorized pass instead of an O(P) Python scan.
        """
        cached = self.__dict__.get("_rect_index")
        if cached is None:
            ranks: list[int] = []
            rects: list[Rect] = []
            for rk in range(self.nranks):
                mine = self.owned_rects(rk)
                ranks += [rk] * len(mine)
                rects += mine
            arr = rect_array(rects)
            cached = (
                np.asarray(ranks, dtype=np.int64),
                arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
            )
            self.__dict__["_rect_index"] = cached
        return cached

    def validate(self) -> None:
        """Raise ``ValueError`` unless the layout tiles the matrix exactly:
        :func:`~repro.layout.blocks.columns_cover_exactly` of
        :meth:`rect_index`, the corner rule, one numpy pass."""
        if not columns_cover_exactly(self.rect_index()[1:], self.whole()):
            raise ValueError(f"{self!r} does not tile the matrix exactly")


@dataclass(frozen=True)
class BlockRow1D(Distribution):
    """Row-block 1D layout: rank ``r`` owns a contiguous band of rows."""

    shape: tuple[int, int]
    nranks: int

    def block(self, rank: int) -> Rect:
        m, n = self.shape
        lo, hi = block_range(m, self.nranks, rank)
        return Rect(lo, hi, 0, n)


@dataclass(frozen=True)
class BlockCol1D(Distribution):
    """Column-block 1D layout: rank ``r`` owns a contiguous band of columns."""

    shape: tuple[int, int]
    nranks: int

    def block(self, rank: int) -> Rect:
        m, n = self.shape
        lo, hi = block_range(n, self.nranks, rank)
        return Rect(0, m, lo, hi)


@dataclass(frozen=True)
class Block2D(Distribution):
    """``pr x pc`` block layout, ranks numbered column-major.

    Rank ``r`` sits at grid position ``(r % pr, r // pr)`` and owns the
    corresponding row/column band intersection.  Ranks beyond
    ``pr * pc`` own nothing (allowed so a 2D layout can live inside a
    larger world, as CA3DMM's idle-rank handling requires).
    """

    shape: tuple[int, int]
    nranks: int
    pr: int
    pc: int

    def __post_init__(self) -> None:
        for name in ("pr", "pc"):
            object.__setattr__(self, name, args.count(name, getattr(self, name)))
        if self.pr * self.pc > self.nranks:
            raise ValueError("Block2D grid larger than communicator")

    def block(self, rank: int) -> Rect | None:
        if rank >= self.pr * self.pc:
            return None
        m, n = self.shape
        i, j = rank % self.pr, rank // self.pr
        r0, r1 = block_range(m, self.pr, i)
        c0, c1 = block_range(n, self.pc, j)
        return Rect(r0, r1, c0, c1)


@dataclass(frozen=True)
class BlockCyclic2D(Distribution):
    """ScaLAPACK-style 2D block-cyclic layout with ``bs x bs`` tiles.

    Rank order is column-major over the ``pr x pc`` grid.  Each rank may
    own many small rectangles; redistribution handles them generically.
    """

    shape: tuple[int, int]
    nranks: int
    pr: int
    pc: int
    bs: int = 32

    def __post_init__(self) -> None:
        for name in ("pr", "pc", "bs"):
            object.__setattr__(self, name, args.count(name, getattr(self, name)))
        if self.pr * self.pc > self.nranks:
            raise ValueError("BlockCyclic2D grid larger than communicator")

    def _rects_of(self, rank: int) -> list[Rect]:
        if rank >= self.pr * self.pc:
            return []
        m, n = self.shape
        i, j = rank % self.pr, rank // self.pr
        out: list[Rect] = []
        for br in range(i, -(-m // self.bs), self.pr):
            r0, r1 = br * self.bs, min((br + 1) * self.bs, m)
            for bc in range(j, -(-n // self.bs), self.pc):
                c0, c1 = bc * self.bs, min((bc + 1) * self.bs, n)
                out.append(Rect(r0, r1, c0, c1))
        return out


@dataclass(frozen=True)
class Explicit(Distribution):
    """An arbitrary mapping ``rank -> rectangles`` (hashable, frozen).

    Used for CA3DMM's library-native partitionings, whose block
    boundaries depend on the 3D grid and Cannon-group structure.
    """

    shape: tuple[int, int]
    nranks: int
    rects: tuple[tuple[Rect, ...], ...] = field(default=())

    @staticmethod
    def from_mapping(
        shape: tuple[int, int], nranks: int, mapping: Mapping[int, Sequence[Rect]]
    ) -> "Explicit":
        table = tuple(
            tuple(mapping.get(rk, ())) for rk in range(nranks)
        )
        return Explicit(shape=shape, nranks=nranks, rects=table)

    def block(self, rank: int) -> Rect | None:
        mine = self.rects[rank] if rank < len(self.rects) else ()
        return mine[0] if len(mine) == 1 else None

    def _rects_of(self, rank: int) -> list[Rect]:
        if rank >= len(self.rects):
            return []
        mine = self.rects[rank]
        kept = [r for r in mine if not r.is_empty()]
        if len(kept) < len(mine):
            # A NaN or infinite coordinate reads as empty: refuse a
            # coordinate that is not an integer before dropping a rect.
            rect_array(mine)
        return kept

    def __hash__(self) -> int:
        """The field hash, computed once: ``rects`` holds O(P) rectangles
        and the overlap table is looked up by value on every conversion."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.shape, self.nranks, self.rects))
            self.__dict__["_hash"] = cached
        return cached

    def __eq__(self, other: object) -> bool:
        """Equality by value, at identity speed after the first time.

        The by-value caches keep the first plan's layouts as keys, so an
        equal plan built anew is compared with them on every lookup.  A
        different cached hash settles it at once; two equal layouts
        compare their rectangles once and then share the one ``rects``
        tuple, which the next comparison finds by identity.
        """
        if type(other) is not Explicit:
            return NotImplemented
        if self.rects is not other.rects:
            if hash(self) != hash(other) or self.rects != other.rects:
                return False
            object.__setattr__(other, "rects", self.rects)
        return self.shape == other.shape and self.nranks == other.nranks
