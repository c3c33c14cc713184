"""Distributed matrices for the executed engine.

A :class:`DistMatrix` is a rank-local view of a global matrix: the
distribution descriptor plus this rank's tiles (one numpy array per owned
rectangle).  Construction helpers keep tests honest: matrices built with
:meth:`DistMatrix.random` have globally deterministic content, so any rank
(or the driver) can reconstruct the reference global matrix and check
results exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mpi.comm import Comm
from .blocks import Rect
from .distributions import Distribution


def dense_random(m: int, n: int, seed: int, dtype=np.float64) -> np.ndarray:
    """The deterministic global random matrix used across the package."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))).astype(
            dtype
        )
    return rng.standard_normal((m, n)).astype(dtype)


class DistMatrix:
    """One rank's share of a distributed matrix."""

    def __init__(
        self, comm: Comm, dist: Distribution, tiles: Sequence[np.ndarray], dtype=None
    ):
        self.comm = comm
        self.dist = dist
        self.tiles = list(tiles)
        #: the global matrix's dtype, for a rank that holds no tile to read it from
        self._dtype = np.dtype(np.float64 if dtype is None else dtype)
        rects = dist.owned_rects(comm.rank)
        if len(rects) != len(self.tiles):
            raise ValueError(
                f"rank {comm.rank}: {len(self.tiles)} tiles for {len(rects)} rects"
            )
        for rect, tile in zip(rects, self.tiles):
            if tuple(tile.shape) != rect.shape:
                raise ValueError(f"tile shape {tile.shape} != rect shape {rect.shape}")

    # ------------------------------------------------------ constructors -- #
    @classmethod
    def from_global(cls, comm: Comm, dist: Distribution, global_mat: np.ndarray) -> "DistMatrix":
        """Slice a globally known array into this rank's tiles (test helper)."""
        if tuple(global_mat.shape) != tuple(dist.shape):
            raise ValueError(f"global shape {global_mat.shape} != dist shape {dist.shape}")
        tiles = [
            np.ascontiguousarray(global_mat[r.r0 : r.r1, r.c0 : r.c1])
            for r in dist.owned_rects(comm.rank)
        ]
        return cls(comm, dist, tiles, dtype=global_mat.dtype)

    @classmethod
    def random(cls, comm: Comm, dist: Distribution, seed: int, dtype=np.float64) -> "DistMatrix":
        """Deterministic random matrix; same content for a given seed.

        Note: generates the full global matrix on each rank before
        slicing — fine at the executed engine's test scale, and it
        guarantees the distributed content exactly matches
        :func:`dense_random`.
        """
        m, n = dist.shape
        return cls.from_global(comm, dist, dense_random(m, n, seed, dtype))

    @classmethod
    def zeros(cls, comm: Comm, dist: Distribution, dtype=np.float64) -> "DistMatrix":
        tiles = [np.zeros(r.shape, dtype=dtype) for r in dist.owned_rects(comm.rank)]
        return cls(comm, dist, tiles, dtype=dtype)

    # ----------------------------------------------------------- queries -- #
    @property
    def shape(self) -> tuple[int, int]:
        return self.dist.shape

    @property
    def dtype(self):
        return self.tiles[0].dtype if self.tiles else self._dtype

    @property
    def owned_rects(self) -> list[Rect]:
        return self.dist.owned_rects(self.comm.rank)

    def local_bytes(self) -> int:
        return sum(t.nbytes for t in self.tiles)

    def local_block(self) -> np.ndarray:
        """This rank's tile of a one-block-per-rank layout — or, where the
        rank holds nothing, zeros shaped like its own, empty, rectangle
        (:meth:`Distribution.block`; ``(0, 0)`` where the layout gives it
        none), so a kernel multiplies, concatenates and sends it like any
        other block."""
        if self.tiles:
            return self.tiles[0]
        rect = self.dist.block(self.comm.rank)
        return np.zeros(rect.shape if rect is not None else (0, 0), dtype=self.dtype)

    # -------------------------------------------------------- collectives -- #
    def to_global(self) -> np.ndarray:
        """Allgather the full matrix on every rank (test/debug helper)."""
        m, n = self.dist.shape
        mine = list(zip(self.owned_rects, self.tiles))
        everyone = self.comm.allgather(mine)
        out = np.zeros((m, n), dtype=self.dtype)
        seen = np.zeros((m, n), dtype=bool)
        for rank, contrib in enumerate(everyone):
            for rect, tile in contrib:
                out[rect.r0 : rect.r1, rect.c0 : rect.c1] = tile
                if seen[rect.r0 : rect.r1, rect.c0 : rect.c1].any():
                    raise ValueError(
                        f"rank {rank}: {rect} overlaps a rect gathered before it"
                    )
                seen[rect.r0 : rect.r1, rect.c0 : rect.c1] = True
        if not seen.all():
            raise ValueError(
                f"{type(self.dist).__name__} over {self.dist.nranks} ranks "
                f"does not cover the {m}x{n} matrix"
            )
        return out
