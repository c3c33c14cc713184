"""The overlap table of two layouts: who cuts what for whom, once per pair.

A redistribution (Algorithm 1, steps 4 and 8) is a pure function of
``(src layout, dst layout, transpose)``: every piece that moves is one
source rectangle intersected with one destination rectangle.  This module
derives all of them at once — the slicing primitive of Brock & Golin,
"Slicing Is All You Need" — by intersecting the two
:meth:`~repro.layout.distributions.Distribution.rect_index` arrays in
numpy, and hands each rank its slice as int rows (what to cut for whom,
where each arriving piece lands); whom it hears from and which of its
tiles the pieces leave holes in are derived with the table, not per call.

**The order of pieces is fixed here, in one place** — it is the order of
every batch's messages and of their pieces, which replays and digests
see: a sender lists destinations ascending, within one the wanted
rectangles in the destination's order, within one of those its own
rectangles in its order; a receiver takes its own batch first, then its
sources ascending, each batch in its sender's order.  What a batch
weighs does not depend on that order: its pieces' rectangles and
elements.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .blocks import Rect, untiled
from .distributions import Distribution

#: Most (source rect, destination rect) pairs tested in one numpy pass: the
#: pass's temporaries are five boolean arrays of this many elements, so no
#: dense S x D array is ever built (2 304 block-cyclic rects against 1 024
#: native ones would be 2.4 M pairs).
PAIR_CHUNK = 1 << 16


def _overlapping_pairs(src: tuple, dst: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(i, j)`` of every source rect ``i`` meeting destination rect
    ``j``, row-major, tested ``PAIR_CHUNK`` pairs at a time."""
    s_r0, s_r1, s_c0, s_c1 = src
    d_r0, d_r1, d_c0, d_c1 = dst
    rows = max(1, PAIR_CHUNK // max(1, len(d_r0)))
    found_i, found_j = [], []
    for lo in range(0, len(s_r0), rows):
        hi = lo + rows
        hit = (
            (s_r0[lo:hi, None] < d_r1)
            & (s_r1[lo:hi, None] > d_r0)
            & (s_c0[lo:hi, None] < d_c1)
            & (s_c1[lo:hi, None] > d_c0)
        )
        i, j = np.nonzero(hit)
        found_i.append(i + lo)
        found_j.append(j)
    if not found_i:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(found_i), np.concatenate(found_j)


def _local_index(ranks: np.ndarray) -> np.ndarray:
    """Position of each rect within its own rank's list (``ranks`` ascending)."""
    return np.arange(len(ranks)) - np.searchsorted(ranks, ranks, side="left")


def _spans(ranks: np.ndarray, nranks: int) -> np.ndarray:
    """Offsets ``[lo_0, lo_1, ..., lo_P]`` of each rank's run in ascending ``ranks``."""
    return np.searchsorted(ranks, np.arange(nranks + 1))


class OverlapTable:
    """Every piece of one ``(src, dst, transpose)`` conversion.

    ``src_rank``, ``dst_rank`` and ``area`` are arrays over the pieces in
    sender order; the methods read one rank's slice off the table.  It
    keeps numpy arrays only, twenty ``int32`` per piece besides those
    three: a 1024-rank conversion has 51 200 pieces, and held as
    per-rank Python objects they added 53 MB to a 283 MB run.
    """

    def __init__(self, src: Distribution, dst: Distribution, transpose: bool):
        if max(src.shape) > np.iinfo(np.int32).max:
            raise OverflowError(f"matrix {src.shape} is beyond 32-bit coordinates")
        s_rank, *s_box = src.rect_index()
        d_rank, d_r0, d_r1, d_c0, d_c1 = dst.rect_index()
        # Destination rects in source coordinates.
        d_box = (d_c0, d_c1, d_r0, d_r1) if transpose else (d_r0, d_r1, d_c0, d_c1)
        i, j = _overlapping_pairs(tuple(s_box), d_box)
        order = np.lexsort((i, j, s_rank[i]))
        i, j = i[order], j[order]
        r0 = np.maximum(s_box[0][i], d_box[0][j])
        r1 = np.minimum(s_box[1][i], d_box[1][j])
        c0 = np.maximum(s_box[2][i], d_box[2][j])
        c1 = np.minimum(s_box[3][i], d_box[3][j])
        h, w = r1 - r0, c1 - c0
        self.src_rank, self.dst_rank, self.area = s_rank[i], d_rank[j], h * w

        # A source with holes or overlaps is refused here, on every rank
        # alike, before the first message: the pieces of each destination
        # rect must add up to it.
        covered = np.zeros(len(d_rank), dtype=np.int64)
        np.add.at(covered, j, self.area)
        wanted = (d_r1 - d_r0) * (d_c1 - d_c0)
        bad = np.flatnonzero(covered != wanted)
        if len(bad):
            b = int(bad[0])
            rect = Rect(int(d_r0[b]), int(d_r1[b]), int(d_c0[b]), int(d_c1[b]))
            raise ValueError(
                f"rank {int(d_rank[b])}: source layout "
                f"{'leaves holes in' if covered[b] < wanted[b] else 'overlaps itself on'} "
                f"destination rect {rect} ({int(covered[b])} of {rect.area} "
                f"elements arrive)"
            )
        # An overlap that pays for a hole in the same rect the sums cannot
        # see: found here, refused by the holed ranks after the exchange.
        # A rect that is one piece is that piece: only shared rects are checked.
        shared = np.flatnonzero(np.bincount(j)[j] > 1)
        ids, k = np.unique(j[shared], return_inverse=True)
        holed = ids[untiled(k, tuple(a[shared] for a in (r0, r1, c0, c1)),
                            tuple(a[ids] for a in d_box))]
        d_local = _local_index(d_rank)
        self._holes = np.full(dst.nranks, -1, dtype=np.int32)
        first = np.unique(d_rank[holed], return_index=True)[1]
        self._holes[d_rank[holed[first]]] = d_local[holed[first]]

        self._send = np.array([
            self.dst_rank, r0, r1, c0, c1,
            _local_index(s_rank)[i], r0 - s_box[0][i], c0 - s_box[2][i], h, w,
        ], dtype=np.int32).T
        self._send_span = _spans(self.src_rank, src.nranks)
        # Seen from the destination the piece is transposed if asked: its
        # offsets in the destination tile are taken in destination coordinates.
        land_r, land_c, land_h, land_w = (c0, r0, w, h) if transpose else (r0, c0, h, w)
        arrival = np.lexsort((self.src_rank, self.src_rank != self.dst_rank, self.dst_rank))
        self._recv = np.array([
            self.src_rank, r0, r1, c0, c1,
            d_local[j], land_r - d_r0[j], land_c - d_c0[j], land_h, land_w,
        ], dtype=np.int32)[:, arrival].T
        self._recv_span = _spans(self.dst_rank[arrival], dst.nranks)
        # Whom each rank hears from: the first piece of each other source.
        s, d = self.src_rank[arrival], self.dst_rank[arrival]
        first = (s != d) & np.concatenate([[True], (s[1:] != s[:-1]) | (d[1:] != d[:-1])])
        self._sources = s[first].astype(np.int32)
        self._source_span = _spans(d[first], dst.nranks)

    def send_rows(self, rank: int) -> list[list[int]]:
        """``rank``'s pieces, destinations ascending: ``[dst_rank, r0, r1, c0,
        c1, t, ro, co, h, w]``, cut as ``tiles[t][ro:ro + h, co:co + w]``."""
        lo, hi = self._send_span[rank : rank + 2].tolist()
        return self._send[lo:hi].tolist()

    def sources(self, rank: int) -> list[int]:
        """The ranks other than itself ``rank`` expects a batch from, ascending."""
        lo, hi = self._source_span[rank : rank + 2].tolist()
        return self._sources[lo:hi].tolist()

    def recv_rows(self, rank: int) -> list[list[int]]:
        """``rank``'s arriving pieces, its own first, then by source:
        ``[src_rank, r0, r1, c0, c1, t, ro, co, h, w]``, landing (transposed
        under ``transpose``) in ``tiles[t][ro:ro + h, co:co + w]``."""
        lo, hi = self._recv_span[rank : rank + 2].tolist()
        return self._recv[lo:hi].tolist()

    def holed_tile(self, rank: int) -> int | None:
        """The first of ``rank``'s tiles the pieces leave holes in, if any."""
        return None if self._holes[rank] < 0 else int(self._holes[rank])


@lru_cache(maxsize=64)
def overlap_table(src: Distribution, dst: Distribution, transpose: bool) -> OverlapTable:
    """The :class:`OverlapTable` of converting ``src`` to ``dst`` (which
    describes ``src.T`` under ``transpose``), built once per *value*: the
    ranks of a run, and equal layouts constructed rank by rank, share one.
    Raises ``ValueError`` when the layouts' rank counts or shapes do not
    fit, or the source leaves holes in / overlaps on a destination rect.
    """
    if src.nranks != dst.nranks:
        raise ValueError(f"source spans {src.nranks} ranks, destination {dst.nranks}")
    if tuple(dst.shape) != (tuple(src.shape)[::-1] if transpose else tuple(src.shape)):
        raise ValueError(f"shape mismatch: src {src.shape}, dst {dst.shape}, "
                         f"transpose={transpose}")
    return OverlapTable(src, dst, transpose)
