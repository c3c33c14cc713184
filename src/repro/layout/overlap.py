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

**The order of pieces is part of the wire format** (a batch costs the
length of its list's pickle, that length is ``nbytes``, ``nbytes`` is
virtual time), so it is fixed here, in one place: a sender lists
destinations ascending, within one the wanted rectangles in the
destination's order, within one of those its own rectangles in its order;
a receiver takes its own batch first, then its sources ascending, each
batch in its sender's order.  A batch is handed over, not pickled: what
each piece adds to that length is a sum, and the six ints it writes
(``r0``, ``r1``, ``c0``, ``c1`` and the piece's shape) are a layout
constant the table holds beside the piece.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .blocks import Rect
from .distributions import Distribution

#: Most (source rect, destination rect) pairs tested in one numpy pass: the
#: pass's temporaries are five boolean arrays of this many elements, so no
#: dense S x D array is ever built (2 304 block-cyclic rects against 1 024
#: native ones would be 2.4 M pairs).
PAIR_CHUNK = 1 << 16


def pickled_int_bytes(*values):
    """Bytes a pickle spends writing each of ``values`` — non-negative ints
    below 2**31: BININT1 (2) below 256, BININT2 (3) below 65 536, else
    BININT (5) — summed; elementwise when they are arrays."""
    return sum(2 + (v >= 256) + 2 * (v >= 65_536) for v in values)


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


def _untiled(j: np.ndarray, piece: tuple, rect: tuple) -> np.ndarray:
    """Rects, ascending, that their pieces (``piece[k]`` in ``rect[j[k]]``,
    each ``(r0, r1, c0, c1)`` arrays) do not tile: a rect is tiled iff its
    pieces' corners (+ at r0c0 and r1c1, - at r0c1 and r1c0) and its own,
    negated, cancel.  Each rect keys its corner points in a block of its
    own, so both sorted lists hold a rect's keys at the same positions."""
    shared = np.flatnonzero(np.bincount(j)[j] > 1)  # one piece is the rect
    ids, k = np.unique(j[shared], return_inverse=True)
    d_r0, d_r1, d_c0, d_c1 = (a[ids] for a in rect)
    width = d_c1 - d_c0 + 1
    base = np.cumsum((d_r1 - d_r0 + 1) * width) - (d_r1 - d_r0 + 1) * width
    at = base - d_r0 * width - d_c0  # key of (r, c) in rect i: at[i] + r * width[i] + c
    p_at, p_w, (r0, r1, c0, c1) = at[k], width[k], (a[shared] for a in piece)
    plus = np.sort(np.concatenate([p_at + r0 * p_w + c0, p_at + r1 * p_w + c1,
                                   at + d_r0 * width + d_c1, at + d_r1 * width + d_c0]))
    minus = np.sort(np.concatenate([p_at + r0 * p_w + c1, p_at + r1 * p_w + c0,
                                    at + d_r0 * width + d_c0, at + d_r1 * width + d_c1]))
    return ids[np.unique(np.searchsorted(base, plus[plus != minus], side="right") - 1)]


class OverlapTable:
    """Every piece of one ``(src, dst, transpose)`` conversion.

    ``src_rank``, ``dst_rank`` and ``area`` are arrays over the pieces in
    sender order; the methods read one rank's slice off the table.  It
    keeps numpy arrays only, twenty-one ``int32`` per piece besides those
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
        d_local, holed = _local_index(d_rank), _untiled(j, (r0, r1, c0, c1), d_box)
        self._holes = np.full(dst.nranks, -1, dtype=np.int32)
        first = np.unique(d_rank[holed], return_index=True)[1]
        self._holes[d_rank[holed[first]]] = d_local[holed[first]]

        ints = pickled_int_bytes(r0, r1, c0, c1, h, w)
        self._send = np.array([
            self.dst_rank, r0, r1, c0, c1,
            _local_index(s_rank)[i], r0 - s_box[0][i], c0 - s_box[2][i], h, w, ints,
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
        c1, t, ro, co, h, w, ints]``, cut as ``tiles[t][ro:ro + h, co:co + w]``;
        ``ints`` is what its six ints take in a pickle."""
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
