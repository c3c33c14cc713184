"""Balanced block ranges and rectangle algebra.

Everything that partitions a matrix dimension in this package uses the
same balanced splitting rule, so partitions computed independently on
different ranks always agree:

    ``start(r) = floor(r * n / p)``

which gives every part either ``floor(n/p)`` or ``ceil(n/p)`` elements —
the ⌈·⌉/⌊·⌋ block sizes assumed in Section III-A of the paper — and
degenerates gracefully (empty parts) when ``p > n``.

:class:`Rect` is a half-open rectangle ``[r0, r1) x [c0, c1)`` in global
matrix coordinates; redistribution is built entirely on rectangle
intersection.  Whether rectangles tile a region is one numpy kernel,
:func:`untiled`, which the layouts' check and the overlap table share.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np


def block_start(n: int, p: int, r: int) -> int:
    """Start index of part ``r`` when splitting ``n`` items into ``p`` parts."""
    if not 0 <= r <= p:
        raise ValueError(f"part index {r} out of range for {p} parts")
    return (r * n) // p


def block_range(n: int, p: int, r: int) -> tuple[int, int]:
    """Half-open index range ``[lo, hi)`` of part ``r`` of ``n`` items in ``p``."""
    return block_start(n, p, r), block_start(n, p, r + 1)


def block_size(n: int, p: int, r: int) -> int:
    lo, hi = block_range(n, p, r)
    return hi - lo


def block_owner(n: int, p: int, i: int) -> int:
    """Inverse of :func:`block_range`: which part owns item ``i``.

    With ``start(r) = floor(r n / p)``, item ``i`` belongs to the largest
    ``r`` with ``floor(r n / p) <= i``, i.e. ``r = floor(((i+1)*p - 1)/n)``.
    """
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for dimension {n}")
    r = ((i + 1) * p - 1) // n
    lo, hi = block_range(n, p, r)
    assert lo <= i < hi, "block_owner arithmetic broke"
    return r


@dataclass(frozen=True, order=True)
class Rect:
    """Half-open rectangle ``[r0, r1) x [c0, c1)``; empty if degenerate."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def rows(self) -> int:
        return max(0, self.r1 - self.r0)

    @property
    def cols(self) -> int:
        return max(0, self.c1 - self.c0)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def area(self) -> int:
        return self.rows * self.cols

    def is_empty(self) -> bool:
        return self.rows == 0 or self.cols == 0

    def intersect(self, other: "Rect") -> "Rect":
        """Intersection (possibly empty) of two rectangles."""
        return Rect(
            max(self.r0, other.r0),
            min(self.r1, other.r1),
            max(self.c0, other.c0),
            min(self.c1, other.c1),
        )

    def contains(self, other: "Rect") -> bool:
        return (
            other.is_empty()
            or (
                self.r0 <= other.r0
                and other.r1 <= self.r1
                and self.c0 <= other.c0
                and other.c1 <= self.c1
            )
        )

    def strip(self, parts: int, r: int) -> "Rect":
        """Strip ``r`` of the ``parts`` a k-reduction leaves of this C block:
        column strips when it is at least as wide as tall, else row strips."""
        if self.cols >= self.rows:
            lo, hi = block_range(self.cols, parts, r)
            return Rect(self.r0, self.r1, self.c0 + lo, self.c0 + hi)
        lo, hi = block_range(self.rows, parts, r)
        return Rect(self.r0 + lo, self.r0 + hi, self.c0, self.c1)

    def transposed(self) -> "Rect":
        """The same region seen in the transposed matrix."""
        return Rect(self.c0, self.c1, self.r0, self.r1)

    def shifted(self, dr: int, dc: int) -> "Rect":
        return Rect(self.r0 + dr, self.r1 + dr, self.c0 + dc, self.c1 + dc)

    def local_slice(self, inner: "Rect") -> tuple[slice, slice]:
        """Slices of ``inner`` within an array holding exactly this rect."""
        if not self.contains(inner):
            raise ValueError(f"{inner} not contained in {self}")
        return (
            slice(inner.r0 - self.r0, inner.r1 - self.r0),
            slice(inner.c0 - self.c0, inner.c1 - self.c0),
        )

    def __iter__(self) -> Iterator[int]:
        return iter((self.r0, self.r1, self.c0, self.c1))


_BOUNDS = attrgetter("r0", "r1", "c0", "c1")


def rect_array(rects: Sequence[Rect]) -> np.ndarray:
    """``rects`` as an ``(n, 4)`` int64 array of ``(r0, r1, c0, c1)`` rows.

    Raises ``ValueError`` naming the first rect with a coordinate that is
    not an integer, which a cast would truncate without a word.
    """
    box = np.array(list(map(_BOUNDS, rects))).reshape(-1, 4)
    if box.dtype.kind == "i":
        return box.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        ints = box.astype(np.int64)
    bad = np.flatnonzero((ints != box).any(axis=1))
    if len(bad):
        raise ValueError(f"{rects[bad[0]]} has a coordinate that is not an integer")
    return ints


def untiled(group: np.ndarray, piece: tuple, whole: tuple) -> np.ndarray:
    """Which rects of ``whole`` their pieces do not tile, ascending.

    ``whole`` and ``piece`` are ``(r0, r1, c0, c1)`` int arrays; piece
    ``k`` is non-empty and lies inside ``whole[group[k]]``.  The corner
    rule: a rect's signed corners (+ at r0c0 and r1c1, - at r0c1 and
    r1c0) are the mixed second difference of its indicator, so the
    pieces' corners and their rect's, negated, cancel point by point iff
    every cell of it is covered exactly once.  Each rect keys its corner
    points in a block of its own, so both sorted lists hold a rect's keys
    at the same positions: one sort per sign, O(n log n) in the pieces.
    """
    w_r0, w_r1, w_c0, w_c1 = whole
    width = w_c1 - w_c0 + 1
    size = (w_r1 - w_r0 + 1) * width
    base = np.cumsum(size) - size
    at = base - w_r0 * width - w_c0  # key of (r, c) in rect i: at[i] + r * width[i] + c
    p_at, p_w, (r0, r1, c0, c1) = at[group], width[group], piece
    plus = np.sort(np.concatenate([p_at + r0 * p_w + c0, p_at + r1 * p_w + c1,
                                   at + w_r0 * width + w_c1, at + w_r1 * width + w_c0]))
    minus = np.sort(np.concatenate([p_at + r0 * p_w + c1, p_at + r1 * p_w + c0,
                                    at + w_r0 * width + w_c0, at + w_r1 * width + w_c1]))
    # Ascending already (``plus`` is sorted), so dropping repeats is
    # ``np.unique``'s answer without its ``numpy.ma`` import.
    hit = np.searchsorted(base, plus[plus != minus], side="right") - 1
    first = np.ones(len(hit), dtype=bool)
    first[1:] = hit[1:] != hit[:-1]
    return hit[first]


def columns_cover_exactly(box: Sequence[np.ndarray], whole: Rect) -> bool:
    """:func:`rects_cover_exactly` of rects given as ``(r0, r1, c0, c1)``
    int arrays, such as :meth:`Distribution.rect_index`'s."""
    w_r0, w_r1, w_c0, w_c1 = rect_array([whole])[0].tolist()
    r0, r1, c0, c1 = box
    keep = (r0 < r1) & (c0 < c1)
    if w_r0 >= w_r1 or w_c0 >= w_c1:
        return not keep.any()
    if (w_r1 - w_r0 + 1) * (w_c1 - w_c0 + 1) > 1 << 62:
        raise OverflowError(f"{whole} is beyond 64-bit corner keys")
    r0, r1, c0, c1 = r0[keep], r1[keep], c0[keep], c1[keep]
    if ((r0 < w_r0) | (r1 > w_r1) | (c0 < w_c0) | (c1 > w_c1)).any():
        return False
    # Keyed from the corner of ``whole``, so no key exceeds its (h+1)(w+1).
    piece = (r0 - w_r0, r1 - w_r0, c0 - w_c0, c1 - w_c0)
    one = tuple(np.array([v], dtype=np.int64) for v in (0, w_r1 - w_r0, 0, w_c1 - w_c0))
    return not len(untiled(np.zeros(len(r0), dtype=np.intp), piece, one))


def rects_cover_exactly(rects: Sequence[Rect], whole: Rect) -> bool:
    """True if ``rects`` tile ``whole``: each of its cells covered exactly
    once, nothing outside it.  Empty and inverted rects are ignored; an
    empty ``whole`` is tiled by no non-empty rect.

    The non-empty rects must lie inside ``whole``, and their signed
    corners must cancel against those of ``whole`` (:func:`untiled`) —
    exact for integer rects, one numpy sort, O(n log n) in the rects.
    A rect with a coordinate that is not an integer is a ``ValueError``.
    """
    return columns_cover_exactly(tuple(rect_array(rects).T), whole)
