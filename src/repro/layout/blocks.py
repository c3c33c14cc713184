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
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


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


def rects_cover_exactly(rects: list[Rect], whole: Rect) -> bool:
    """True if ``rects`` tile ``whole`` disjointly and completely.

    Checked by area accounting plus pairwise-disjointness — sufficient
    when total area matches and every rect lies inside ``whole``.
    """
    total = 0
    nonempty = [r for r in rects if not r.is_empty()]
    for r in nonempty:
        if not whole.contains(r):
            return False
        total += r.area
    if total != whole.area:
        return False
    for i, a in enumerate(nonempty):
        for b in nonempty[i + 1 :]:
            if not a.intersect(b).is_empty():
                return False
    return True
