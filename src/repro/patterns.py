"""Each collective's rounds, defined once.

``pattern(me, g, ...)`` yields rank ``me``'s *row* in a group of ``g``:
one ``(dst, src, nblocks)`` per round in group-local indices — send
``nblocks`` blocks to ``dst``, receive from ``src``, ``None`` for no send
or no receive.  :mod:`repro.mpi.collectives` walks its own rank's row and
moves the data; :mod:`repro.analysis.costs` prices rank 0's.  A row is
computed as it is walked, never stored (a pairwise exchange's rows at
g = 3 072 are 9.4 M rounds).  Imports nothing from ``repro``.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator

Row = Iterator[tuple[int | None, int | None, int]]


def dissemination(me: int, g: int) -> Row:
    """Barrier: ⌈log2 g⌉ rounds, round ``j`` paired with ``me ± 2^j``."""
    step = 1
    while step < g:
        yield (me + step) % g, (me - step) % g, 1
        step <<= 1


def binomial_bcast(me: int, g: int, root: int = 0) -> Row:
    """From the parent (not the root), then to each child, farthest first."""
    vrank, mask = (me - root) % g, 1
    while mask < g:
        if vrank & mask:
            yield None, (me - mask) % g, 1
            break
        mask <<= 1
    while mask > 1:
        mask >>= 1
        if vrank + mask < g:
            yield (me + mask) % g, None, 1


def binomial_reduce(me: int, g: int, root: int = 0) -> Row:
    """:func:`binomial_bcast` backwards: from each child, nearest first,
    then to the parent (not the root)."""
    return ((src, dst, n) for dst, src, n in reversed(list(binomial_bcast(me, g, root))))


def recursive_doubling(me: int, g: int) -> Row:
    """Allreduce of a power-of-two group: exchange with ``me ^ 2^j``."""
    mask = 1
    while mask < g:
        yield me ^ mask, me ^ mask, 1
        mask <<= 1


def linear_scatter(me: int, g: int, root: int = 0) -> Row:
    """The root sends one block to every other rank, in rank order."""
    if me != root:
        return iter(((None, root, 1),))
    return zip(chain(range(root), range(root + 1, g)), repeat(None), repeat(1))


def linear_gather(me: int, g: int, root: int = 0) -> Row:
    """:func:`linear_scatter` with each send a receive and back."""
    return ((src, dst, n) for dst, src, n in linear_scatter(me, g, root))


def bruck(me: int, g: int) -> Row:
    """Holding the blocks of ``me … me + h - 1`` (mod g), send the first
    ``min(h, g - h)`` of them to ``me - h``: ⌈log2 g⌉ rounds."""
    h = 1
    while h < g:
        cnt = min(h, g - h)
        yield (me - h) % g, (me + h) % g, cnt
        h += cnt


def pairwise(me: int, g: int) -> Row:
    """Round ``i`` of g - 1 sends to ``me + i``, receives from ``me - i``
    (mod g); ranges, not a loop, for the pricers' long rows."""
    return zip(chain(range(me + 1, g), range(me)),
               chain(range(me - 1, -1, -1), range(g - 1, me, -1)), repeat(1))


def sends(row: Row) -> int:
    """Messages a row sends."""
    return sum(dst is not None for dst, _, _ in row)
