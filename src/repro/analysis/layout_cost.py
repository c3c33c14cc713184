"""Exact layout-conversion volumes between concrete distributions.

``redist_cost`` prices a *generic* conversion by total matrix size; this
module computes the **exact** per-rank send volume between two concrete
:class:`~repro.layout.distributions.Distribution` objects by rectangle
intersection — the very table the executed redistribution slices by,
without moving data.  Uses:

* pinning executed redistribution traffic in tests (volume must match
  to the byte, minus each piece's four rectangle ints),
* quantifying how much of a conversion is "already in place" (the
  ``overlap`` argument of :func:`repro.analysis.costs.redist_cost`),
* choosing between candidate output layouts for a driver application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout.distributions import Distribution
from ..layout.overlap import overlap_table


@dataclass(frozen=True)
class RedistVolume:
    """Exact conversion traffic between two layouts (in words)."""

    per_rank_sent: tuple[int, ...]  #: words each rank ships to other ranks
    total_moved: int  #: words that change owner
    total_area: int  #: matrix size
    max_sent: int

    @property
    def moved_fraction(self) -> float:
        """Share of the matrix that changes owner (0 = layouts agree)."""
        return self.total_moved / self.total_area if self.total_area else 0.0

    @property
    def overlap(self) -> float:
        """The in-place share, directly usable as redist_cost(overlap=...)."""
        return 1.0 - self.moved_fraction


def exact_redist_volume(
    src: Distribution, dst: Distribution, transpose: bool = False
) -> RedistVolume:
    """Words each rank must send to convert ``src`` into ``dst``.

    With ``transpose=True``, ``dst`` describes the transposed matrix
    (same convention as :func:`repro.layout.redistribute.redistribute`,
    and a reduction over the same :func:`~repro.layout.overlap.overlap_table`:
    per source rank, the areas of the pieces that leave it).
    """
    table = overlap_table(src, dst, transpose)
    moves = table.src_rank != table.dst_rank
    sent = np.zeros(src.nranks, dtype=np.int64)
    np.add.at(sent, table.src_rank[moves], table.area[moves])
    m, n = src.shape
    return RedistVolume(
        per_rank_sent=tuple(sent.tolist()),
        total_moved=int(sent.sum()),
        total_area=m * n,
        max_sent=int(sent.max(initial=0)),
    )
