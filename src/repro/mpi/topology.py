"""Cartesian process-grid helpers used by the 2D/3D algorithms.

The paper organizes the ``pm x pn x pk`` grid column-major: ranks in the
same k-task group (and the same Cannon group within it) are contiguous.
:class:`Cart2D` gives 2D algorithms (Cannon, SUMMA) coordinates, row and
column subcommunicators, and circular-shift neighbours on an existing
communicator without reinventing index arithmetic at every call site;
:func:`grid_comms` cuts the fibers and planes of the 3D grid out of the
world, idle ranks included, from the rank order ``GridSpec`` states once.
Both make every group they need with one :meth:`Comm.create_groups` — one
context agreement, no split — as CA3DMM's engine does for its Cannon,
replica and k-reduction groups.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .comm import Comm
from .errors import CommError

if TYPE_CHECKING:  # pragma: no cover - mpi does not depend on grid at run time
    from ..grid.optimizer import GridSpec


class Cart2D:
    """A column-major ``nrows x ncols`` view of a communicator.

    Local rank ``r`` sits at ``(row, col) = (r % nrows, r // nrows)``,
    matching the column-major convention used throughout the paper's
    examples (Fig. 2).
    """

    def __init__(self, comm: Comm, nrows: int, ncols: int):
        if comm.size != nrows * ncols:
            raise CommError(
                f"Cart2D {nrows}x{ncols} needs {nrows * ncols} ranks, comm has {comm.size}"
            )
        self.comm = comm
        self.nrows = nrows
        self.ncols = ncols
        self.row = comm.rank % nrows
        self.col = comm.rank // nrows

    def rank_of(self, row: int, col: int) -> int:
        """Local rank of the process at ``(row, col)`` (wrapping)."""
        return (row % self.nrows) + (col % self.ncols) * self.nrows

    # Circular-shift neighbours (used by Cannon's algorithm).
    def left(self, by: int = 1) -> int:
        return self.rank_of(self.row, self.col - by)

    def right(self, by: int = 1) -> int:
        return self.rank_of(self.row, self.col + by)

    def up(self, by: int = 1) -> int:
        return self.rank_of(self.row - by, self.col)

    def down(self, by: int = 1) -> int:
        return self.rank_of(self.row + by, self.col)

    def row_col_comms(self) -> tuple[Comm, Comm]:
        """This rank's grid row, ordered by column, and grid column, ordered
        by row (collective): one :meth:`Comm.create_groups`, so one
        agreement, none when both are one rank, and a line of one rank is
        made locally."""
        row = [self.row + self.nrows * c for c in range(self.ncols)]
        col = [self.nrows * self.col + r for r in range(self.nrows)]
        return tuple(self.comm.create_groups([row, col], max(self.nrows, self.ncols)))


def grid_comms(comm: Comm, grid: "GridSpec", *varying: str) -> list[Comm | None]:
    """This rank's sub-communicators of a ``pm x pn x pk`` grid over ``comm``.

    One :meth:`Comm.create_groups` for every entry of ``varying`` at
    once, each group :meth:`GridSpec.group`: ``"m"``, ``"n"`` or ``"k"``
    is the fiber along that axis (the ranks sharing the other two
    coordinates, ordered by the named one), ``"mn"`` the plane of this
    rank's k-task group, ordered column-major so ``Cart2D(plane, pm, pn)``
    puts every rank at its ``(i, j)``.  Idle ranks take part in the one
    agreement and get ``None`` for each; nobody agrees when every group
    asked for is one rank, and a group of one rank is made locally.
    """
    if grid.nprocs != comm.size:
        raise CommError(
            f"grid {grid} was built for {grid.nprocs} ranks, comm has {comm.size}"
        )
    extent = {"m": grid.pm, "n": grid.pn, "k": grid.pk}
    largest = max((math.prod(extent[a] for a in axes) for axes in varying), default=1)
    return comm.create_groups([grid.group(comm.rank, axes) for axes in varying], largest)
