"""Cartesian process-grid helpers used by the 2D/3D algorithms.

The paper organizes the ``pm x pn x pk`` grid column-major: ranks in the
same k-task group (and the same Cannon group within it) are contiguous.
:class:`Cart2D` gives 2D algorithms (Cannon, SUMMA) coordinates, row and
column subcommunicators, and circular-shift neighbours on an existing
communicator without reinventing index arithmetic at every call site;
:func:`grid_comms` cuts the fibers and planes of the 3D grid out of the
world, idle ranks included, from the rank order ``GridSpec`` states once.
Every grid split — those fibers and planes, and CA3DMM's Cannon, replica
and k-reduction groups — goes through :func:`grid_split`, which makes a
group of one rank locally instead of splitting for it.
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

    def row_comm(self) -> Comm:
        """Subcommunicator of this rank's grid row (collective)."""
        sub = self.comm.split(color=self.row, key=self.col)
        assert sub is not None
        return sub

    def col_comm(self) -> Comm:
        """Subcommunicator of this rank's grid column (collective)."""
        sub = self.comm.split(color=self.col, key=self.row)
        assert sub is not None
        return sub


def grid_split(comm: Comm, color: int | None, key: int, members: int) -> Comm | None:
    """``comm.split(color, key)`` for a grid whose every group has ``members`` ranks.

    Every rank of ``comm`` must pass the same ``members``.  When it is 1
    nobody splits: a rank with a color gets a fresh one-rank communicator
    made locally (as ``MPI_COMM_SELF``: a context of its own, no message,
    no clock or memory charge) and one without gets ``None``.  The
    parent's split sequence is left as it is on every rank alike, so a
    later :meth:`Comm.split` still keys the same everywhere.
    """
    if members > 1:
        return comm.split(color, key)
    if color is None:
        return None
    rank = comm.world_rank
    return Comm(comm.transport, comm.transport.fresh_context(), (rank,), rank)


def grid_comms(comm: Comm, grid: "GridSpec", *varying: str) -> list[Comm | None]:
    """This rank's sub-communicators of a ``pm x pn x pk`` grid over ``comm``.

    One :func:`grid_split` per entry of ``varying``, in that order, each
    by :meth:`GridSpec.split_key`: ``"m"``, ``"n"`` or ``"k"`` is the
    fiber along that axis (the ranks sharing the other two coordinates,
    ordered by the named one), ``"mn"`` the plane of this rank's k-task
    group, ordered column-major so ``Cart2D(plane, pm, pn)`` puts every
    rank at its ``(i, j)``.  Idle ranks take part in every split and get
    ``None`` for each; an axis of extent 1 is not split at all.
    """
    if grid.nprocs != comm.size:
        raise CommError(
            f"grid {grid} was built for {grid.nprocs} ranks, comm has {comm.size}"
        )
    extent = {"m": grid.pm, "n": grid.pn, "k": grid.pk}
    return [
        grid_split(comm, *grid.split_key(comm.rank, axes), math.prod(extent[a] for a in axes))
        for axes in varying
    ]
