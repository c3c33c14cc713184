"""CA3DMM-S: the SUMMA-kernel variant of CA3DMM (Sections III-E and V).

Identical macro-structure to CA3DMM — ``pk`` k-task groups, each
computing a rank-``(k/pk)`` update, followed by the same reduce-scatter
of partial C — but each k-task group runs SUMMA on its full ``pm x pn``
grid instead of Cannon groups.  Consequences the paper derives:

* no divisibility constraint (7) on the grid, and no operand
  replication (memory drops by the ``c`` factor — the Section V
  memory-control proposal);
* latency grows: SUMMA broadcasts panels ``pm`` times, giving
  ``L_SUMMA = pm(log2(pm) + pm - 1) + (pk - 1) >= L_Cannon`` whenever a
  2D kernel is needed at all (the Section III-E inequality, asserted by
  tests and measured by the inner-kernel ablation bench).

The native layouts are the COSMA-like baseline's
(:func:`repro.core.steps.grid_native_dists`): A is 2D-blocked over
``(pm, pn)`` inside each k-slice, likewise B, and C ends in the same
``pk``-strip layout as CA3DMM.
"""

from __future__ import annotations

from ..grid.optimizer import DEFAULT_L, GridSpec, cosma_grid
from ..layout.blocks import block_size
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..mpi.datatypes import freeze
from ..mpi.topology import Cart2D, grid_comms
from .reduce_c import freeze_partial, reduce_over_k
from .steps import enter, grid_native_dists, leave, problem_dims
from .summa import DEFAULT_PANEL, summa_on_grid


def ca3dmm_s_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    grid: GridSpec | None = None,
    l: float = DEFAULT_L,
    panel: int = DEFAULT_PANEL,
) -> DistMatrix:
    """``C = A x B`` with the SUMMA-inner-kernel CA3DMM variant."""
    comm = a.comm
    m, n, k = problem_dims(a, b)
    g = grid if grid is not None else cosma_grid(m, n, k, comm.size, l)
    native = grid_native_dists(m, n, k, g)
    a_loc, b_loc = enter(a, b, native)
    kgroup, kred = grid_comms(comm, g, "mn", "k")

    c_strip = None
    if kgroup is not None:  # an active rank
        kg = block_size(k, g.pk, g.coords(comm.rank)[2])  # my k-task group's extent
        with comm.phase("summa"):
            cart = Cart2D(kgroup, g.pm, g.pn)
            # enter() allocated both blocks and nobody writes them: frozen,
            # every panel is a frozen view that no broadcast hop copies.
            c_part = summa_on_grid(cart, freeze(a_loc), freeze(b_loc), m, n, kg, panel=panel)
        with comm.phase("reduce"):
            c_strip = reduce_over_k(kred, freeze_partial(kred, c_part))
    return leave(comm, native[2], c_strip, c_dist)
