"""A CTF-like baseline: the 2.5D engine with CTF-style grid selection.

The Cyclops Tensor Framework implements 2.5D matrix multiplication for
any process count but — as the paper notes, citing [18] — "its process
grid and matrix decomposition may be far from optimal" for matrix
multiplication, because the grid is chosen square-ish regardless of the
matrix aspect ratio.  This baseline reproduces that behaviour: grid from
:func:`repro.grid.optimizer.ctf_grid` (square 2D face, replication
factor c), executed by :func:`repro.baselines.algo25d.algo25d_matmul`.
"""

from __future__ import annotations

from ..core.steps import problem_dims
from ..grid.optimizer import ctf_grid
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from .algo25d import algo25d_matmul


def ctf_matmul(
    a: DistMatrix, b: DistMatrix, c_dist: Distribution | None = None
) -> DistMatrix:
    """2.5D multiplication on a CTF-style (aspect-blind) grid."""
    m, n, k = problem_dims(a, b)
    g = ctf_grid(m, n, k, a.comm.size)
    # ctf_grid returns pm == pn == sq with pk as the replication factor;
    # the 2.5D engine needs c <= sq, which ctf_grid guarantees for all
    # P >= 4 (c <= ~2 * P^(1/3) <= sq); clamp defensively for tiny P.
    c = min(g.pk, g.pm) if g.pm > 0 else 1
    return algo25d_matmul(a, b, c_dist=c_dist, c_factor=max(1, c), sq=g.pm)
