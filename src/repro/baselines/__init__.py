"""Baseline PGEMM algorithms the paper situates CA3DMM against.

:data:`SCHEDULES` is the registry of every executed schedule in the
package — the baselines here plus CA3DMM and CA3DMM-S — for code that
sweeps them all (cross-agreement and identity tests, the comparison
example, the CI layout-count step).  Every entry is called as
``fn(a, b, c_dist=None)``.
"""

from ..core.ca3dmm import ca3dmm_matmul
from ..core.summa_variant import ca3dmm_s_matmul
from .algo1d import matmul_1d, matmul_1d_k, matmul_1d_m, matmul_1d_n
from .algo25d import algo25d_matmul, grid_25d
from .algo3d import algo3d_matmul, cube_side
from .cannon2d import cannon_matmul
from .carma import carma_matmul, carma_native_dists
from .cosma import SplitStep, cosma_matmul, cosma_strategy
from .ctf_like import ctf_matmul
from .summa import summa_auto_matmul, summa_matmul, summa_on_grid
from .summa_stationary import (
    summa_stationary_a_matmul,
    summa_stationary_b_matmul,
)

#: name -> ``fn(a, b, c_dist=None)``.  "cannon" needs a square world.
SCHEDULES = {
    "ca3dmm": ca3dmm_matmul,
    "ca3dmm-s": ca3dmm_s_matmul,
    "cosma": cosma_matmul,
    "ctf": ctf_matmul,
    "summa": summa_matmul,
    "summa-auto": summa_auto_matmul,
    "summa-a": summa_stationary_a_matmul,
    "summa-b": summa_stationary_b_matmul,
    "1d": matmul_1d,
    "1d-m": matmul_1d_m,
    "1d-n": matmul_1d_n,
    "1d-k": matmul_1d_k,
    "cannon": cannon_matmul,
    "3d": algo3d_matmul,
    "2.5d": algo25d_matmul,
    "carma": carma_matmul,
}

__all__ = [
    "SCHEDULES",
    "matmul_1d",
    "matmul_1d_m",
    "matmul_1d_n",
    "matmul_1d_k",
    "summa_matmul",
    "summa_auto_matmul",
    "summa_stationary_a_matmul",
    "summa_stationary_b_matmul",
    "summa_on_grid",
    "cannon_matmul",
    "algo3d_matmul",
    "cube_side",
    "algo25d_matmul",
    "grid_25d",
    "carma_matmul",
    "carma_native_dists",
    "cosma_matmul",
    "cosma_strategy",
    "SplitStep",
    "ctf_matmul",
]
