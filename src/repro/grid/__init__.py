"""Process-grid selection (paper Section III-A/B)."""

from .factorize import (
    divisors,
    factor_triples,
    is_pow2,
    near_square_pair,
    perfect_square_part,
    prime_factors,
)
from .optimizer import (
    DEFAULT_L,
    GridSpec,
    best_grids,
    ca3dmm_grid,
    cosma_grid,
    ctf_grid,
    enumerate_grids,
)

__all__ = [
    "divisors",
    "prime_factors",
    "factor_triples",
    "is_pow2",
    "near_square_pair",
    "perfect_square_part",
    "GridSpec",
    "DEFAULT_L",
    "enumerate_grids",
    "best_grids",
    "ca3dmm_grid",
    "cosma_grid",
    "ctf_grid",
]
