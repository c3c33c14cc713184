"""The paper's problem classes and evaluation grids (Section IV).

Four classes of matrix dimensions, "taken from real-world applications":

* **square** (``m = n = k``) — density-matrix purification, polar
  decomposition;
* **large-K** (``m = n << k``) — CholeskyQR, Rayleigh-Ritz Gram matrices;
* **large-M** (``m >> n = k``) — the projection application step of the
  same methods;
* **flat** (``m = n >> k``) — trailing-matrix updates in LU / Cholesky /
  QR factorizations.

The module also records the exact dimension sets of every figure/table
so benches and EXPERIMENTS.md stay in sync with one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Problem:
    """One (class, m, n, k) evaluation point."""

    cls: str
    m: int
    n: int
    k: int

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.m, self.n, self.k

    def label(self) -> str:
        def fmt(x: int) -> str:
            return f"{x // 1000}k" if x % 1000 == 0 and x >= 1000 else str(x)

        return f"{self.cls}({fmt(self.m)},{fmt(self.n)},{fmt(self.k)})"


#: Fig. 3 / Fig. 4 / Table I / Table II problem dimensions (x 10^3 in paper).
CPU_PROBLEMS: tuple[Problem, ...] = (
    Problem("square", 50_000, 50_000, 50_000),
    Problem("large-K", 6_000, 6_000, 1_200_000),
    Problem("large-M", 1_200_000, 6_000, 6_000),
    Problem("flat", 100_000, 100_000, 5_000),
)

#: Table III (GPU) problem dimensions.
GPU_PROBLEMS: tuple[Problem, ...] = (
    Problem("square", 50_000, 50_000, 50_000),
    Problem("large-K", 10_000, 10_000, 300_000),
    Problem("large-M", 300_000, 10_000, 10_000),
    Problem("flat", 50_000, 50_000, 10_000),
)

#: Strong-scaling process counts of Figs. 3-4 / Table I.
SCALING_PROCS: tuple[int, ...] = (192, 384, 768, 1536, 3072)

#: Table II process counts.
TABLE2_PROCS: tuple[int, ...] = (2048, 3072)

#: Table III GPU counts.
GPU_COUNTS: tuple[int, ...] = (16, 32)


def scaled_problem(p: Problem, factor: int) -> Problem:
    """Shrink a paper problem by an integer factor (executed-engine scale)."""
    return Problem(p.cls, max(1, p.m // factor), max(1, p.n // factor), max(1, p.k // factor))


#: Small executed-engine analogues keeping each class's aspect ratio
#: (used by tests and the verification benches; P <= 32).
SMALL_PROBLEMS: tuple[Problem, ...] = (
    Problem("square", 96, 96, 96),
    Problem("large-K", 24, 24, 960),
    Problem("large-M", 960, 24, 24),
    Problem("flat", 160, 160, 16),
)
