#!/usr/bin/env python3
"""Section V in action: trading communication for memory.

The paper's first future-work topic is "controlling the usage of extra
memory in CA3DMM while minimizing communication costs".  This example
sweeps a per-process memory cap on a square problem, shows the grid
drifting toward 2D (pk shrinking — fewer partial-C copies, less
replication) while per-process communication volume grows, then lets
the autotuner pick the best configuration under a hard cap — including
the SUMMA-kernel variant, the paper's other proposed lever.

Run:  python examples/memory_capped.py
"""

from __future__ import annotations

from repro.core import tune
from repro.grid.optimizer import ca3dmm_grid
from repro.machine.model import pace_phoenix_cpu

M = N = K = 3000
NPROCS = 64
ITEM = 8


def main() -> None:
    free = ca3dmm_grid(M, N, K, NPROCS)
    base = free.memory_words(M, N, K)
    print(f"Square {M}^3 on {NPROCS} ranks; unconstrained grid "
          f"{free.pm}x{free.pn}x{free.pk} needs "
          f"{base * ITEM / 2 ** 20:.1f} MB/process (eq. 11)\n")

    print(f"{'cap (x free)':>12} {'grid':>10} {'mem MB':>8} {'Q/proc kwords':>14}")
    for frac in (1.0, 0.8, 0.6, 0.45, 0.35):
        g = ca3dmm_grid(M, N, K, NPROCS, memory_limit_words=base * frac)
        mem = g.memory_words(M, N, K) * ITEM / 2 ** 20
        q = g.surface(M, N, K) / g.used / 1000
        print(f"{frac:>12.2f} {f'{g.pm}x{g.pn}x{g.pk}':>10} {mem:>8.1f} {q:>14.1f}")

    cap = base * 0.5
    result = tune(M, N, K, NPROCS, pace_phoenix_cpu("mpi"), memory_limit_words=cap)
    print(f"\nautotuner under a {cap * ITEM / 2 ** 20:.1f} MB cap picks:")
    for cand in result.candidates[:3]:
        marker = " <- best" if cand is result.best else ""
        print(f"  {cand.describe()}{marker}")

    if result.best.inner == "cannon":
        print("\n(executed verification runs at reduced size in the tests;"
              " see tests/grid/test_memory_limit.py)")
    print("OK")


if __name__ == "__main__":
    main()
