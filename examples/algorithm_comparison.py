#!/usr/bin/env python3
"""Executed mini-Fig-3: compare every PGEMM schedule on real data.

Runs the whole registry ``repro.baselines.SCHEDULES`` — CA3DMM,
CA3DMM-S, the COSMA-like and CTF-like schedules, the SUMMA family, the
1D family, Cannon, the original 3D, 2.5D, and CARMA — on one problem per
paper class, all on the executed engine (scheduled ranks + measured
traffic), and prints each algorithm's *measured* per-rank communication
volume and simulated time.  The orderings mirror Fig. 3's: the 3D-family algorithms move
the least data, CTF-style grids move the most on rectangular shapes.

Run:  python examples/algorithm_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro import BlockCol1D, DistMatrix, dense_random, run_spmd
from repro.baselines import SCHEDULES
from repro.bench.report import format_table

NPROCS = 16  # a square, so Cannon takes part
PROBLEMS = [
    ("square", 96, 96, 96),
    ("large-K", 24, 24, 960),
    ("large-M", 960, 24, 24),
    ("flat", 160, 160, 16),
]
def rank_main(comm, m, n, k):
    a_mat, b_mat = dense_random(m, k, 1), dense_random(k, n, 2)
    a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), a_mat)
    b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), b_mat)
    ref = a_mat @ b_mat
    out = {}
    for name, fn in SCHEDULES.items():
        before = comm.transport.trace(comm.world_rank)
        c = fn(a, b)
        after = comm.transport.trace(comm.world_rank)
        ok = np.allclose(c.to_global(), ref, atol=1e-8 * max(m, n, k))
        out[name] = (
            ok,
            after.bytes_sent - before.bytes_sent,
            after.time - before.time,
        )
    return out


def main() -> None:
    for cls, m, n, k in PROBLEMS:
        res = run_spmd(NPROCS, rank_main, args=(m, n, k), deadlock_timeout=300.0)
        rows = []
        for name in SCHEDULES:
            per_rank = [r[name] for r in res.results]
            assert all(ok for ok, _, _ in per_rank), f"{name} wrong on {cls}"
            words = max(b for _, b, _ in per_rank) / 8
            t = max(t for _, _, t in per_rank)
            rows.append([name, f"{words:,.0f}", f"{t * 1e6:.1f}"])
        print(
            format_table(
                ["algorithm", "max words sent/rank", "sim time (us)"],
                rows,
                title=f"{cls}: {m} x {n} x {k} on {NPROCS} ranks (all verified)",
            )
        )
        print()


if __name__ == "__main__":
    main()
