"""Regenerate any paper table/figure from the command line.

::

    python -m repro.bench fig3           # Fig. 3 strong-scaling series
    python -m repro.bench table2 fig5    # several at once
    python -m repro.bench all            # everything
    python -m repro.bench --list

Prints the rendered tables (the same text the benchmark suite writes to
``benchmarks/out/``).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    TRACE_WORKLOADS,
    baseline_artifact,
    checkpoint_cost,
    fig2_partitions,
    fig3_scaling,
    fig4_hybrid,
    fig5_breakdown,
    l_sweep,
    overlap_comparison,
    table1_memory,
    table2_grids,
    table3_gpu,
    trace_artifact,
)

GENERATORS = {
    "fig2": fig2_partitions,
    "fig3": fig3_scaling,
    "fig4": fig4_hybrid,
    "fig5": fig5_breakdown,
    "table1": table1_memory,
    "table2": table2_grids,
    "table3": table3_gpu,
    "l_sweep": l_sweep,
    "overlap": overlap_comparison,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures",
    )
    ap.add_argument("names", nargs="*", help="fig2 fig3 fig4 fig5 table1 table2 table3 l_sweep overlap, or 'all'")
    ap.add_argument("--list", action="store_true", help="list available generators")
    ap.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="also execute a small stand-in of each figure's workload and "
             "write a Chrome trace (<name>.trace.json) under DIR",
    )
    ap.add_argument(
        "--baseline-dir", metavar="DIR", default=None,
        help="also execute each figure's stand-in workload and write "
             "(refresh) its perf baseline (<name>.json) under DIR; "
             "commit the result to update the perf gate",
    )
    ap.add_argument(
        "--ckpt-every", metavar="N", type=int, default=None,
        help="also run each figure's stand-in workload as a 4-call matmul "
             "chain checkpointed every N calls, kill a rank mid-pipeline, "
             "and print the checkpoint/restart overhead (repro.ckpt, see "
             "docs/RECOVERY.md)",
    )
    args = ap.parse_args(argv)

    if args.list or not args.names:
        print("available:", " ".join(sorted(GENERATORS)), "or 'all'")
        return 0
    names = sorted(GENERATORS) if args.names == ["all"] else args.names
    rc = 0
    for name in names:
        gen = GENERATORS.get(name)
        if gen is None:
            print(f"unknown generator {name!r}; use --list", file=sys.stderr)
            rc = 2
            continue
        print(gen().text)
        print()
        if name not in TRACE_WORKLOADS:
            continue  # no executed stand-in (e.g. "overlap" runs its own)
        if args.trace_dir:
            path = trace_artifact(name, args.trace_dir)
            print(f"trace artifact: {path}")
            print()
        if args.baseline_dir:
            path = baseline_artifact(name, args.baseline_dir)
            print(f"perf baseline: {path}")
            print()
        if args.ckpt_every is not None:
            print(checkpoint_cost(name, ckpt_every=args.ckpt_every).text)
            print()
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
