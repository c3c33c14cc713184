"""The artifact's example program (``example_AB``) plus obs subcommands.

The SC22 artifact ships ``example_AB.exe``, run as::

    mpirun -np <nprocs> ./example_AB.exe <M> <N> <K> <transA> <transB>
        <validation> <ntest> <dtype> [mp np kp]

This module reproduces it on the virtual runtime (``-np`` becomes a
flag, ``dtype`` 0/1 selects the CPU or GPU machine model) and prints the
same report structure: the partition info block, per-phase timings over
``ntest`` runs, and a correctness check against the serial product.
``transA``/``transB`` accept the artifact's 0/1 or BLAS op codes
``N``/``T``/``C``; ``--json`` emits the whole report as one
schema-validated JSON document (``repro.obs.export.RUN_JSON_SCHEMA``)
for scripting.

Ten observability subcommands front the :mod:`repro.obs` subsystem::

    python -m repro.cli trace 64 64 64 -np 8 -o run.trace.json
    python -m repro.cli stats 64 64 64 -np 8 --json
    python -m repro.cli audit 64 64 64 -np 64 --strict
    python -m repro.cli memprof 64 64 64 -np 8 --json
    python -m repro.cli ledger --last 10
    python -m repro.cli critpath 64 64 64 -np 8 --timeline
    python -m repro.cli perfdiff --baseline-dir benchmarks/baselines
    python -m repro.cli faults 64 64 64 -np 8 --plan drop.json
    python -m repro.cli recover 64 64 64 -np 8 --kill-rank 3 --corrupt
    python -m repro.cli checkpoint 48 48 48 -np 8 --kill-rank 1

``trace`` executes one multiplication with event recording and exports a
Chrome-trace/Perfetto JSON (plus an optional JSONL structured log);
``stats`` prints the run's metrics snapshot and drift-guard report;
``critpath`` reconstructs the binding chain that bounds the makespan
(per-phase blame, per-rank idle decomposition, stragglers); ``perfdiff``
re-executes the fixed workload matrix and diffs it against committed
perf baselines, exiting nonzero on a regression (the CI perf gate);
``faults`` runs the same workload clean and under a deterministic fault
plan (:mod:`repro.mpi.faults`, see ``docs/FAULTS.md``) and reports the
makespan delta, retry counters, result correctness, and the critical-path
chain through the injected fault; ``recover`` demonstrates the
fault-*tolerance* layer (:mod:`repro.ft`, see ``docs/RECOVERY.md``):
ULFM-style rank-failure recovery and/or ABFT corruption protection,
exiting nonzero unless the faulted run recovers a correct result;
``checkpoint`` runs a multi-call pipeline under :mod:`repro.ckpt`
checkpoint/restart — a rank is killed mid-pipeline, the survivors
restart from the newest checkpoint, and partial-result reuse keeps the
recomputed work below one full call; ``audit`` runs the transport-truth
communication audit (:mod:`repro.obs.audit`): measured bytes-on-the-wire
vs the eq. (4) schedule, the α-β collective accounting, and the
red-blue pebbling lower bound, with a committed-baseline gate (the CI
audit gate); ``memprof`` profiles each rank's measured resident memory
(tagged allocation spans, :mod:`repro.obs.memtrace`) against the paper's
eq. (11) footprint prediction — per-purpose breakdown, top-offender
ranks, and a committed-baseline gate (the CI memory gate); ``ledger``
renders and queries the append-only run history
(:mod:`repro.obs.ledger`).  Every executing subcommand accepts
``--ledger [PATH]`` (or the ``REPRO_LEDGER`` environment variable) to
append its run record to the history.

Run as ``python -m repro.cli ...`` or via the ``ca3dmm-example``
console script.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis.verify import eq9_lower_bound, theoretical_metrics
from .core.ca3dmm import Ca3dmm
from .core.plan import Ca3dmmPlan
from .grid.optimizer import GridSpec
from .layout.distributions import BlockCol1D
from .layout.matrix import DistMatrix, dense_random
from .machine.model import pace_phoenix_cpu, pace_phoenix_gpu
from .mpi.runtime import run_spmd
from .obs.baseline import GateError, check_gate, write_gate
from .obs.critpath import critpath_report
from .obs.drift import drift_report
from .obs.export import (
    validate_run_json,
    write_chrome_trace,
    write_jsonl,
)
from .obs.metrics import format_metrics, snapshot_run

#: CLI op-code spellings accepted for transA/transB.
_OP_CODES = {"0": "N", "1": "T", "N": "N", "T": "T", "C": "C"}


def _op_arg(value: str) -> str:
    code = _OP_CODES.get(str(value).upper())
    if code is None:
        raise argparse.ArgumentTypeError(
            f"invalid op code {value!r}; expected 0, 1, N, T, or C"
        )
    return code


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="example_AB",
        description="CA3DMM example: C = op(A) x op(B) on the virtual MPI runtime",
    )
    ap.add_argument("-np", "--nprocs", type=int, default=8, help="number of ranks")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as one JSON document (no text output)")
    ap.add_argument("--ledger", nargs="?", const="", default=None,
                    metavar="PATH",
                    help="append this run's record to the JSONL run ledger")
    ap.add_argument("M", type=int)
    ap.add_argument("N", type=int)
    ap.add_argument("K", type=int)
    ap.add_argument("transA", type=_op_arg, nargs="?", default="N",
                    help="0/N, 1/T, or C (conjugate transpose)")
    ap.add_argument("transB", type=_op_arg, nargs="?", default="N")
    ap.add_argument("validation", type=int, choices=(0, 1), nargs="?", default=1)
    ap.add_argument("ntest", type=int, nargs="?", default=3)
    ap.add_argument(
        "dtype", type=int, choices=(0, 1), nargs="?", default=0,
        help="device: 0 = CPU machine model, 1 = GPU machine model",
    )
    ap.add_argument("mp", type=int, nargs="?", default=0)
    ap.add_argument("np_", metavar="np", type=int, nargs="?", default=0)
    ap.add_argument("kp", type=int, nargs="?", default=0)
    return ap.parse_args(argv)


def _rank_main(comm, args, grid):
    m, n, k = args.M, args.N, args.K
    transa, transb = args.transA != "N", args.transB != "N"
    a_shape = (k, m) if transa else (m, k)
    b_shape = (n, k) if transb else (k, n)
    a = DistMatrix.from_global(
        comm, BlockCol1D(a_shape, comm.size), dense_random(*a_shape, seed=7)
    )
    b = DistMatrix.from_global(
        comm, BlockCol1D(b_shape, comm.size), dense_random(*b_shape, seed=8)
    )
    eng = Ca3dmm(comm, m, n, k, grid=grid)
    out_dist = BlockCol1D((m, n), comm.size)

    timings = []
    c = None
    for _ in range(max(1, args.ntest)):
        before = comm.transport.trace(comm.world_rank)
        c = eng.multiply(a, b, c_dist=out_dist, transa=args.transA, transb=args.transB)
        after = comm.transport.trace(comm.world_rank)
        delta = {
            name: after.phases[name].time
            - (before.phases[name].time if name in before.phases else 0.0)
            for name in after.phases
        }
        delta["total"] = after.time - before.time
        timings.append(delta)

    errors = 0
    if args.validation:
        got = c.to_global()
        a_g = a.to_global()
        b_g = b.to_global()
        op_a = a_g.conj().T if args.transA == "C" else a_g.T if transa else a_g
        op_b = b_g.conj().T if args.transB == "C" else b_g.T if transb else b_g
        ref = op_a @ op_b
        scale = max(1.0, float(np.abs(ref).max()))
        errors = int(np.sum(np.abs(got - ref) > 1e-9 * scale))
    peak = comm.transport.trace(comm.world_rank).peak_live_bytes
    return timings, errors, peak


def _partition_doc(args, plan, metrics) -> dict:
    m, n, k, p = args.M, args.N, args.K, args.nprocs
    mb = -(-m // plan.pm)
    nb = -(-n // plan.pn)
    kb = -(-k // plan.pk)
    return {
        "pm": plan.pm,
        "pn": plan.pn,
        "pk": plan.pk,
        "s": plan.s,
        "c": plan.c,
        "work_cuboid": [mb, nb, kb],
        "utilization_pct": 100.0 * plan.active / p,
        "q_over_lower_bound": metrics.q_words
        / max(eq9_lower_bound(m, n, k, p), 1e-300),
    }


# -------------------------------------------------------------- example_AB -- #
def _example_main(argv: list[str] | None) -> int:
    args = _parse(argv)
    m, n, k, p = args.M, args.N, args.K, args.nprocs
    machine = pace_phoenix_gpu() if args.dtype else pace_phoenix_cpu("mpi")

    grid = None
    if args.mp and args.np_ and args.kp:
        if args.mp * args.np_ * args.kp > p:
            print("mp * np * kp must be <= nprocs", file=sys.stderr)
            return 2
        grid = GridSpec(pm=args.mp, pn=args.np_, pk=args.kp, nprocs=p)

    plan = Ca3dmmPlan(m, n, k, p, grid=grid)
    metrics = theoretical_metrics(plan)
    part = _partition_doc(args, plan, metrics)

    if not args.json:
        print(f"Test problem size m * n * k : {m} * {n} * {k}")
        print(f"Transpose A / B             : "
              f"{int(args.transA != 'N')} / {int(args.transB != 'N')}")
        print(f"Number of tests             : {args.ntest}")
        print(f"Check result correctness    : {args.validation}")
        print(f"Device type                 : {args.dtype}")
        print("CA3DMM partition info:")
        print(f"Process grid mp * np * kp   : {plan.pm} * {plan.pn} * {plan.pk}")
        wc = part["work_cuboid"]
        print(f"Work cuboid  mb * nb * kb   : {wc[0]} * {wc[1]} * {wc[2]}")
        print(f"Process utilization         : {part['utilization_pct']:.2f} %")
        print(f"Comm. volume / lower bound  : {part['q_over_lower_bound']:.2f}")

    result = run_spmd(
        p, _rank_main, args=(args, grid), machine=machine, record_events=args.json
    )
    timings, errors, peak = result.results[0]
    nruns = max(1, args.ntest)
    _append_ledger(args, result, plan, "cli.example", nruns=nruns)

    def avg(key: str) -> float:
        return 1e3 * sum(t.get(key, 0.0) for t in timings) / len(timings)

    if args.json:
        from .obs.audit import audit_run

        phase_names = sorted({name for t in timings for name in t})
        doc = {
            "schema_version": 1,
            "problem": {
                "m": m, "n": n, "k": k, "nprocs": p,
                "transA": args.transA, "transB": args.transB,
                "device": "gpu" if args.dtype else "cpu",
            },
            "partition": part,
            "phases": {name: {"avg_ms": avg(name)} for name in phase_names},
            "runs": [
                {name: 1e3 * t.get(name, 0.0) for name in phase_names}
                for t in timings
            ],
            "correctness": {"validated": bool(args.validation), "errors": errors},
            "peak_bytes": int(peak),
            "metrics": snapshot_run(result, plan).to_dict(),
            "drift": drift_report(result, plan, nruns=nruns).to_dict(),
            "audit": audit_run(result, plan, machine=machine,
                               nruns=nruns).to_dict(),
        }
        validate_run_json(doc)
        print(json.dumps(doc, indent=2))
        return 0 if errors == 0 else 1

    print(f"Rank 0 work buffer size     : {peak / 2 ** 20:.2f} MBytes")
    print()
    print("================== CA3DMM algorithm engine ==================")
    print(f"* Number of executions   : {len(timings)}")
    print(f"* Execution time (avg)   : {avg('total'):.3f} ms (simulated)")
    print(f"* Redistribute A, B, C   : {avg('redist'):.3f} ms")
    print(f"* Allgather A or B       : {avg('replicate'):.3f} ms")
    print(f"* 2D Cannon execution    : {avg('cannon'):.3f} ms")
    print(f"* Reduce-scatter C       : {avg('reduce'):.3f} ms")
    print("==============================================================")
    if args.validation:
        print(f"CA3DMM output : {errors} error(s)")
    return 0 if errors == 0 else 1


# ------------------------------------------------------- obs subcommands -- #
def _obs_parser(name: str, description: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=f"python -m repro.cli {name}",
                                 description=description)
    ap.add_argument("M", type=int)
    ap.add_argument("N", type=int)
    ap.add_argument("K", type=int)
    ap.add_argument("-np", "--nprocs", type=int, default=8)
    ap.add_argument("--dtype", type=int, choices=(0, 1), default=0,
                    help="0 = CPU machine model, 1 = GPU machine model")
    ap.add_argument("--overlap", choices=("none", "partial", "full"),
                    default=None,
                    help="async comm engine capability of the machine "
                         "model (default: the model's own, i.e. 'none'; "
                         "see docs/VIRTUAL_MPI.md)")
    ap.add_argument("--grid", type=int, nargs=3, metavar=("MP", "NP", "KP"),
                    help="force the process grid pm pn pk")
    ap.add_argument("--tol", type=float, default=0.05,
                    help="drift-guard byte tolerance (relative)")
    ap.add_argument("--ledger", nargs="?", const="", default=None,
                    metavar="PATH",
                    help="append this run's record to the JSONL run ledger "
                         "(default path benchmarks/history/ledger.jsonl; "
                         "REPRO_LEDGER=<path|1> enables it globally)")
    return ap


def _ledger_target(args) -> "object | None":
    """The ledger path selected by --ledger / REPRO_LEDGER, or None."""
    from .obs.ledger import DEFAULT_LEDGER_PATH, ledger_path_from_env

    flag = getattr(args, "ledger", None)
    if flag is not None:
        return flag or DEFAULT_LEDGER_PATH
    return ledger_path_from_env()


def _append_ledger(args, result, plan, kind: str, nruns: int = 1,
                   audit_ok: bool | None = None,
                   extra: dict | None = None) -> None:
    """Append one run record when the ledger is enabled (else no-op)."""
    target = _ledger_target(args)
    if target is None:
        return
    from .obs.ledger import Ledger, ledger_record

    rec = ledger_record(result, plan, kind, nruns=nruns,
                        audit_ok=audit_ok, extra=extra)
    ledger = Ledger(target)
    ledger.append(rec)
    if not getattr(args, "json", False):
        print(f"ledger: appended {rec['run_id'][:12]} ({kind}) to {ledger.path}")


def _run_traced(m: int, n: int, k: int, p: int, machine, grid,
                memory_limit_words: float | None = None):
    """One native-layout multiplication with event recording."""
    plan = Ca3dmmPlan(m, n, k, p, grid=grid,
                      memory_limit_words=memory_limit_words)

    def f(comm):
        eng = Ca3dmm(comm, m, n, k, grid=grid if grid is not None else plan.grid)
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 7))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 8))
        eng.multiply(a, b)

    result = run_spmd(p, f, machine=machine, record_events=True)
    return plan, result


def _obs_common(args):
    machine = pace_phoenix_gpu() if args.dtype else pace_phoenix_cpu("mpi")
    if getattr(args, "overlap", None):
        machine = machine.with_overlap(args.overlap)
    grid = None
    if args.grid:
        mp, np_, kp = args.grid
        if mp * np_ * kp > args.nprocs:
            raise SystemExit("grid mp * np * kp must be <= nprocs")
        grid = GridSpec(pm=mp, pn=np_, pk=kp, nprocs=args.nprocs)
    return machine, grid


def _gate_args(ap: argparse.ArgumentParser, what: str, name: str) -> None:
    ap.add_argument("--gate", default=None, metavar="FILE",
                    help=f"compare {what} against this committed baseline "
                         f"JSON; exit 1 on regression, 2 when the file is "
                         f"unusable or for another problem (the CI {name} gate)")
    ap.add_argument("--gate-tol", type=float, default=0.02,
                    help="allowed relative worsening of the gated values")
    ap.add_argument("--update-gate", default=None, metavar="FILE",
                    help="write the gate baseline from this run instead of "
                         "comparing")


def _print_gated(args, to_dict, fmt, text: tuple[str, str, int],
                 values: dict, gated: tuple[str, ...]) -> bool:
    """Print a report of ``audit`` / ``memprof`` through ``--update-gate``
    / ``--gate``; False when the gate found a regression.

    ``values`` is what ``--update-gate`` commits, ``gated`` the keys
    ``--gate`` holds the run to (:func:`repro.obs.baseline.check_gate`);
    ``text`` is the gate's name, its word for a check and the column
    width of its one line of text.
    """
    name, label, width = text
    workload = {"m": args.M, "n": args.N, "k": args.K, "nprocs": args.nprocs}
    if args.update_gate:
        write_gate(args.update_gate, workload, values)
        if not args.json:
            print(f"{name} gate baseline written: {args.update_gate}")
    gate = None
    if args.gate:
        gate = check_gate(args.gate, workload, {key: values[key] for key in gated},
                          args.gate_tol, label)
    if args.json:
        doc = to_dict()
        if gate is not None:
            doc["gate"] = gate
        print(json.dumps(doc, indent=2))
    else:
        print(fmt())
        if gate is not None:
            for c in gate["checks"]:
                print(f"  gate {c[label]:<{width}}: measured {c['measured']:.4f} "
                      f"vs baseline {c['baseline']:.4f} "
                      f"(tol {100 * args.gate_tol:.1f}%)  "
                      + ("ok" if c["ok"] else "REGRESSION"))
            print(f"{name} gate: " + ("OK" if gate["ok"] else "FAIL"))
    return gate is None or gate["ok"]


def _trace_main(argv: list[str]) -> int:
    ap = _obs_parser(
        "trace", "Execute one CA3DMM multiplication and export its trace"
    )
    ap.add_argument("-o", "--output", default="ca3dmm.trace.json",
                    help="Chrome-trace output path (load in Perfetto)")
    ap.add_argument("--jsonl", default=None,
                    help="also write a JSONL structured log to this path")
    ap.add_argument("--no-transport-events", action="store_true",
                    help="export only spans (phases/collectives), not "
                         "per-message slices")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero when the drift guard fails")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)
    plan, result = _run_traced(args.M, args.N, args.K, args.nprocs, machine, grid)

    try:
        doc = write_chrome_trace(
            result, args.output,
            include_transport_events=not args.no_transport_events,
            label=f"ca3dmm {args.M}x{args.N}x{args.K} P={args.nprocs}",
        )
        print(f"wrote {args.output}: {len(doc['traceEvents'])} events, "
              f"{len(result.spans)} spans, makespan "
              f"{result.time * 1e3:.3f} ms (simulated)")
        if args.jsonl:
            n = write_jsonl(result, args.jsonl)
            print(f"wrote {args.jsonl}: {n} records")
    except OSError as exc:
        raise SystemExit(f"cannot write trace: {exc}")
    report = drift_report(result, plan, byte_tol=args.tol, machine=machine)
    print(report.format())
    _append_ledger(args, result, plan, "cli.trace")
    return 1 if (args.strict and not report.ok) else 0


def _critpath_main(argv: list[str]) -> int:
    ap = _obs_parser(
        "critpath",
        "Execute one CA3DMM multiplication and analyze the dependency "
        "chain that bounds its simulated makespan",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--timeline", action="store_true",
                    help="also render the per-rank timeline with the "
                         "binding chain highlighted (upper-case glyphs)")
    ap.add_argument("--max-segments", type=int, default=12,
                    help="chain segments shown in text mode")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)
    _plan, result = _run_traced(args.M, args.N, args.K, args.nprocs, machine, grid)
    report = critpath_report(result)
    _append_ledger(args, result, _plan, "cli.critpath")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format(max_segments=args.max_segments))
        if args.timeline:
            from .analysis.timeline import render_timeline

            print()
            print(render_timeline(result, highlight_critical=True))
    return 0 if report.path.complete else 1


def _perfdiff_main(argv: list[str]) -> int:
    from dataclasses import replace as _dc_replace

    from .bench.harness import TRACE_WORKLOADS, executed_workload
    from .obs.baseline import BaselineStore, PerfTolerance, capture_baseline

    ap = argparse.ArgumentParser(
        prog="python -m repro.cli perfdiff",
        description="Re-execute the fixed workload matrix and diff makespan, "
                    "per-phase critical time, and traffic against committed "
                    "perf baselines",
    )
    ap.add_argument("names", nargs="*",
                    help=f"workloads to check (default: all of "
                         f"{' '.join(sorted(TRACE_WORKLOADS))})")
    ap.add_argument("--baseline-dir", default="benchmarks/baselines",
                    help="directory of committed <name>.json baselines")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baselines from this run instead of comparing")
    ap.add_argument("--verbose", action="store_true",
                    help="list every compared metric, not only changes")
    ap.add_argument("--time-tol", type=float, default=None,
                    help="relative makespan tolerance (default 0.03)")
    ap.add_argument("--phase-tol", type=float, default=None,
                    help="relative per-phase critical-time tolerance (default 0.10)")
    ap.add_argument("--bytes-tol", type=float, default=None,
                    help="relative traffic tolerance (default 0.02)")
    ap.add_argument("--inject-latency", type=float, default=1.0, metavar="X",
                    help="scale the machine model's link latency/bandwidth "
                         "costs by X before running (gate self-test; 1.0 = off)")
    args = ap.parse_args(argv)

    names = args.names or sorted(TRACE_WORKLOADS)
    unknown = [n for n in names if n not in TRACE_WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {' '.join(unknown)}", file=sys.stderr)
        return 2
    tol = PerfTolerance()
    if args.time_tol is not None:
        tol = _dc_replace(tol, time_rel=args.time_tol)
    if args.phase_tol is not None:
        tol = _dc_replace(tol, phase_rel=args.phase_tol)
    if args.bytes_tol is not None:
        tol = _dc_replace(tol, bytes_rel=args.bytes_tol)
    machine = pace_phoenix_cpu("mpi")
    if args.inject_latency != 1.0:
        x = args.inject_latency
        machine = _dc_replace(
            machine,
            alpha=machine.alpha * x,
            nic_beta=machine.nic_beta * x,
            alpha_intra=machine.alpha_intra * x,
            beta_intra=machine.beta_intra * x,
        )

    store = BaselineStore(args.baseline_dir)
    diffs, missing = [], []
    for name in names:
        m, n, k, p = TRACE_WORKLOADS[name]
        _plan, result = executed_workload(name, machine=machine)
        doc = capture_baseline(
            result, name,
            workload={"m": m, "n": n, "k": k, "nprocs": p},
            machine_label="pace_phoenix_cpu(mpi)",
        )
        if args.update:
            path = store.save(name, doc)
            if not args.json:
                print(f"baseline refreshed: {path}")
            continue
        diff = store.compare(name, doc, tol)
        if diff is None:
            missing.append(name)
        else:
            diffs.append(diff)

    if args.update:
        return 0
    ok = not missing and all(d.ok for d in diffs)
    if args.json:
        print(json.dumps({
            "schema_version": 1,
            "baseline_dir": args.baseline_dir,
            "ok": ok,
            "missing": missing,
            "workloads": [d.to_dict() for d in diffs],
        }, indent=2))
    else:
        for d in diffs:
            print(d.format(verbose=args.verbose))
        for name in missing:
            print(f"{name}: NO BASELINE (run with --update and commit "
                  f"{store.path(name)})")
        print("perfdiff: " + ("OK" if ok else "FAIL")
              + f" ({len(diffs)} compared, {len(missing)} missing)")
    return 0 if ok else 1


def _faults_main(argv: list[str]) -> int:
    from .mpi.faults import FaultPlan, LinkFault

    ap = _obs_parser(
        "faults",
        "Execute one CA3DMM multiplication clean and under a deterministic "
        "fault plan; report the makespan delta, retry counters, result "
        "correctness, and the critical-path chain through the injected fault",
    )
    ap.add_argument("--plan", default=None, metavar="FILE",
                    help="fault-plan JSON (docs/FAULTS.md); default: a "
                         "seeded demo plan dropping the first Cannon-phase "
                         "message on every link")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the default demo plan (ignored with --plan)")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--timeline", action="store_true",
                    help="also render the faulted run's timeline "
                         "('!' marks injected intervals)")
    ap.add_argument("--max-segments", type=int, default=12,
                    help="chain segments shown in text mode")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)

    if args.plan:
        fault_plan = FaultPlan.load(args.plan)
    else:
        fault_plan = FaultPlan(
            seed=args.seed, links=(LinkFault(phase="cannon", drop_at=(0,)),)
        )

    m, n, k, p = args.M, args.N, args.K, args.nprocs
    plan = Ca3dmmPlan(m, n, k, p, grid=grid)

    def f(comm):
        eng = Ca3dmm(comm, m, n, k, grid=grid)
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 7))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 8))
        c = eng.multiply(a, b)
        full = c.to_global()
        return full if comm.rank == 0 else None

    clean = run_spmd(p, f, machine=machine, record_events=True)
    faulted = run_spmd(p, f, machine=machine, record_events=True, faults=fault_plan)
    correct = np.array_equal(clean.results[0], faulted.results[0])
    report = critpath_report(faulted)
    _append_ledger(args, faulted, plan, "cli.faults")
    fm = faulted.metrics
    delta = faulted.time - clean.time
    ok = correct and report.path.complete

    if args.json:
        doc = {
            "schema_version": 1,
            "problem": {"m": m, "n": n, "k": k, "nprocs": p},
            "plan": fault_plan.to_dict(),
            "clean_makespan_s": clean.time,
            "faulted_makespan_s": faulted.time,
            "delta_s": delta,
            "correct": correct,
            "total_retries": fm.total_retries,
            "total_timeouts": fm.total_timeouts,
            "injected_wait_s": fm.injected_wait_s,
            "critpath": report.to_dict(),
        }
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1

    print(f"fault plan        : {args.plan or 'demo (drop first cannon msg/link)'}"
          f" seed={fault_plan.seed}")
    print(f"clean makespan    : {clean.time * 1e3:.6f} ms")
    print(f"faulted makespan  : {faulted.time * 1e3:.6f} ms "
          f"(+{delta * 1e3:.6f} ms)")
    print(f"retries/timeouts  : {fm.total_retries}/{fm.total_timeouts}")
    print(f"injected wait     : {fm.injected_wait_s * 1e3:.6f} ms")
    print(f"result            : {'bit-identical to clean run' if correct else 'MISMATCH'}")
    print()
    print(report.format(max_segments=args.max_segments))
    if args.timeline:
        from .analysis.timeline import render_timeline

        print()
        print(render_timeline(faulted, highlight_critical=True))
    return 0 if ok else 1


def _recover_main(argv: list[str]) -> int:
    from .ft import resilient_multiply
    from .mpi.faults import FaultPlan, LinkFault, RankFault

    ap = _obs_parser(
        "recover",
        "Execute one CA3DMM multiplication under rank kills and/or payload "
        "corruption and demonstrate the fault-tolerance layer: ULFM-style "
        "shrink-replan-redistribute recovery and ABFT checksum "
        "detect-and-recompute (docs/RECOVERY.md)",
    )
    ap.add_argument("--plan", default=None, metavar="FILE",
                    help="fault-plan JSON; default: a demo plan built from "
                         "--kill-rank / --corrupt")
    ap.add_argument("--kill-rank", type=int, default=None, metavar="R",
                    help="permanently kill rank R at its first Cannon entry "
                         "(default demo when neither --corrupt nor --plan "
                         "is given: rank 1)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the first Cannon-phase message on every "
                         "link (caught by ABFT)")
    ap.add_argument("--corrupt-phase", default=None,
                    choices=("replicate", "cannon", "reduce", "redist"),
                    help="corrupt the first message of this algorithm phase "
                         "on every link instead (end-to-end ABFT/CRC "
                         "coverage; pick shapes whose plan has replicate "
                         "traffic (c>1) or reduce traffic (pk>1) when "
                         "targeting those phases, e.g. 64 64 64 -np 16)")
    ap.add_argument("--salvage-report", action="store_true",
                    help="print the per-(i,j) salvage table of the recovery "
                         "round: which C cells were reused from retained "
                         "ABFT-verified partials and which were recomputed")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the demo plan (ignored with --plan)")
    ap.add_argument("--max-recoveries", type=int, default=2,
                    help="shrink-replan rounds allowed before giving up")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--timeline", action="store_true",
                    help="also render the faulted run's timeline")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)
    m, n, k, p = args.M, args.N, args.K, args.nprocs

    if args.plan:
        fault_plan = FaultPlan.load(args.plan)
    else:
        kill = args.kill_rank
        if kill is None and not args.corrupt and args.corrupt_phase is None:
            kill = 1 if p > 1 else None
        ranks = ()
        if kill is not None:
            if not 0 <= kill < p:
                print(f"--kill-rank must be in [0, {p})", file=sys.stderr)
                return 2
            ranks = (RankFault(rank=kill, phase="cannon", occurrence=1,
                               kill=True),)
        if args.corrupt_phase is not None:
            links = (LinkFault(corrupt_phase=args.corrupt_phase,
                               corrupt_at=(0,)),)
        elif args.corrupt:
            links = (LinkFault(phase="cannon", corrupt_at=(0,)),)
        else:
            links = ()
        fault_plan = FaultPlan(seed=args.seed, ranks=ranks, links=links)

    kills = any(r.kill for r in fault_plan.ranks)
    corrupts = any(r.corrupt_at or r.corrupt_prob for r in fault_plan.links)
    abft = corrupts  # checksum protection on whenever corruption is scripted

    want_salvage = args.salvage_report

    def f(comm):
        a = DistMatrix.from_global(
            comm, BlockCol1D((m, k), comm.size), dense_random(m, k, seed=7)
        )
        b = DistMatrix.from_global(
            comm, BlockCol1D((k, n), comm.size), dense_random(k, n, seed=8)
        )
        salvage = [] if want_salvage else None
        c = resilient_multiply(
            comm, a, b,
            c_dist=lambda cm: BlockCol1D((m, n), cm.size),
            grid=grid, abft=abft, max_recoveries=args.max_recoveries,
            salvage_report=salvage,
        )
        return {"c": c.to_global(), "salvage": salvage}

    clean = run_spmd(p, f, machine=machine, record_events=True)
    try:
        faulted = run_spmd(
            p, f, machine=machine, record_events=True, faults=fault_plan
        )
    except RuntimeError as exc:
        print(f"recovery failed: {exc.__cause__ or exc}", file=sys.stderr)
        return 1

    got = next((r for r in faulted.results if r is not None), None)
    if got is None:
        print("recovery failed: no surviving rank returned a result",
              file=sys.stderr)
        return 1
    salvage = got["salvage"]
    got = got["c"]
    _append_ledger(args, faulted, Ca3dmmPlan(m, n, k, p, grid=grid),
                   "cli.recover")
    ref = dense_random(m, k, seed=7) @ dense_random(k, n, seed=8)
    scale = max(1.0, float(np.abs(ref).max()))
    max_err = float(np.abs(got - ref).max())
    numeric_ok = max_err <= 1e-9 * scale
    # Corruption-only runs re-execute the identical schedule, so the
    # recovered C must match the clean run bit for bit.  A rank loss
    # re-plans the grid for P' ranks (different summation order), so
    # there only the numeric check applies.
    bit_identical = None
    if corrupts and not kills:
        bit_identical = all(
            np.array_equal(x["c"], y["c"])
            for x, y in zip(faulted.results, clean.results)
        )
    fm = faulted.metrics
    ok = numeric_ok
    if kills:
        ok = ok and fm.recoveries >= 1 and bool(faulted.failed_ranks)
    if corrupts and not kills:
        # With kills in the same plan, detection may legitimately stay
        # zero: a corrupted attempt can be discarded wholesale by the
        # rank-failure recovery before its checksums are ever read.
        ok = ok and fm.corruptions_detected >= 1
    if bit_identical is not None:
        ok = ok and bit_identical

    if args.json:
        doc = {
            "schema_version": 1,
            "problem": {"m": m, "n": n, "k": k, "nprocs": p},
            "plan": fault_plan.to_dict(),
            "abft": abft,
            "max_recoveries": args.max_recoveries,
            "clean_makespan_s": clean.time,
            "faulted_makespan_s": faulted.time,
            "failed_ranks": faulted.failed_ranks,
            "recoveries": fm.recoveries,
            "corruptions_injected": fm.corruptions_injected,
            "corruptions_detected": fm.corruptions_detected,
            "corruptions_injected_by_phase": dict(
                sorted(fm.corruptions_injected_by_phase.items())
            ),
            "corruptions_detected_by_phase": dict(
                sorted(fm.corruptions_detected_by_phase.items())
            ),
            "recomputed_flops": fm.recomputed_flops,
            "reused_flops": fm.reused_flops,
            "max_abs_error": max_err,
            "tolerance": 1e-9 * scale,
            "bit_identical_to_clean": bit_identical,
            "correct": ok,
        }
        if salvage is not None:
            doc["salvage"] = [
                {**row, "rect": list(row["rect"])} for row in salvage
            ]
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1

    print(f"fault plan        : "
          f"{args.plan or 'demo'} seed={fault_plan.seed} "
          f"({len(fault_plan.ranks)} rank rule(s), "
          f"{len(fault_plan.links)} link rule(s), abft={'on' if abft else 'off'})")
    print(f"clean makespan    : {clean.time * 1e3:.6f} ms")
    print(f"faulted makespan  : {faulted.time * 1e3:.6f} ms "
          f"(+{(faulted.time - clean.time) * 1e3:.6f} ms)")
    print(f"failed ranks      : {faulted.failed_ranks or 'none'}")
    print(f"recoveries        : {fm.recoveries}")
    print(f"corruption (ABFT) : {fm.corruptions_injected} injected, "
          f"{fm.corruptions_detected} detected, "
          f"{fm.recomputed_flops:.0f} flops recomputed")
    for ph in sorted(set(fm.corruptions_injected_by_phase)
                     | set(fm.corruptions_detected_by_phase)):
        print(f"    {ph:<14}: "
              f"{fm.corruptions_injected_by_phase.get(ph, 0)} injected, "
              f"{fm.corruptions_detected_by_phase.get(ph, 0)} detected")
    print(f"max |C - ref|     : {max_err:.3e} (tol {1e-9 * scale:.3e})")
    if bit_identical is not None:
        print(f"vs clean run      : "
              f"{'bit-identical' if bit_identical else 'MISMATCH'}")
    if salvage is not None:
        if not salvage:
            print("salvage           : none "
                  "(no recovery round reused partial results)")
        else:
            reused = [r for r in salvage if r["status"] == "reused"]
            redone = [r for r in salvage if r["status"] == "recomputed"]
            print(f"salvage           : {len(reused)}/{len(salvage)} "
                  f"(i,j,k)-cells reused "
                  f"({sum(r['flops'] for r in reused):.0f} flops), "
                  f"{len(redone)} recomputed "
                  f"({sum(r['flops'] for r in redone):.0f} flops)")
            print("    ik   i   j  rect (r0,r1,c0,c1)      flops  status")
            for row in salvage:
                r0, r1, c0, c1 = row["rect"]
                print(f"    {row['ik']:>2} {row['i']:>3} {row['j']:>3}  "
                      f"({r0:>4},{r1:>4},{c0:>4},{c1:>4}) "
                      f"{row['flops']:>10.0f}  {row['status']}")
    print(f"result            : {'recovered OK' if ok else 'FAILED'}")
    if args.timeline:
        from .analysis.timeline import render_timeline

        print()
        print(render_timeline(faulted, highlight_critical=True))
    return 0 if ok else 1


def _checkpoint_main(argv: list[str]) -> int:
    from .apps.pipeline import matmul_chain, matmul_chain_reference
    from .ckpt import CheckpointPolicy, DirStore, MemoryStore
    from .mpi.faults import FaultPlan, RankFault

    ap = _obs_parser(
        "checkpoint",
        "Run a multi-call matmul pipeline (X <- op(A) @ X, alternating op) "
        "under checkpoint/restart (docs/RECOVERY.md): kill a rank "
        "mid-pipeline, restart from the newest checkpoint on the surviving "
        "ranks, and verify the final iterate against numpy.  Exits 0 only "
        "when the faulted pipeline recovers, matches the serial reference, "
        "and partial-result reuse saved work (reused_flops > 0, recomputed "
        "< one full call).",
    )
    ap.add_argument("--calls", type=int, default=4,
                    help="pipeline length (matmul calls)")
    ap.add_argument("--ckpt-every", type=int, default=1, metavar="N",
                    help="checkpoint after every N calls")
    ap.add_argument("--kill-rank", type=int, default=1, metavar="R",
                    help="rank to kill (permanently) mid-pipeline")
    ap.add_argument("--kill-call", type=int, default=2, metavar="C",
                    help="0-based call index whose Cannon stage kills the rank")
    ap.add_argument("--store", choices=("mem", "dir"), default="mem",
                    help="checkpoint store backend: in-memory disk or a "
                         "real directory of .npy tiles")
    ap.add_argument("--store-dir", default=None, metavar="PATH",
                    help="directory for --store dir (default: a temp dir)")
    ap.add_argument("--escaped", action="store_true",
                    help="use non-resilient steps so the failure escapes to "
                         "the pipeline restart path instead of being healed "
                         "in-call (no partial-result reuse)")
    ap.add_argument("--max-restarts", type=int, default=2,
                    help="pipeline restarts allowed before giving up")
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    args = ap.parse_args(argv)
    machine, _grid = _obs_common(args)
    m, n, k, p = args.M, args.N, args.K, args.nprocs
    if not 0 <= args.kill_rank < p:
        print(f"--kill-rank must be in [0, {p})", file=sys.stderr)
        return 2
    if not 0 <= args.kill_call < args.calls:
        print(f"--kill-call must be in [0, {args.calls})", file=sys.stderr)
        return 2

    fault_plan = FaultPlan(ranks=(RankFault(
        rank=args.kill_rank, phase="cannon",
        occurrence=args.kill_call + 1, kill=True,
    ),))
    policy = CheckpointPolicy(every_calls=args.ckpt_every)
    resilient = not args.escaped

    import tempfile

    tmp = None
    if args.store == "dir" and args.store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ckpt-")

    def make_store():
        if args.store == "mem":
            return MemoryStore()
        root = args.store_dir or tmp.name
        import os
        import uuid

        return DirStore(os.path.join(root, uuid.uuid4().hex[:8]))

    def run(faults):
        store = make_store()

        def f(comm):
            res = matmul_chain(
                comm, m, n, k, calls=args.calls,
                store=store, policy=policy, resilient=resilient,
                max_restarts=args.max_restarts,
            )
            return {
                "x": res.state["X"].to_global(),
                "restarts": res.restarts,
                "checkpoints": res.checkpoints,
            }

        result = run_spmd(p, f, machine=machine, record_events=True,
                          faults=faults)
        return result, store

    try:
        clean, clean_store = run(None)
        try:
            faulted, faulted_store = run(fault_plan)
        except RuntimeError as exc:
            print(f"checkpoint/restart failed: {exc.__cause__ or exc}",
                  file=sys.stderr)
            return 1
        ckpt_kinds = [man.get("kind", "full")
                      for man in faulted_store.manifests()]
        bytes_written = faulted_store.bytes_written
    finally:
        if tmp is not None:
            tmp.cleanup()

    got = next((r for r in faulted.results if r is not None), None)
    if got is None:
        print("checkpoint/restart failed: no surviving rank returned",
              file=sys.stderr)
        return 1
    _append_ledger(args, faulted, Ca3dmmPlan(m, n, k, p),
                   "cli.checkpoint", nruns=args.calls)
    ref = matmul_chain_reference(m, n, k, calls=args.calls)
    scale = max(1.0, float(np.abs(ref).max()))
    max_err = float(np.abs(got["x"] - ref).max())
    numeric_ok = max_err <= 1e-8 * scale

    fm = faulted.metrics
    one_call = 2.0 * m * n * k
    recovered = got["restarts"] >= 1 or fm.recoveries >= 1
    reuse_ok = fm.reused_flops > 0 and fm.recomputed_flops < one_call
    ok = (
        numeric_ok and recovered and bool(faulted.failed_ranks)
        and (reuse_ok or args.escaped)
    )
    if args.escaped:
        # No in-call healing: the pipeline restart preserves checkpointed
        # calls instead (counted in the same reused_flops metric).
        ok = ok and fm.reused_flops > 0

    if args.json:
        doc = {
            "schema_version": 1,
            "problem": {"m": m, "n": n, "k": k, "nprocs": p},
            "calls": args.calls,
            "ckpt_every": args.ckpt_every,
            "store": args.store,
            "resilient_steps": resilient,
            "plan": fault_plan.to_dict(),
            "clean_makespan_s": clean.time,
            "faulted_makespan_s": faulted.time,
            "failed_ranks": faulted.failed_ranks,
            "checkpoints": got["checkpoints"],
            "checkpoint_kinds": ckpt_kinds,
            "store_bytes_written": bytes_written,
            "pipeline_restarts": got["restarts"],
            "recoveries": fm.recoveries,
            "reused_flops": fm.reused_flops,
            "recomputed_flops": fm.recomputed_flops,
            "one_call_flops": one_call,
            "max_abs_error": max_err,
            "tolerance": 1e-8 * scale,
            "correct": ok,
        }
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1

    mode = "escaped (pipeline restart)" if args.escaped else "in-call (partial reuse)"
    print(f"pipeline          : {args.calls} calls of {m}x{n}x{k} on {p} ranks, "
          f"checkpoint every {args.ckpt_every}")
    print(f"fault             : kill rank {args.kill_rank} in call "
          f"{args.kill_call}'s cannon stage; recovery mode: {mode}")
    print(f"clean makespan    : {clean.time * 1e3:.6f} ms")
    print(f"faulted makespan  : {faulted.time * 1e3:.6f} ms "
          f"(+{(faulted.time - clean.time) * 1e3:.6f} ms)")
    print(f"failed ranks      : {faulted.failed_ranks or 'none'}")
    print(f"checkpoints       : {len(got['checkpoints'])} "
          f"({', '.join(got['checkpoints'][:3])}"
          f"{', ...' if len(got['checkpoints']) > 3 else ''})")
    print(f"checkpoint kinds  : "
          f"{ckpt_kinds.count('full')} full + "
          f"{ckpt_kinds.count('delta')} delta, "
          f"{bytes_written} store bytes written")
    print(f"restarts/recoveries: {got['restarts']}/{fm.recoveries}")
    print(f"flops accounting  : {fm.reused_flops:.0f} reused, "
          f"{fm.recomputed_flops:.0f} recomputed "
          f"(one full call = {one_call:.0f})")
    print(f"max |X - ref|     : {max_err:.3e} (tol {1e-8 * scale:.3e})")
    print(f"result            : {'recovered OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _stats_main(argv: list[str]) -> int:
    ap = _obs_parser(
        "stats", "Execute one CA3DMM multiplication and print its metrics"
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero when the drift guard fails")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)
    plan, result = _run_traced(args.M, args.N, args.K, args.nprocs, machine, grid)
    metrics = snapshot_run(result, plan)
    report = drift_report(result, plan, byte_tol=args.tol, machine=machine)
    analytic_q = theoretical_metrics(plan).q_words
    q_over_analytic = metrics.q_words / analytic_q if analytic_q > 0 else None
    _append_ledger(args, result, plan, "cli.stats")
    if args.json:
        print(json.dumps({
            "metrics": metrics.to_dict(),
            "drift": report.to_dict(),
            # transport in-flight / self-reported peak, NOT the resident
            # footprint (that is resident_peak_bytes)
            "transport_inflight_peak_bytes": max(
                t.peak_live_bytes for t in result.traces),
            "resident_peak_bytes": max(
                t.resident_peak_bytes for t in result.traces),
            "mem_by_purpose_words": dict(metrics.mem_by_purpose),
            "overlap_by_phase": dict(metrics.overlap_by_phase),
            "q_over_analytic": q_over_analytic,
        }, indent=2))
    else:
        print(format_metrics(metrics))
        if q_over_analytic is not None:
            print(f"  measured/analytic Q : {q_over_analytic:.4f}")
        print(report.format())
    return 1 if (args.strict and not report.ok) else 0


def _audit_main(argv: list[str]) -> int:
    from .obs.audit import audit_run

    ap = _obs_parser(
        "audit",
        "Execute one CA3DMM multiplication and audit its measured "
        "bytes-on-the-wire against the eq. (4) schedule, the α-β "
        "collective accounting, and the red-blue pebbling lower bound "
        "(2mnk/(P√M) with measured M)",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero when measured traffic leaves the "
                         "tolerance band")
    _gate_args(ap, "measured optimality ratios", "audit")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)
    plan, result = _run_traced(args.M, args.N, args.K, args.nprocs, machine, grid)
    report = audit_run(result, plan, machine=machine, byte_tol=args.tol)
    _append_ledger(args, result, plan, "cli.audit", audit_ok=report.ok)

    values = {
        "q_over_eq9": report.q_over_eq9,
        "q_over_pebbling": report.q_over_pebbling,
        "max_rel_err": report.max_rel_err,
    }
    if not _print_gated(args, report.to_dict, report.format, ("audit", "ratio", 16),
                        values, gated=("q_over_eq9", "q_over_pebbling")):
        return 1
    return 1 if (args.strict and not report.ok) else 0


def _memprof_main(argv: list[str]) -> int:
    from .obs.memtrace import memprof_run

    ap = _obs_parser(
        "memprof",
        "Execute one CA3DMM multiplication and profile each rank's "
        "measured resident memory (tagged allocation spans) against the "
        "eq. (11) footprint prediction and any memory_limit_words cap",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--mem-tol", type=float, default=0.10,
                    help="relative headroom allowed over eq. (11) / the cap")
    ap.add_argument("--top", type=int, default=3,
                    help="top-offender ranks listed in text mode")
    ap.add_argument("--memory-limit", type=float, default=None,
                    metavar="WORDS",
                    help="plan under a Section V memory cap (words/process)")
    _gate_args(ap, "the measured resident peak", "memory")
    args = ap.parse_args(argv)
    machine, grid = _obs_common(args)
    plan, result = _run_traced(args.M, args.N, args.K, args.nprocs, machine,
                               grid, memory_limit_words=args.memory_limit)
    report = memprof_run(result, plan, tol=args.mem_tol)
    _append_ledger(args, result, plan, "cli.memprof")

    values = {
        "eq11_words": report.eq11_words,
        "resident_peak_words": report.resident_peak_words,
        "peak_over_eq11": report.peak_over_eq11,
    }
    if not _print_gated(args, report.to_dict, lambda: report.format(top=args.top),
                        ("memory", "quantity", 20), values,
                        gated=("resident_peak_words", "peak_over_eq11")):
        return 1
    return 0 if report.ok else 1


def _ledger_main(argv: list[str]) -> int:
    from .bench.report import format_ledger
    from .obs.ledger import DEFAULT_LEDGER_PATH, Ledger, ledger_path_from_env

    ap = argparse.ArgumentParser(
        prog="python -m repro.cli ledger",
        description="Render and query the append-only run ledger "
                    "(see docs/OBSERVABILITY.md)",
    )
    ap.add_argument("--path", default=None,
                    help=f"ledger file (default: $REPRO_LEDGER or "
                         f"{DEFAULT_LEDGER_PATH})")
    ap.add_argument("--kind", default=None,
                    help="only records from this producer (e.g. cli.audit)")
    ap.add_argument("--shape", type=int, nargs=3, metavar=("M", "N", "K"),
                    help="only records for this problem shape")
    ap.add_argument("-np", "--nprocs", type=int, default=None,
                    help="only records for this world size")
    ap.add_argument("--last", type=int, default=None, metavar="N",
                    help="only the newest N matching records")
    ap.add_argument("--json", action="store_true",
                    help="emit the matching records as a JSON array")
    args = ap.parse_args(argv)

    path = args.path or ledger_path_from_env() or DEFAULT_LEDGER_PATH
    ledger = Ledger(path)
    shape = args.shape or (None, None, None)
    records = ledger.query(kind=args.kind, m=shape[0], n=shape[1], k=shape[2],
                           nprocs=args.nprocs, last=args.last)
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    if not records:
        print(f"no matching records in {ledger.path}")
        return 0
    print(format_ledger(
        records,
        title=f"run ledger: {ledger.path} ({len(records)} record(s))",
    ))
    return 0


_SUBCOMMANDS = {
    "trace": _trace_main,
    "stats": _stats_main,
    "audit": _audit_main,
    "memprof": _memprof_main,
    "ledger": _ledger_main,
    "critpath": _critpath_main,
    "perfdiff": _perfdiff_main,
    "faults": _faults_main,
    "recover": _recover_main,
    "checkpoint": _checkpoint_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        try:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        except GateError as exc:
            print(f"{argv[0]}: {exc}", file=sys.stderr)
            return 2
    return _example_main(argv)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
