"""The artifact's example program (``example_AB``) plus ten subcommands.

The SC22 artifact ships ``example_AB.exe``, run as::

    mpirun -np <nprocs> ./example_AB.exe <M> <N> <K> <transA> <transB>
        <validation> <ntest> <dtype> [mp np kp]

This module reproduces it on the virtual runtime (``-np`` becomes a
flag, ``dtype`` 0/1 selects the CPU or GPU machine model) and prints the
same report structure: the partition info block, per-phase timings over
``ntest`` runs, and a correctness check against the serial product.
The grammar is one parser tree::

    python -m repro.cli [-np P] M N K [transA transB validation ntest dtype [mp np kp]]
    python -m repro.cli <subcommand> [M N K -np P ...]

A first argument that is a word names a subcommand; anything else is
``example_AB``'s.  What each subcommand does is written once, on its
subparser: see ``python -m repro.cli --help`` and ``<subcommand> --help``.
Every run is set up by :func:`repro.bench.harness.executed_workload`.

Run as ``python -m repro.cli ...`` or via the ``ca3dmm-example``
console script.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import uuid

import numpy as np

from .analysis.timeline import render_timeline
from .analysis.verify import eq9_lower_bound, theoretical_metrics
from .bench.harness import (
    TRACE_WORKLOADS,
    baseline_artifact,
    clean_vs_faulted,
    executed_chain,
    executed_workload,
    workload_baseline,
    workload_operands,
)
from .bench.report import format_ledger
from .core.ca3dmm import Ca3dmm, ca3dmm_matmul
from .core.plan import Ca3dmmPlan
from .grid.optimizer import GridSpec
from .layout.distributions import BlockCol1D
from .machine.model import pace_phoenix_cpu, pace_phoenix_gpu
from .mpi.faults import FaultPlan, LinkFault, RankFault
from .obs.audit import audit_run
from .obs.baseline import (
    PERF_RULES,
    BaselineStore,
    GateError,
    check_gate,
    gate_rule,
    perf_metrics,
    relative_change,
    write_gate,
)
from .obs.critpath import critpath_report
from .obs.export import (
    validate_run_json,
    write_chrome_trace,
    write_jsonl,
)
from .obs.ledger import (
    DEFAULT_LEDGER_PATH,
    Ledger,
    ledger_path_from_env,
    ledger_record,
)
from .obs.memtrace import memprof_run
from .obs.metrics import format_metrics, snapshot_run

#: CLI op-code spellings accepted for transA/transB.
_OP_CODES = {"0": "N", "1": "T", "N": "N", "T": "T", "C": "C"}

#: ``dense_random`` seeds of A and B for every run this module sets up.
_SEEDS = (7, 8)


class _InputError(Exception):
    """An input the run cannot start from: one stderr line, exit 2."""


def _op_arg(value: str) -> str:
    code = _OP_CODES.get(str(value).upper())
    if code is None:
        raise argparse.ArgumentTypeError(
            f"invalid op code {value!r}; expected 0, 1, N, T, or C"
        )
    return code


def _count_arg(value: str, low: int = 0) -> int:
    try:
        count = int(value)
    except ValueError:
        count = low - 1
    if count < low:
        raise argparse.ArgumentTypeError(f"expected a count >= {low}, got {value!r}")
    return count


def _positive_arg(value: str) -> int:
    return _count_arg(value, 1)


def _load_plan(path: str) -> FaultPlan:
    """The fault plan at ``path``; one unreadable or refused is an input error."""
    try:
        return FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot use fault plan {path}: {exc}") from None


def _in_range(flag: str, value: int, stop: int) -> None:
    if not 0 <= value < stop:
        raise _InputError(f"{flag} must be in [0, {stop})")


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
def _example_main(args) -> int:
    m, n, k, p = args.M, args.N, args.K, args.nprocs
    machine = pace_phoenix_gpu() if args.dtype else pace_phoenix_cpu("mpi")
    dims = (args.mp, args.np_, args.kp)
    grid = _forced_grid(args, dims if all(dims) else None)
    transa, transb = args.transA != "N", args.transB != "N"
    nruns = max(1, args.ntest)

    def body(comm, a, b):
        eng = Ca3dmm(comm, m, n, k, grid=grid)
        out_dist = BlockCol1D((m, n), comm.size)
        timings = []
        c = None
        for _ in range(nruns):
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
        peak = comm.transport.trace(comm.world_rank).resident_peak_bytes
        return timings, errors, peak

    plan, result = executed_workload(
        (m, n, k, p), machine, grid=grid, layout=BlockCol1D,
        trans=(transa, transb), seeds=_SEEDS, body=body, record_events=args.json,
    )
    metrics = theoretical_metrics(plan)
    part = _partition_doc(args, plan, metrics)

    if not args.json:
        print(f"Test problem size m * n * k : {m} * {n} * {k}")
        print(f"Transpose A / B             : {int(transa)} / {int(transb)}")
        print(f"Number of tests             : {args.ntest}")
        print(f"Check result correctness    : {args.validation}")
        print(f"Device type                 : {args.dtype}")
        print("CA3DMM partition info:")
        print(f"Process grid mp * np * kp   : {plan.pm} * {plan.pn} * {plan.pk}")
        wc = part["work_cuboid"]
        print(f"Work cuboid  mb * nb * kb   : {wc[0]} * {wc[1]} * {wc[2]}")
        print(f"Process utilization         : {part['utilization_pct']:.2f} %")
        print(f"Comm. volume / lower bound  : {part['q_over_lower_bound']:.2f}")

    timings, errors, peak = result.results[0]
    _append_ledger(args, result, plan, "cli.example", nruns=nruns)

    def avg(key: str) -> float:
        return 1e3 * sum(t.get(key, 0.0) for t in timings) / len(timings)

    if args.json:
        phase_names = sorted({name for t in timings for name in t})
        doc = {
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
            "audit": audit_run(result, plan, nruns=nruns).to_dict(),
        }
        _print_document(doc, validate_run_json)
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


# ------------------------------------------------- what subcommands share -- #
def _append_ledger(args, result, plan, kind: str, nruns: int = 1,
                   audit_ok: bool | None = None) -> None:
    """Append one run record when ``--ledger`` / ``REPRO_LEDGER`` asks for it."""
    if args.ledger is not None:
        target = args.ledger or DEFAULT_LEDGER_PATH
    else:
        target = ledger_path_from_env()
    if target is None:
        return
    rec = ledger_record(result, plan, kind, nruns=nruns, audit_ok=audit_ok)
    ledger = Ledger(target)
    ledger.append(rec)
    if not getattr(args, "json", False):
        print(f"ledger: appended {rec['run_id'][:12]} ({kind}) to {ledger.path}")


def _shape(args) -> tuple[int, int, int, int]:
    return args.M, args.N, args.K, args.nprocs


def _forced_grid(args, dims) -> GridSpec | None:
    """The grid ``dims`` (pm, pn, pk) forces, or None; one the plan would
    refuse is an input error, reported before anything runs."""
    if dims is None:
        return None
    try:
        grid = GridSpec(*dims, nprocs=args.nprocs)
        Ca3dmmPlan(args.M, args.N, args.K, args.nprocs, grid=grid)
    except ValueError as exc:
        raise _InputError(exc) from None
    return grid


def _obs_common(args):
    """The machine model and forced grid a subcommand's flags select."""
    machine = pace_phoenix_gpu() if args.dtype else pace_phoenix_cpu("mpi")
    if args.overlap:
        machine = machine.with_overlap(args.overlap)
    return machine, _forced_grid(args, args.grid)


def _run(args, memory_limit_words: float | None = None):
    """One native-layout multiplication of ``M N K -np P`` with event
    recording; returns ``(plan, result)``."""
    machine, grid = _obs_common(args)
    return executed_workload(
        _shape(args), machine, grid=grid, seeds=_SEEDS,
        memory_limit_words=memory_limit_words,
    )


def _print_makespans(pair) -> None:
    print(f"clean makespan    : {pair.clean.time * 1e3:.6f} ms")
    print(f"faulted makespan  : {pair.faulted.time * 1e3:.6f} ms "
          f"(+{pair.delta_s * 1e3:.6f} ms)")


def _print_timeline(args, result) -> None:
    if args.timeline:
        print()
        print(render_timeline(result, highlight_critical=True))


def _print_document(doc: dict, validate=None) -> None:
    """Print one ``--json`` document: ``schema_version`` 1, then ``doc``'s
    keys in order (checked by ``validate`` first, when given)."""
    doc = {"schema_version": 1, **doc}
    if validate is not None:
        validate(doc)
    print(json.dumps(doc, indent=2))


def _print_checks(gate: dict, tol, label: str, width: int, everything: bool = True) -> None:
    """One line per check of a :func:`repro.obs.baseline.check_gate`
    block, judged by its rule in ``tol`` (``everything`` False: only the
    checks that regressed or improved)."""
    for c in gate["checks"]:
        rule = gate_rule(tol, c[label])
        verdict = rule.verdict(c["baseline"], c["measured"])
        if everything or verdict != "ok":
            print(f"  gate {c[label]:<{width}}: measured {c['measured']:.6g} "
                  f"vs baseline {c['baseline']:.6g} "
                  f"({relative_change(c['baseline'], c['measured'])}, {rule})  {verdict}")


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
            _print_checks(gate, args.gate_tol, label, width)
            print(f"{name} gate: " + ("OK" if gate["ok"] else "FAIL"))
    return gate is None or gate["ok"]


# ------------------------------------------------------------ subcommands -- #
def _trace_main(args) -> int:
    plan, result = _run(args)
    try:
        doc = write_chrome_trace(
            result, args.output,
            label=f"ca3dmm {args.M}x{args.N}x{args.K} P={args.nprocs}",
        )
        print(f"wrote {args.output}: {len(doc['traceEvents'])} events, "
              f"{len(result.spans)} spans, makespan "
              f"{result.time * 1e3:.3f} ms (simulated)")
        if args.jsonl:
            n = write_jsonl(result, args.jsonl)
            print(f"wrote {args.jsonl}: {n} records")
    except OSError as exc:
        raise _InputError(f"cannot write trace: {exc}") from None
    report = audit_run(result, plan)
    print(report.format())
    _append_ledger(args, result, plan, "cli.trace")
    return 1 if (args.strict and not report.ok) else 0


def _critpath_main(args) -> int:
    plan, result = _run(args)
    report = critpath_report(result)
    _append_ledger(args, result, plan, "cli.critpath")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
        _print_timeline(args, result)
    return 0 if report.path.complete else 1


def _perfdiff_main(args) -> int:
    names = args.names or sorted(TRACE_WORKLOADS)
    unknown = [n for n in names if n not in TRACE_WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {' '.join(unknown)}", file=sys.stderr)
        return 2
    if args.update:
        for name in names:
            path = baseline_artifact(name, args.baseline_dir)
            if not args.json:
                print(f"baseline refreshed: {path}")
        return 0
    store = BaselineStore(args.baseline_dir)
    gates, missing = {}, []
    for name in names:
        base = store.load(name)
        if base is None:
            missing.append(name)
            continue
        current = workload_baseline(name)
        gates[name] = check_gate(store.path(name), current["workload"],
                                 perf_metrics(base, current), PERF_RULES, "metric")

    ok = not missing and all(g["ok"] for g in gates.values())
    if args.json:
        _print_document({
            "baseline_dir": args.baseline_dir,
            "ok": ok,
            "missing": missing,
            "workloads": [{"name": name, **gate} for name, gate in gates.items()],
        })
    else:
        for name, gate in gates.items():
            print(f"{name}: " + ("OK" if gate["ok"] else "REGRESSION"))
            _print_checks(gate, PERF_RULES, "metric", 28, everything=args.verbose)
        for name in missing:
            print(f"{name}: NO BASELINE (run with --update and commit "
                  f"{store.path(name)})")
        print("perfdiff: " + ("OK" if ok else "FAIL")
              + f" ({len(gates)} compared, {len(missing)} missing)")
    return 0 if ok else 1


def _faults_main(args) -> int:
    machine, grid = _obs_common(args)
    if args.plan:
        fault_plan = _load_plan(args.plan)
    else:
        fault_plan = FaultPlan(
            seed=args.seed, links=(LinkFault(phase="cannon", drop_at=(0,)),)
        )

    def body(comm, a, b):
        full = ca3dmm_matmul(a, b, grid=grid).to_global()
        return (full,) if comm.rank == 0 else None

    pair = clean_vs_faulted(
        lambda faults: executed_workload(_shape(args), machine, faults, grid=grid,
                                         seeds=_SEEDS, body=body),
        fault_plan,
    )
    if pair.failure:
        print(f"faulted run failed: {pair.failure}", file=sys.stderr)
        return 1
    clean, faulted = pair.clean, pair.faulted
    correct = np.array_equal(clean.results[0][0], pair.got[0])
    report = critpath_report(faulted)
    _append_ledger(args, faulted, pair.plan, "cli.faults")
    fm = faulted.metrics
    ok = correct and report.path.complete

    if args.json:
        m, n, k, p = _shape(args)
        doc = {
            "problem": {"m": m, "n": n, "k": k, "nprocs": p},
            "plan": fault_plan.to_dict(),
            "clean_makespan_s": clean.time,
            "faulted_makespan_s": faulted.time,
            "delta_s": pair.delta_s,
            "correct": correct,
            "total_retries": fm.total_retries,
            "total_timeouts": fm.total_timeouts,
            "injected_wait_s": fm.injected_wait_s,
            "critpath": report.to_dict(),
        }
        _print_document(doc)
        return 0 if ok else 1

    print(f"fault plan        : {args.plan or 'demo (drop first cannon msg/link)'}"
          f" seed={fault_plan.seed}")
    _print_makespans(pair)
    print(f"retries/timeouts  : {fm.total_retries}/{fm.total_timeouts}")
    print(f"injected wait     : {fm.injected_wait_s * 1e3:.6f} ms")
    print(f"result            : {'bit-identical to clean run' if correct else 'MISMATCH'}")
    print()
    print(report.format())
    _print_timeline(args, faulted)
    return 0 if ok else 1


def _recover_main(args) -> int:
    from .ft import resilient_multiply

    machine, grid = _obs_common(args)
    m, n, k, p = _shape(args)

    if args.plan:
        fault_plan = _load_plan(args.plan)
    else:
        kill = args.kill_rank
        if kill is None and not args.corrupt and args.corrupt_phase is None:
            kill = 1 if p > 1 else None
        ranks = ()
        if kill is not None:
            _in_range("--kill-rank", kill, p)
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

    def body(comm, a, b):
        salvage = [] if args.salvage_report else None
        c = resilient_multiply(
            comm, a, b,
            c_dist=lambda cm: BlockCol1D((m, n), cm.size),
            grid=grid, abft=abft, max_recoveries=args.max_recoveries,
            salvage_report=salvage,
        )
        return c.to_global(), salvage

    pair = clean_vs_faulted(
        lambda faults: executed_workload((m, n, k, p), machine, faults, grid=grid,
                                         layout=BlockCol1D, seeds=_SEEDS, body=body),
        fault_plan, reference=np.matmul(*workload_operands((m, n, k, p), _SEEDS)),
    )
    if pair.failure:
        print(f"recovery failed: {pair.failure}", file=sys.stderr)
        return 1
    clean, faulted = pair.clean, pair.faulted
    salvage = pair.got[1]
    _append_ledger(args, faulted, pair.plan, "cli.recover")
    # Corruption-only runs re-execute the identical schedule, so the
    # recovered C must match the clean run bit for bit.  A rank loss
    # re-plans the grid for P' ranks (different summation order), so
    # there only the numeric check applies.
    bit_identical = None
    if corrupts and not kills:
        bit_identical = all(
            np.array_equal(x[0], y[0])
            for x, y in zip(faulted.results, clean.results)
        )
    fm = faulted.metrics
    ok = pair.numeric_ok
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
            "max_abs_error": pair.max_err,
            "tolerance": pair.tolerance,
            "bit_identical_to_clean": bit_identical,
            "correct": ok,
        }
        if salvage is not None:
            doc["salvage"] = [
                {**row, "rect": list(row["rect"])} for row in salvage
            ]
        _print_document(doc)
        return 0 if ok else 1

    print(f"fault plan        : "
          f"{args.plan or 'demo'} seed={fault_plan.seed} "
          f"({len(fault_plan.ranks)} rank rule(s), "
          f"{len(fault_plan.links)} link rule(s), abft={'on' if abft else 'off'})")
    _print_makespans(pair)
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
    print(f"max |C - ref|     : {pair.max_err:.3e} (tol {pair.tolerance:.3e})")
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
    _print_timeline(args, faulted)
    return 0 if ok else 1


def _checkpoint_main(args) -> int:
    from .apps.pipeline import matmul_chain_reference
    from .ckpt import CheckpointPolicy, DirStore, MemoryStore

    machine, _grid = _obs_common(args)
    m, n, k, p = _shape(args)
    _in_range("--kill-rank", args.kill_rank, p)
    _in_range("--kill-call", args.kill_call, args.calls)

    fault_plan = FaultPlan(ranks=(RankFault(
        rank=args.kill_rank, phase="cannon",
        occurrence=args.kill_call + 1, kill=True,
    ),))
    policy = CheckpointPolicy(every_calls=args.ckpt_every)
    resilient = not args.escaped

    with contextlib.ExitStack() as cleanup:
        root = args.store_dir
        if args.store == "dir" and root is None:
            root = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-ckpt-"))
        stores = []

        def run(faults):
            stores.append(MemoryStore() if args.store == "mem" else
                          DirStore(os.path.join(root, uuid.uuid4().hex[:8])))
            return executed_chain(
                (m, n, k, p), machine, faults, calls=args.calls,
                store=stores[-1], policy=policy, resilient=resilient,
                max_restarts=args.max_restarts,
            )

        pair = clean_vs_faulted(
            run, fault_plan, matmul_chain_reference(m, n, k, calls=args.calls),
            tol=1e-8,
        )
        if pair.failure:
            print(f"checkpoint/restart failed: {pair.failure}", file=sys.stderr)
            return 1
        ckpt_kinds = [man.get("kind", "full") for man in stores[-1].manifests()]
        bytes_written = stores[-1].bytes_written

    clean, faulted = pair.clean, pair.faulted
    _x, restarts, checkpoints = pair.got
    _append_ledger(args, faulted, pair.plan, "cli.checkpoint", nruns=args.calls)

    fm = faulted.metrics
    one_call = 2.0 * m * n * k
    recovered = restarts >= 1 or fm.recoveries >= 1
    reuse_ok = fm.reused_flops > 0 and fm.recomputed_flops < one_call
    ok = (
        pair.numeric_ok and recovered and bool(faulted.failed_ranks)
        and (reuse_ok or args.escaped)
    )
    if args.escaped:
        # No in-call healing: the pipeline restart preserves checkpointed
        # calls instead (counted in the same reused_flops metric).
        ok = ok and fm.reused_flops > 0

    if args.json:
        doc = {
            "problem": {"m": m, "n": n, "k": k, "nprocs": p},
            "calls": args.calls,
            "ckpt_every": args.ckpt_every,
            "store": args.store,
            "resilient_steps": resilient,
            "plan": fault_plan.to_dict(),
            "clean_makespan_s": clean.time,
            "faulted_makespan_s": faulted.time,
            "failed_ranks": faulted.failed_ranks,
            "checkpoints": checkpoints,
            "checkpoint_kinds": ckpt_kinds,
            "store_bytes_written": bytes_written,
            "pipeline_restarts": restarts,
            "recoveries": fm.recoveries,
            "reused_flops": fm.reused_flops,
            "recomputed_flops": fm.recomputed_flops,
            "one_call_flops": one_call,
            "max_abs_error": pair.max_err,
            "tolerance": pair.tolerance,
            "correct": ok,
        }
        _print_document(doc)
        return 0 if ok else 1

    mode = "escaped (pipeline restart)" if args.escaped else "in-call (partial reuse)"
    print(f"pipeline          : {args.calls} calls of {m}x{n}x{k} on {p} ranks, "
          f"checkpoint every {args.ckpt_every}")
    print(f"fault             : kill rank {args.kill_rank} in call "
          f"{args.kill_call}'s cannon stage; recovery mode: {mode}")
    _print_makespans(pair)
    print(f"failed ranks      : {faulted.failed_ranks or 'none'}")
    print(f"checkpoints       : {len(checkpoints)} "
          f"({', '.join(checkpoints[:3])}"
          f"{', ...' if len(checkpoints) > 3 else ''})")
    print(f"checkpoint kinds  : "
          f"{ckpt_kinds.count('full')} full + "
          f"{ckpt_kinds.count('delta')} delta, "
          f"{bytes_written} store bytes written")
    print(f"restarts/recoveries: {restarts}/{fm.recoveries}")
    print(f"flops accounting  : {fm.reused_flops:.0f} reused, "
          f"{fm.recomputed_flops:.0f} recomputed "
          f"(one full call = {one_call:.0f})")
    print(f"max |X - ref|     : {pair.max_err:.3e} (tol {pair.tolerance:.3e})")
    print(f"result            : {'recovered OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _stats_main(args) -> int:
    plan, result = _run(args)
    metrics = snapshot_run(result, plan)
    report = audit_run(result, plan)
    analytic_q = theoretical_metrics(plan).q_words
    q_over_analytic = metrics.q_words / analytic_q if analytic_q > 0 else None
    _append_ledger(args, result, plan, "cli.stats")
    if args.json:
        print(json.dumps({
            "metrics": metrics.to_dict(),
            "audit": report.to_dict(),
            "q_over_analytic": q_over_analytic,
        }, indent=2))
    else:
        print(format_metrics(metrics))
        if q_over_analytic is not None:
            print(f"  measured/analytic Q : {q_over_analytic:.4f}")
        print(report.format())
    return 1 if (args.strict and not report.ok) else 0


def _audit_main(args) -> int:
    plan, result = _run(args)
    report = audit_run(result, plan)
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


def _memprof_main(args) -> int:
    plan, result = _run(args, memory_limit_words=args.memory_limit)
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


def _ledger_main(args) -> int:
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


# ------------------------------------------------------------ parser tree -- #
def _parser() -> tuple[argparse.ArgumentParser, list[str]]:
    """``example_AB`` and the ten subcommands as one tree (and their
    names); what several of them accept is a parent parser, defined once."""

    def parent(*parents) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    run = parent()
    run.add_argument("-np", "--nprocs", type=_positive_arg, default=8,
                     help="number of ranks")
    run.add_argument("--ledger", nargs="?", const="", default=None,
                     metavar="PATH",
                     help=f"append this run's record to the JSONL run ledger "
                          f"(default path {DEFAULT_LEDGER_PATH}; "
                          f"REPRO_LEDGER=<path|1> enables it globally)")
    mnk = parent()
    for dim in "MNK":
        mnk.add_argument(dim, type=_positive_arg)
    workload = parent(run, mnk)
    workload.add_argument("--dtype", type=int, choices=(0, 1), default=0,
                          help="0 = CPU machine model, 1 = GPU machine model")
    workload.add_argument("--overlap", choices=("none", "partial", "full"),
                          default=None,
                          help="async comm engine capability of the machine "
                               "model (default: the model's own, i.e. 'none'; "
                               "see docs/VIRTUAL_MPI.md)")
    workload.add_argument("--grid", type=int, nargs=3, metavar=("MP", "NP", "KP"),
                          help="force the process grid pm pn pk")
    as_json = parent()
    as_json.add_argument("--json", action="store_true",
                         help="emit one JSON document instead of text")
    strict = parent()
    strict.add_argument("--strict", action="store_true",
                        help="exit 1 when the audit fails: a phase's measured "
                             "words leave eq. (4)'s band (5%% or 64 words) or "
                             "its message count differs")
    timeline = parent()
    timeline.add_argument("--timeline", action="store_true",
                          help="also render the (faulted) run's per-rank "
                               "timeline: upper-case glyphs mark the binding "
                               "chain, '!' injected intervals")
    gate = parent()
    gate.add_argument("--gate", default=None, metavar="FILE",
                      help="compare the gated values against this committed "
                           "baseline JSON; exit 1 on regression, 2 when the file "
                           "is unusable or for another problem (the CI audit and "
                           "memory gates)")
    gate.add_argument("--gate-tol", type=float, default=0.02,
                      help="allowed relative worsening of the gated values")
    gate.add_argument("--update-gate", default=None, metavar="FILE",
                      help="write the gate baseline from this run instead of "
                           "comparing")
    scripted = parent()
    scripted.add_argument("--plan", default=None, metavar="FILE",
                          help="fault-plan JSON (docs/FAULTS.md); default: the "
                               "subcommand's seeded demo plan")
    scripted.add_argument("--seed", type=int, default=0,
                          help="seed for the demo plan (ignored with --plan)")

    root = argparse.ArgumentParser(
        prog="python -m repro.cli",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = root.add_subparsers(dest="command", metavar="subcommand",
                              title="subcommands")

    def command(name, main, parents, help, more="", **kw):
        """``help`` is the line ``--help`` lists; ``<name> --help`` adds ``more``."""
        ap = sub.add_parser(name, parents=parents, help=help,
                            description=help + more, **kw)
        ap.set_defaults(main=main)
        return ap

    ap = command(
        "example_AB", _example_main, [run, as_json, mnk], prog="example_AB",
        help="CA3DMM example: C = op(A) x op(B) on the virtual MPI runtime "
             "(the default when the first argument is not a word)",
    )
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
    root.description = (
        "CA3DMM on the virtual MPI runtime.  Without a subcommand the "
        "arguments are example_AB's:\n\n" + ap.format_usage()
    )

    ap = command(
        "trace", _trace_main, [workload, strict],
        help="execute one multiplication with event recording and export a "
             "Chrome-trace/Perfetto JSON plus its communication audit",
    )
    ap.add_argument("-o", "--output", default="ca3dmm.trace.json",
                    help="Chrome-trace output path (load in Perfetto)")
    ap.add_argument("--jsonl", default=None,
                    help="also write a JSONL structured log to this path")

    command(
        "stats", _stats_main, [workload, as_json, strict],
        help="execute one multiplication and print its metrics snapshot and "
             "communication audit",
    )

    command(
        "audit", _audit_main, [workload, as_json, strict, gate],
        help="audit one multiplication's measured bytes-on-the-wire against "
             "the eq. (4) schedule and the lower bounds",
        more=": per phase against eq. (4) and the α-β collective accounting, "
             "in total against eq. (9) and the red-blue pebbling bound "
             "(2mnk/(P√M) with measured M)",
    )

    ap = command(
        "memprof", _memprof_main, [workload, as_json, gate],
        help="profile each rank's measured resident memory against the "
             "eq. (11) footprint prediction",
        more=" and any memory_limit_words cap: tagged allocation spans, "
             "per-purpose breakdown, top-offender ranks",
    )
    ap.add_argument("--mem-tol", type=float, default=0.10,
                    help="relative headroom allowed over eq. (11) / the cap")
    ap.add_argument("--top", type=_count_arg, default=3,
                    help="top-offender ranks listed in text mode")
    ap.add_argument("--memory-limit", type=float, default=None,
                    metavar="WORDS",
                    help="plan under a Section V memory cap (words/process)")

    ap = command(
        "ledger", _ledger_main, [as_json],
        help="render and query the append-only run ledger "
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
    ap.add_argument("--last", type=_count_arg, default=None, metavar="N",
                    help="only the newest N matching records")

    command(
        "critpath", _critpath_main, [workload, as_json, timeline],
        help="reconstruct the dependency chain that bounds one "
             "multiplication's simulated makespan",
        more=": per-phase blame, per-rank idle decomposition, stragglers",
    )

    ap = command(
        "perfdiff", _perfdiff_main, [as_json],
        help="re-execute the fixed workload matrix and diff it against the "
             "committed perf baselines (the CI perf gate)",
        more=": makespan, per-phase critical time, and traffic; exit 1 on a "
             "regression, 2 when a baseline is for another problem",
    )
    ap.add_argument("names", nargs="*",
                    help=f"workloads to check (default: all of "
                         f"{' '.join(sorted(TRACE_WORKLOADS))})")
    ap.add_argument("--baseline-dir", default="benchmarks/baselines",
                    help="directory of committed <name>.json baselines")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baselines from this run instead of comparing")
    ap.add_argument("--verbose", action="store_true",
                    help="list every compared metric, not only changes")

    command(
        "faults", _faults_main, [workload, as_json, timeline, scripted],
        help="execute one multiplication clean and under a deterministic "
             "fault plan (docs/FAULTS.md) and report the degradation",
        more=": makespan delta, retry counters, result correctness, and the "
             "critical-path chain through the injected fault.  The demo plan "
             "drops the first Cannon-phase message on every link.",
    )

    ap = command(
        "recover", _recover_main, [workload, as_json, timeline, scripted],
        help="execute one multiplication under rank kills and/or payload "
             "corruption and recover a correct result (docs/RECOVERY.md)",
        more=": ULFM-style shrink-replan-redistribute recovery and ABFT "
             "checksum detect-and-recompute.  The demo plan is built from "
             "--kill-rank / --corrupt; exits nonzero unless the faulted run "
             "ends correct.",
    )
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
    ap.add_argument("--max-recoveries", type=_count_arg, default=2,
                    help="shrink-replan rounds allowed before giving up")

    ap = command(
        "checkpoint", _checkpoint_main, [workload, as_json],
        help="run a multi-call matmul pipeline under checkpoint/restart and "
             "survive a rank killed mid-pipeline (docs/RECOVERY.md)",
        more=": X <- op(A) @ X with alternating op; the survivors restart "
             "from the newest checkpoint and the final iterate is verified "
             "against numpy.  Exits 0 only when the faulted pipeline "
             "recovers, matches the serial reference, and partial-result "
             "reuse saved work (reused_flops > 0, recomputed < one full call).",
    )
    ap.add_argument("--calls", type=_positive_arg, default=4,
                    help="pipeline length (matmul calls)")
    ap.add_argument("--ckpt-every", type=_positive_arg, default=1, metavar="N",
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
    ap.add_argument("--max-restarts", type=_count_arg, default=2,
                    help="pipeline restarts allowed before giving up")
    return root, list(sub.choices)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root, commands = _parser()
    if argv and argv[0][:1].isalpha():
        # a word is a subcommand's name; argparse would read a mistyped
        # one as example_AB's M
        if argv[0] not in commands:
            print(f"unknown subcommand {argv[0]!r}; choose from "
                  f"{', '.join(commands)}", file=sys.stderr)
            return 2
    elif argv[:1] not in (["-h"], ["--help"]):
        argv.insert(0, "example_AB")
    args = root.parse_args(argv)
    try:
        return args.main(args)
    except (GateError, _InputError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
