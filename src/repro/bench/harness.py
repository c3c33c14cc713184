"""The benchmark harness: one entry point per paper table/figure.

Each ``figN_*`` / ``tableN_*`` function returns the regenerated data in
structured form *and* a rendered text block, so the pytest benches can
both assert the paper's qualitative claims and print the artifact.  At
paper scale the analytic engine prices the schedules; the executed
engine backs it up at small scale through the verification helpers in
:mod:`repro.analysis.verify` (exercised by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.breakdown import breakdown_from_report
from ..analysis.costs import ca3dmm_cost, cosma_cost, ctf_cost
from ..grid.optimizer import GridSpec, ca3dmm_grid, cosma_grid
from ..machine.model import MachineModel, pace_phoenix_cpu, pace_phoenix_gpu
from .report import format_series, format_table
from .workloads import (
    CPU_PROBLEMS,
    GPU_COUNTS,
    GPU_PROBLEMS,
    SCALING_PROCS,
    TABLE2_PROCS,
    Problem,
)


@dataclass
class BenchResult:
    """Structured data + rendered text for one table/figure."""

    name: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text



# --------------------------------------------------------- trace artifacts -- #
#: Small executed stand-ins per generator, used for trace artifacts: the
#: analytic benches price paper-scale problems, so each figure/table gets
#: a thread-simulator-sized problem of the same shape class whose
#: executed trace documents the schedule the analytic numbers price.
TRACE_WORKLOADS: dict[str, tuple[int, int, int, int]] = {
    "fig2": (32, 64, 16, 8),      # the paper's worked Example 1
    "fig3": (64, 64, 64, 8),      # square class (strong scaling)
    "fig4": (64, 64, 64, 8),      # square class (hybrid scaling)
    "fig5": (48, 48, 48, 8),      # breakdown: all phases populated
    "table1": (32, 32, 64, 16),   # the paper's worked Example 2
    "table2": (48, 40, 56, 8),    # non-square, forced-grid territory
    "table3": (64, 32, 32, 8),    # large-M flavour (GPU table)
    "l_sweep": (40, 40, 40, 8),
}


def executed_workload(
    name: str,
    machine: MachineModel | None = None,
    faults=None,
):
    """Execute the stand-in workload for generator ``name``.

    Returns ``(plan, result)`` with event recording on — the input both
    the trace artifacts and the perf baselines are derived from.
    ``faults`` (a :class:`~repro.mpi.faults.FaultPlan`) runs the same
    workload under deterministic fault injection.  Raises ``KeyError``
    for unknown names.
    """
    from ..core import ca3dmm_matmul
    from ..core.plan import Ca3dmmPlan
    from ..layout import DistMatrix, dense_random
    from ..mpi import run_spmd

    m, n, k, p = TRACE_WORKLOADS[name]
    plan = Ca3dmmPlan(m, n, k, p)

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        ca3dmm_matmul(a, b)

    mach = machine or pace_phoenix_cpu("mpi")
    result = run_spmd(p, f, machine=mach, record_events=True, faults=faults)
    return plan, result


#: The overlap-comparison workload: big enough that a 4x2 SUMMA grid
#: broadcasts panels worth hiding and the CA3DMM plan (2x4x1) runs a
#: multi-shift Cannon stage — both phases clear 0.5 overlap efficiency
#: with the engine on (the ISSUE acceptance bar).
OVERLAP_WORKLOAD: tuple[int, int, int, int] = (384, 384, 128, 8)
OVERLAP_SUMMA_GRID: tuple[int, int] = (4, 2)
OVERLAP_SUMMA_PANEL: int = 64


def overlap_comparison(machine: MachineModel | None = None) -> BenchResult:
    """Async-engine payoff: pipelined vs synchronous SUMMA, plus Cannon.

    Runs the :data:`OVERLAP_WORKLOAD` twice per algorithm — once with
    the machine's async comm engine off (``overlap="none"``, the
    historical serialized schedule) and once with it on — and reports
    makespans, per-phase overlap efficiency, and the comm seconds the
    engine covered.  ``machine`` defaults to
    ``laptop().with_overlap("full")``; the "off" run is the same
    machine with ``with_overlap("none")`` so the only variable is the
    engine.  Used by the CI ``overlap-smoke`` job, which asserts the
    pipelined SUMMA makespan beats the synchronous one.
    """
    from ..baselines.summa import summa_matmul
    from ..core import ca3dmm_matmul
    from ..core.plan import Ca3dmmPlan
    from ..layout import DistMatrix, dense_random
    from ..layout.distributions import Block2D
    from ..machine.model import laptop
    from ..mpi import run_spmd
    from ..obs.metrics import overlap_by_phase, run_totals

    m, n, k, p = OVERLAP_WORKLOAD
    pr, pc = OVERLAP_SUMMA_GRID
    mach_on = machine or laptop().with_overlap("full")
    mach_off = mach_on.with_overlap("none")
    plan = Ca3dmmPlan(m, n, k, p)

    def summa_body(comm):
        a = DistMatrix.from_global(
            comm, Block2D((m, k), p, pr, pc), dense_random(m, k, 0)
        )
        b = DistMatrix.from_global(
            comm, Block2D((k, n), p, pr, pc), dense_random(k, n, 1)
        )
        summa_matmul(a, b, grid=(pr, pc), panel=OVERLAP_SUMMA_PANEL)

    def ca3dmm_body(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        ca3dmm_matmul(a, b)

    data: dict = {"workload": {"m": m, "n": n, "k": k, "nprocs": p},
                  "overlap_mode": mach_on.overlap}
    lines = [
        f"overlap comparison — {m}x{n}x{k} P={p} "
        f"(engine {mach_on.overlap!r} vs 'none')",
    ]
    for label, body, phase in (
        ("summa", summa_body, "summa"),
        ("ca3dmm", ca3dmm_body, "cannon"),
    ):
        off = run_spmd(p, body, machine=mach_off, record_events=True)
        on = run_spmd(p, body, machine=mach_on, record_events=True)
        ov = overlap_by_phase(on)
        covered = run_totals(on.live_traces).covered_by_phase
        data[label] = {
            "sync_makespan_s": off.time,
            "engine_makespan_s": on.time,
            "speedup": off.time / on.time if on.time else float("inf"),
            "phase_overlap": {phase: ov.get(phase, 0.0)},
            "covered_by_phase": covered,
        }
        lines.append(
            f"  {label:<7} sync {off.time * 1e3:.6f} ms -> engine "
            f"{on.time * 1e3:.6f} ms ({data[label]['speedup']:.3f}x)  "
            f"{phase} overlap {100 * ov.get(phase, 0.0):.1f}%  "
            f"hidden {sum(covered.values()) * 1e3:.4f} ms"
        )
    return BenchResult("overlap", "\n".join(lines), data)


def fault_degradation(
    name: str,
    faults,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Degradation curve: a workload clean vs under a fault plan.

    Runs the stand-in workload for ``name`` twice — once clean, once
    under ``faults`` — and reports makespan delta, retry/timeout
    counters, and how much of the faulted run's critical path sits on
    injected segments.  Used by ``python -m repro.bench --fault-plan``.
    """
    from ..obs.critpath import critical_path

    _plan, clean = executed_workload(name, machine)
    _plan, faulted = executed_workload(name, machine, faults=faults)
    injected_s = critical_path(faulted).injected_s
    fm = faulted.metrics
    delta = faulted.time - clean.time
    data = {
        "clean_makespan_s": clean.time,
        "faulted_makespan_s": faulted.time,
        "delta_s": delta,
        "slowdown": faulted.time / clean.time if clean.time else float("inf"),
        "total_retries": fm.total_retries,
        "total_timeouts": fm.total_timeouts,
        "injected_wait_s": fm.injected_wait_s,
        "injected_critical_s": injected_s,
    }
    text = "\n".join([
        f"fault degradation — {name}",
        f"  clean makespan   : {clean.time * 1e3:.6f} ms",
        f"  faulted makespan : {faulted.time * 1e3:.6f} ms "
        f"({data['slowdown']:.3f}x, +{delta * 1e3:.6f} ms)",
        f"  retries/timeouts : {fm.total_retries}/{fm.total_timeouts}",
        f"  injected wait    : {fm.injected_wait_s * 1e3:.6f} ms "
        f"({injected_s * 1e3:.6f} ms on the critical path)",
    ])
    return BenchResult(f"faults_{name}", text, data)


def recovery_cost(
    name: str,
    kill_rank: int = 1,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Recovery overhead: a workload clean vs surviving a rank kill.

    Runs the stand-in workload for ``name`` twice through
    :func:`~repro.ft.resilient_multiply` — once clean, once with
    ``kill_rank`` permanently killed at its first Cannon entry — and
    reports the makespan cost of the shrink-replan-redistribute
    recovery plus a correctness check of the recovered C.  Used by
    ``python -m repro.bench --kill-rank``.
    """
    import numpy as np

    from ..core.plan import Ca3dmmPlan
    from ..ft import resilient_multiply
    from ..layout import DistMatrix, dense_random
    from ..mpi import run_spmd
    from ..mpi.faults import FaultPlan, RankFault

    m, n, k, p = TRACE_WORKLOADS[name]
    if not 0 <= kill_rank < p:
        raise ValueError(f"kill_rank {kill_rank} outside world [0, {p})")
    plan = Ca3dmmPlan(m, n, k, p)
    fault = FaultPlan(
        seed=0,
        ranks=(RankFault(rank=kill_rank, phase="cannon", occurrence=1,
                         kill=True),),
    )

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        c = resilient_multiply(comm, a, b, max_recoveries=2)
        return c.to_global()

    mach = machine or pace_phoenix_cpu("mpi")
    clean = run_spmd(p, f, machine=mach, record_events=True)
    faulted = run_spmd(p, f, machine=mach, record_events=True, faults=fault)
    got = next(r for r in faulted.results if r is not None)
    ref = dense_random(m, k, 0) @ dense_random(k, n, 1)
    tol = 1e-9 * max(1.0, float(np.abs(ref).max()))
    correct = bool(float(np.abs(got - ref).max()) <= tol)
    fm = faulted.metrics
    delta = faulted.time - clean.time
    data = {
        "kill_rank": kill_rank,
        "clean_makespan_s": clean.time,
        "faulted_makespan_s": faulted.time,
        "delta_s": delta,
        "slowdown": faulted.time / clean.time if clean.time else float("inf"),
        "recoveries": fm.recoveries,
        "failed_ranks": faulted.failed_ranks,
        "survivors": p - len(faulted.failed_ranks),
        "correct": correct,
    }
    text = "\n".join([
        f"recovery cost — {name} (kill rank {kill_rank} mid-Cannon)",
        f"  clean makespan   : {clean.time * 1e3:.6f} ms",
        f"  faulted makespan : {faulted.time * 1e3:.6f} ms "
        f"({data['slowdown']:.3f}x, +{delta * 1e3:.6f} ms)",
        f"  recoveries       : {fm.recoveries} "
        f"({data['survivors']}/{p} ranks survive)",
        f"  recovered C      : "
        f"{'correct' if correct else 'WRONG'} (tol {tol:.3e})",
    ])
    return BenchResult(f"recovery_{name}", text, data)


def checkpoint_cost(
    name: str,
    ckpt_every: int = 1,
    kill_rank: int = 1,
    calls: int = 4,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Checkpoint/restart overhead on a multi-call pipeline.

    Runs the alternating matmul chain (:mod:`repro.apps.pipeline`) on
    the stand-in workload for ``name`` twice — once clean, once with
    ``kill_rank`` killed mid-pipeline — both under
    :mod:`repro.ckpt` checkpointing every ``ckpt_every`` calls, and
    reports the checkpoint overhead (clean vs an uncheckpointed clean
    run), the recovery cost, and the reused-vs-recomputed flops split.
    A third clean run under a forced full-snapshot policy
    (``full_interval=1``) measures how many store bytes the default
    incremental (delta) checkpoints save.  Used by
    ``python -m repro.bench --ckpt-every``.
    """
    import numpy as np

    from ..apps.pipeline import matmul_chain, matmul_chain_reference
    from ..ckpt import CheckpointPolicy, MemoryStore
    from ..mpi import run_spmd
    from ..mpi.faults import FaultPlan, RankFault

    m, n, k, p = TRACE_WORKLOADS[name]
    if not 0 <= kill_rank < p:
        raise ValueError(f"kill_rank {kill_rank} outside world [0, {p})")
    kill_call = calls // 2
    fault = FaultPlan(
        seed=0,
        ranks=(RankFault(rank=kill_rank, phase="cannon",
                         occurrence=kill_call + 1, kill=True),),
    )

    def run(faults, policy):
        store = MemoryStore() if policy is not None else None

        def f(comm):
            res = matmul_chain(
                comm, m, n, k, calls=calls, store=store, policy=policy,
            )
            return res.state["X"].to_global()

        result = run_spmd(p, f, machine=machine or pace_phoenix_cpu("mpi"),
                          record_events=True, faults=faults)
        return result, store

    policy = CheckpointPolicy(every_calls=ckpt_every)
    bare, _ = run(None, None)
    clean, delta_store = run(None, policy)
    _full_run, full_store = run(
        None, CheckpointPolicy(every_calls=ckpt_every, full_interval=1),
    )
    faulted, _ = run(fault, policy)
    got = next(r for r in faulted.results if r is not None)
    ref = matmul_chain_reference(m, n, k, calls=calls)
    tol = 1e-8 * max(1.0, float(np.abs(ref).max()))
    correct = bool(float(np.abs(got - ref).max()) <= tol)
    fm = faulted.metrics
    ckpt_overhead = clean.time - bare.time
    delta = faulted.time - clean.time
    data = {
        "calls": calls,
        "ckpt_every": ckpt_every,
        "kill_rank": kill_rank,
        "kill_call": kill_call,
        "bare_makespan_s": bare.time,
        "clean_makespan_s": clean.time,
        "ckpt_overhead_s": ckpt_overhead,
        "faulted_makespan_s": faulted.time,
        "delta_s": delta,
        "recoveries": fm.recoveries,
        "reused_flops": fm.reused_flops,
        "recomputed_flops": fm.recomputed_flops,
        "one_call_flops": 2.0 * m * n * k,
        "failed_ranks": faulted.failed_ranks,
        "delta_bytes_written": delta_store.bytes_written,
        "full_bytes_written": full_store.bytes_written,
        "correct": correct,
    }
    saved = (
        100.0 * (1.0 - delta_store.bytes_written / full_store.bytes_written)
        if full_store.bytes_written else 0.0
    )
    text = "\n".join([
        f"checkpoint cost — {name} ({calls}-call chain, checkpoint every "
        f"{ckpt_every}, kill rank {kill_rank} in call {kill_call})",
        f"  bare makespan    : {bare.time * 1e3:.6f} ms (no checkpoints)",
        f"  clean makespan   : {clean.time * 1e3:.6f} ms "
        f"(+{ckpt_overhead * 1e3:.6f} ms checkpoint overhead)",
        f"  faulted makespan : {faulted.time * 1e3:.6f} ms "
        f"(+{delta * 1e3:.6f} ms recovery)",
        f"  flops accounting : {fm.reused_flops:.0f} reused, "
        f"{fm.recomputed_flops:.0f} recomputed "
        f"(one call = {2.0 * m * n * k:.0f})",
        f"  store bytes      : {delta_store.bytes_written} delta vs "
        f"{full_store.bytes_written} full-snapshot ({saved:.1f}% saved)",
        f"  recovered X      : "
        f"{'correct' if correct else 'WRONG'} (tol {tol:.3e})",
    ])
    return BenchResult(f"checkpoint_{name}", text, data)


def trace_artifact(
    name: str,
    outdir: str | Path,
    machine: MachineModel | None = None,
) -> Path:
    """Execute the stand-in workload for generator ``name`` and write a
    schema-validated Chrome trace to ``outdir/<name>.trace.json``.

    Returns the written path.  Raises ``KeyError`` for unknown names.
    """
    from ..obs.export import write_chrome_trace

    m, n, k, p = TRACE_WORKLOADS[name]
    _plan, result = executed_workload(name, machine)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.trace.json"
    write_chrome_trace(
        result, path, label=f"{name} stand-in {m}x{n}x{k} P={p}"
    )
    return path


def baseline_artifact(
    name: str,
    outdir: str | Path,
    machine: MachineModel | None = None,
) -> Path:
    """Execute the stand-in workload for ``name`` and write (or refresh)
    its perf baseline under ``outdir/<name>.json``.

    The baseline snapshots makespan, per-phase critical seconds (from
    the binding chain), and traffic counters; ``repro perfdiff`` and the
    CI perf-gate compare later runs against it.  Returns the written
    path.  Raises ``KeyError`` for unknown names.
    """
    from ..obs.baseline import BaselineStore, capture_baseline

    m, n, k, p = TRACE_WORKLOADS[name]
    _plan, result = executed_workload(name, machine)
    doc = capture_baseline(
        result,
        name,
        workload={"m": m, "n": n, "k": k, "nprocs": p},
        machine_label="pace_phoenix_cpu(mpi)" if machine is None else "custom",
    )
    return BaselineStore(outdir).save(name, doc)


def history_artifact(
    name: str,
    outdir: str | Path,
    machine: MachineModel | None = None,
    ledger: str | Path | None = None,
) -> Path:
    """Execute the stand-in workload for ``name`` and write its
    trajectory point to ``outdir/BENCH_<name>.json``.

    The document bundles the run's ledger record (the same deterministic
    schema the run history accumulates) with the full audit report —
    one measured-optimality data point per sweep, diffable across
    commits.  When ``ledger`` is given the record is also appended to
    that JSONL history.  Returns the written path.  Raises ``KeyError``
    for unknown names.
    """
    import json

    from ..obs.audit import audit_run
    from ..obs.ledger import Ledger, ledger_record

    mach = machine or pace_phoenix_cpu("mpi")
    plan, result = executed_workload(name, mach)
    audit = audit_run(result, plan, machine=mach)
    record = ledger_record(
        result, plan, f"bench.{name}", audit_ok=audit.ok
    )
    if ledger is not None:
        Ledger(ledger).append(record)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"BENCH_{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"schema_version": 1, "record": record, "audit": audit.to_dict()},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    return path


# ------------------------------------------------------------------ Fig 2 -- #
def fig2_partitions() -> BenchResult:
    """Fig. 2: the worked partitioning examples, rendered exactly.

    Example 1 (m=32, k=16, n=64, P=8) and Example 2 (m=n=32, k=64,
    P=16) as owner-labelled block diagrams of the native layouts.
    """
    from ..core.plan import Ca3dmmPlan
    from ..core.plan_render import render_partitions

    ex1 = Ca3dmmPlan(32, 64, 16, 8)
    ex2 = Ca3dmmPlan(32, 32, 64, 16)
    text = "\n\n".join(
        [
            "Fig 2a — Example 1 (m=32, k=16, n=64, P=8)",
            render_partitions(ex1),
            "Fig 2b — Example 2 (m=n=32, k=64, P=16)",
            render_partitions(ex2),
        ]
    )
    return BenchResult("fig2", text, {"ex1": ex1, "ex2": ex2})


# ------------------------------------------------------------------ Fig 3 -- #
def fig3_scaling(
    problems: tuple[Problem, ...] = CPU_PROBLEMS,
    procs: tuple[int, ...] = SCALING_PROCS,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Fig. 3: strong scaling, % of peak, native and 1D-column layouts."""
    mach = machine or pace_phoenix_cpu("mpi")
    blocks, data = [], {}
    for p in problems:
        series: dict[str, list[float]] = {
            "CA3DMM native": [],
            "CA3DMM custom": [],
            "COSMA native": [],
            "COSMA custom": [],
            "CTF native": [],
        }
        for P in procs:
            series["CA3DMM native"].append(ca3dmm_cost(*p.dims, P, mach).pct_peak())
            series["CA3DMM custom"].append(
                ca3dmm_cost(*p.dims, P, mach, custom_layout=True).pct_peak()
            )
            series["COSMA native"].append(cosma_cost(*p.dims, P, mach).pct_peak())
            series["COSMA custom"].append(
                cosma_cost(*p.dims, P, mach, custom_layout=True).pct_peak()
            )
            series["CTF native"].append(ctf_cost(*p.dims, P, mach).pct_peak())
        data[p.cls] = series
        blocks.append(
            format_series("procs", procs, series, title=f"Fig 3 — {p.label()} (% of peak)")
        )
    return BenchResult("fig3", "\n\n".join(blocks), data)


# ------------------------------------------------------------------ Fig 4 -- #
def fig4_hybrid(
    problems: tuple[Problem, ...] = CPU_PROBLEMS,
    procs: tuple[int, ...] = SCALING_PROCS,
) -> BenchResult:
    """Fig. 4: pure-MPI vs MPI+OpenMP strong scaling (% of peak)."""
    mpi = pace_phoenix_cpu("mpi")
    hyb = pace_phoenix_cpu("hybrid")
    blocks, data = [], {}
    for p in problems:
        series: dict[str, list[float]] = {
            "CA3DMM pure MPI": [],
            "CA3DMM hybrid": [],
            "COSMA pure MPI": [],
            "COSMA hybrid": [],
        }
        for P in procs:
            nodes = max(1, P // mpi.cores_per_node)
            series["CA3DMM pure MPI"].append(ca3dmm_cost(*p.dims, P, mpi).pct_peak())
            series["CA3DMM hybrid"].append(ca3dmm_cost(*p.dims, nodes, hyb).pct_peak())
            series["COSMA pure MPI"].append(cosma_cost(*p.dims, P, mpi).pct_peak())
            series["COSMA hybrid"].append(cosma_cost(*p.dims, nodes, hyb).pct_peak())
        data[p.cls] = series
        blocks.append(
            format_series(
                "cores", procs, series, title=f"Fig 4 — {p.label()} (% of peak)"
            )
        )
    return BenchResult("fig4", "\n\n".join(blocks), data)


# --------------------------------------------------------------- Table I -- #
def table1_memory(
    problems: tuple[Problem, ...] = CPU_PROBLEMS,
    procs: tuple[int, ...] = SCALING_PROCS,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Table I: per-process memory (MB) for COSMA and CA3DMM."""
    mach = machine or pace_phoenix_cpu("mpi")
    rows, data = [], {}
    for algo, fn in (("COSMA", cosma_cost), ("CA3DMM", ca3dmm_cost)):
        for p in problems:
            mems = [fn(*p.dims, P, mach).mem_mb for P in procs]
            rows.append([algo, p.label()] + [f"{v:.0f}" for v in mems])
            data[(algo, p.cls)] = mems
    text = format_table(
        ["library", "problem"] + [str(P) for P in procs],
        rows,
        title="Table I — memory per process (MB)",
    )
    return BenchResult("table1", text, data)


def table1_measured(
    names: tuple[str, ...] = ("fig3", "table1", "table2", "table3"),
    machine: MachineModel | None = None,
) -> BenchResult:
    """Table I companion: measured resident peak vs eq. (11), executed.

    The analytic table prices paper-scale problems; this executes the
    thread-simulator stand-ins of the same shape classes and puts the
    memtrace resident watermark (max over ranks, words) next to the
    eq. (11) prediction for the grid actually planned.  ``ratio`` is
    measured / analytic — the memory gate bounds it near 1.
    """
    from ..obs.metrics import run_totals

    rows, data = [], {}
    for name in names:
        m, n, k, p = TRACE_WORKLOADS[name]
        plan, result = executed_workload(name, machine=machine)
        eq11 = plan.grid.memory_words(m, n, k)
        measured = run_totals(result.live_traces).resident_peak_words
        ratio = measured / eq11 if eq11 > 0 else float("nan")
        rows.append([
            name, f"{m}x{n}x{k}", str(p),
            f"{plan.pm}x{plan.pn}x{plan.pk}",
            f"{eq11:.0f}", f"{measured:.0f}", f"{ratio:.3f}",
        ])
        data[name] = {
            "eq11_words": eq11,
            "measured_words": measured,
            "ratio": ratio,
        }
    text = format_table(
        ["workload", "m x n x k", "P", "grid", "eq11 words",
         "measured words", "ratio"],
        rows,
        title="Table I companion — measured resident peak vs eq. (11) (words)",
    )
    return BenchResult("table1_measured", text, data)


# -------------------------------------------------------------- Table II -- #
#: The paper's Table II grid specifications: problem class ->
#: [(procs, (pm, pn, pk), is_default)] for each library.
TABLE2_GRIDS: dict[str, list[tuple[int, tuple[int, int, int]]]] = {
    "square": [(2048, (8, 16, 16)), (3072, (16, 16, 12)), (3072, (12, 16, 16))],
    "large-K": [(2048, (2, 2, 512)), (3072, (3, 3, 341)), (3072, (4, 2, 384))],
    "large-M": [(2048, (512, 2, 2)), (3072, (512, 2, 3)), (3072, (384, 4, 2))],
    "flat": [(2048, (32, 32, 2)), (3072, (32, 32, 3)), (3072, (39, 39, 2))],
}


def table2_grids(
    problems: tuple[Problem, ...] = CPU_PROBLEMS,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Table II: runtimes with the paper's forced process grids."""
    mach = machine or pace_phoenix_cpu("mpi")
    rows, data = [], {}
    for p in problems:
        for procs, dims in TABLE2_GRIDS[p.cls]:
            pm, pn, pk = dims
            grid = GridSpec(pm=pm, pn=pn, pk=pk, nprocs=procs)
            co = cosma_cost(*p.dims, procs, mach, grid=grid)
            if grid.cannon_compatible:
                ca = ca3dmm_cost(*p.dims, procs, mach, grid=grid)
                ca_t = ca.t_total
            else:
                ca_t = float("nan")
            rows.append(
                [procs, p.label(), f"{pm}x{pn}x{pk}", f"{co.t_total:.3f}", f"{ca_t:.3f}"]
            )
            data[(p.cls, procs, dims)] = {"cosma": co.t_total, "ca3dmm": ca_t}
        # the library-default grids for comparison
        for procs in TABLE2_PROCS:
            gca = ca3dmm_grid(*p.dims, procs)
            gco = cosma_grid(*p.dims, procs)
            ca = ca3dmm_cost(*p.dims, procs, mach, grid=gca)
            co = cosma_cost(*p.dims, procs, mach, grid=gco)
            rows.append(
                [
                    procs,
                    p.label() + " (default)",
                    f"{gca.pm}x{gca.pn}x{gca.pk} / {gco.pm}x{gco.pn}x{gco.pk}",
                    f"{co.t_total:.3f}",
                    f"{ca.t_total:.3f}",
                ]
            )
            data[(p.cls, procs, "default")] = {"cosma": co.t_total, "ca3dmm": ca.t_total}
    text = format_table(
        ["cores", "problem", "grid pm x pn x pk", "COSMA (s)", "CA3DMM (s)"],
        rows,
        title="Table II — runtime with forced process grids",
    )
    return BenchResult("table2", text, data)


# ------------------------------------------------------------------ Fig 5 -- #
def fig5_breakdown(
    problems: tuple[Problem, ...] = CPU_PROBLEMS,
    procs: int = 2048,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Fig. 5: relative runtime breakdowns at 2048 cores.

    Normalized so COSMA's total equals 1 for each problem class, as in
    the paper.
    """
    mach = machine or pace_phoenix_cpu("mpi")
    rows, data = [], {}
    for p in problems:
        co = breakdown_from_report(cosma_cost(*p.dims, procs, mach))
        ca = breakdown_from_report(ca3dmm_cost(*p.dims, procs, mach))
        denom = co.total
        co_n, ca_n = co.normalized(denom), ca.normalized(denom)
        for name, b in (("COSMA", co_n), ("CA3DMM", ca_n)):
            rows.append(
                [
                    p.cls,
                    name,
                    f"{b.local_compute:.3f}",
                    f"{b.replicate_ab:.3f}",
                    f"{b.reduce_c:.3f}",
                    f"{b.total:.3f}",
                ]
            )
        data[p.cls] = {"cosma": co_n, "ca3dmm": ca_n}
    text = format_table(
        ["problem", "library", "local comp", "replicate A,B", "reduce C", "total"],
        rows,
        title=f"Fig 5 — normalized runtime breakdown at {procs} cores (COSMA total = 1)",
    )
    return BenchResult("fig5", text, data)


# ------------------------------------------------------------- Table III -- #
def table3_gpu(
    problems: tuple[Problem, ...] = GPU_PROBLEMS,
    gpu_counts: tuple[int, ...] = GPU_COUNTS,
) -> BenchResult:
    """Table III: GPU runtimes for COSMA / CA3DMM / CTF."""
    mach = pace_phoenix_gpu()
    rows, data = [], {}
    for P in gpu_counts:
        for p in problems:
            ca = ca3dmm_cost(*p.dims, P, mach)
            co = cosma_cost(*p.dims, P, mach)
            ct = ctf_cost(*p.dims, P, mach)
            rows.append(
                [
                    P,
                    p.label(),
                    ca.grid,
                    f"{co.t_total:.3f}",
                    f"{ca.t_total:.3f}",
                    f"{ct.t_total:.3f}",
                ]
            )
            data[(P, p.cls)] = {
                "cosma": co.t_total,
                "ca3dmm": ca.t_total,
                "ctf": ct.t_total,
            }
    text = format_table(
        ["GPUs", "problem", "grid", "COSMA (s)", "CA3DMM (s)", "CTF (s)"],
        rows,
        title="Table III — GPU runtimes (s)",
    )
    return BenchResult("table3", text, data)


# -------------------------------------------------------------- l sweep -- #
def l_sweep(
    problems: tuple[Problem, ...] = CPU_PROBLEMS,
    procs: tuple[int, ...] = SCALING_PROCS,
    l_values: tuple[float, ...] = (0.85, 0.90, 0.95, 0.99),
) -> BenchResult:
    """Section IV-A: the grid choice is insensitive to l in [0.85, 0.99]."""
    rows, same, total = [], 0, 0
    for p in problems:
        for P in procs:
            grids = [ca3dmm_grid(*p.dims, P, l=l) for l in l_values]
            base = (grids[l_values.index(0.95)].pm, grids[l_values.index(0.95)].pn,
                    grids[l_values.index(0.95)].pk)
            agree = all((g.pm, g.pn, g.pk) == base for g in grids)
            total += 1
            same += agree
            rows.append(
                [p.cls, P, f"{base[0]}x{base[1]}x{base[2]}", "yes" if agree else "no"]
            )
    text = format_table(
        ["problem", "procs", "grid at l=0.95", "identical for all l"],
        rows,
        title=f"l-sweep — {same}/{total} cases give the same grid for l in {l_values}",
    )
    return BenchResult("l_sweep", text, {"same": same, "total": total})
