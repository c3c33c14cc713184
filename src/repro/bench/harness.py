"""The benchmark harness: one entry point per paper table/figure.

Each ``figN_*`` / ``tableN_*`` function returns the regenerated data in
structured form *and* a rendered text block, so the pytest benches can
both assert the paper's qualitative claims and print the artifact.  At
paper scale the analytic engine prices the schedules; the executed
engine backs it up at small scale through the verification helpers in
:mod:`repro.analysis.verify` (exercised by the test suite).

It is also where an executed run is set up, once:
:func:`executed_workload` (and :func:`executed_chain`,
:func:`clean_vs_faulted` beside it) is what ``repro.cli``,
``python -m repro.bench`` and CI call to run a multiplication.
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


# ------------------------------------------------------- executed workloads -- #
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


def _shape(workload: str | tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return TRACE_WORKLOADS[workload] if isinstance(workload, str) else workload


def workload_operands(
    workload: str | tuple[int, int, int, int],
    seeds: tuple[int, int] = (0, 1),
    trans: tuple[bool, bool] = (False, False),
):
    """The global ``A`` and ``B`` of a workload: ``dense_random`` of
    ``seeds``, shaped so that ``op(A) x op(B)`` is ``m x n`` under ``trans``."""
    from ..layout import dense_random

    m, n, k, _p = _shape(workload)
    return (dense_random(*((k, m) if trans[0] else (m, k)), seeds[0]),
            dense_random(*((n, k) if trans[1] else (k, n)), seeds[1]))


def executed_workload(
    workload: str | tuple[int, int, int, int],
    machine: MachineModel | None = None,
    faults=None,
    *,
    grid: GridSpec | None = None,
    memory_limit_words: float | None = None,
    layout=None,
    trans: tuple[bool, bool] = (False, False),
    seeds: tuple[int, int] = (0, 1),
    body=None,
    record_events: bool = True,
):
    """Set up and execute one multiplication; returns ``(plan, result)``.

    The one way a run is set up: ``workload`` is a stand-in name from
    :data:`TRACE_WORKLOADS` (``KeyError`` if unknown) or an
    ``(m, n, k, P)`` shape; ``machine`` defaults to
    ``pace_phoenix_cpu("mpi")``; ``faults`` (a
    :class:`~repro.mpi.faults.FaultPlan`) runs it under deterministic
    fault injection; ``grid`` / ``memory_limit_words`` constrain the
    plan.  The operands (:func:`workload_operands` of ``seeds`` and
    ``trans``) are drawn **once** here in the driver and handed to every
    rank read-only, in the plan's native layout or in
    ``layout(shape, P)`` (e.g. ``BlockCol1D``).  Each rank then runs
    ``body(comm, a, b)`` — by default one native CA3DMM multiplication
    returning nothing — and its return value lands in
    ``result.results[rank]``.
    """
    from ..core import ca3dmm_matmul
    from ..core.plan import Ca3dmmPlan
    from ..layout import DistMatrix
    from ..mpi import run_spmd

    m, n, k, p = _shape(workload)
    plan = Ca3dmmPlan(m, n, k, p, grid=grid, memory_limit_words=memory_limit_words)
    a_glob, b_glob = workload_operands(workload, seeds, trans)
    a_dist = layout(a_glob.shape, p) if layout else plan.a_dist
    b_dist = layout(b_glob.shape, p) if layout else plan.b_dist
    # Tiles may be views of these: a rank that wrote into its operand
    # would be writing into every other rank's.
    a_glob.setflags(write=False)
    b_glob.setflags(write=False)

    def f(comm):
        a = DistMatrix.from_global(comm, a_dist, a_glob)
        b = DistMatrix.from_global(comm, b_dist, b_glob)
        if body is not None:
            return body(comm, a, b)
        ca3dmm_matmul(a, b, grid=plan.grid)

    result = run_spmd(p, f, machine=machine or pace_phoenix_cpu("mpi"),
                      record_events=record_events, faults=faults)
    return plan, result


def executed_chain(
    workload: str | tuple[int, int, int, int],
    machine: MachineModel | None = None,
    faults=None,
    *,
    calls: int = 4,
    store=None,
    policy=None,
    resilient: bool = True,
    max_restarts: int = 2,
):
    """:func:`executed_workload`'s twin for the multi-call matmul chain
    (:func:`repro.apps.pipeline.matmul_chain`) under checkpointing.

    Returns ``(plan of one call, result)``; every surviving rank's value
    is ``(X, restarts, checkpoints)`` — the final iterate gathered, then
    the pipeline's restart count and checkpoint ids.
    """
    from ..apps.pipeline import matmul_chain

    m, n, k, _p = _shape(workload)

    def body(comm, _a, _b):
        # the chain draws its own operands, again on every restart, for
        # whichever ranks are left
        res = matmul_chain(comm, m, n, k, calls=calls, store=store, policy=policy,
                           resilient=resilient, max_restarts=max_restarts)
        return res.state["X"].to_global(), res.restarts, res.checkpoints

    return executed_workload(workload, machine, faults, body=body)


def clean_vs_faulted(run, faults, reference=None, tol: float = 1e-9):
    """Run ``run(None)`` and ``run(faults)`` and check the survivors'
    result against numpy.

    ``run`` returns ``(plan, result)`` as :func:`executed_workload`
    does, a rank's value being ``None`` or a tuple that starts with the
    result matrix.  Returns a namespace of ``plan`` and ``clean`` (the
    clean run's), ``faulted`` (the faulted result), ``delta_s`` (its
    extra makespan) and ``got`` (its first surviving rank's tuple).  A
    faulted run the ranks could not recover from — ``run_spmd`` raising,
    or no rank returning — is a value, not an exception: ``failure``
    says why and ``faulted`` / ``got`` are ``None``.  Given
    ``reference``, the one numpy check: ``max_err`` is
    ``max|got[0] - ref|``, ``tolerance`` is ``tol * max(1, |ref|_inf)``
    and ``numeric_ok`` whether the first is within the second.
    """
    from types import SimpleNamespace

    import numpy as np

    plan, clean = run(None)
    pair = SimpleNamespace(plan=plan, clean=clean, faulted=None, delta_s=None,
                           got=None, failure=None, max_err=None,
                           tolerance=None, numeric_ok=None)
    try:
        _plan, faulted = run(faults)
    except RuntimeError as exc:
        pair.failure = str(exc.__cause__ or exc)
        return pair
    pair.got = next((r for r in faulted.results if r is not None), None)
    if pair.got is None:
        pair.failure = "no surviving rank returned a result"
        return pair
    pair.faulted, pair.delta_s = faulted, faulted.time - clean.time
    if reference is not None:
        pair.max_err = float(np.abs(pair.got[0] - reference).max())
        pair.tolerance = tol * max(1.0, float(np.abs(reference).max()))
        pair.numeric_ok = pair.max_err <= pair.tolerance
    return pair


#: The overlap-comparison workload: big enough that a 4x2 SUMMA grid
#: broadcasts panels worth hiding and the CA3DMM plan (2x4x1) runs a
#: multi-shift Cannon stage — both phases clear 0.5 overlap efficiency
#: with the engine on (the ISSUE acceptance bar).
OVERLAP_WORKLOAD: tuple[int, int, int, int] = (384, 384, 128, 8)
OVERLAP_SUMMA_GRID: tuple[int, int] = (4, 2)
OVERLAP_SUMMA_PANEL: int = 64


def overlap_summa() -> dict:
    """The :func:`executed_workload` set-up of the comparison's SUMMA half:
    operands on the :data:`OVERLAP_SUMMA_GRID`, pipelined-panel SUMMA."""
    from ..baselines.summa import summa_matmul
    from ..layout.distributions import Block2D

    pr, pc = OVERLAP_SUMMA_GRID

    def body(comm, a, b):
        summa_matmul(a, b, grid=(pr, pc), panel=OVERLAP_SUMMA_PANEL)

    return {"layout": lambda shape, p: Block2D(shape, p, pr, pc), "body": body}


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
    from ..machine.model import laptop
    from ..obs.metrics import overlap_by_phase, run_totals

    m, n, k, p = OVERLAP_WORKLOAD
    mach_on = machine or laptop().with_overlap("full")
    mach_off = mach_on.with_overlap("none")

    data: dict = {"workload": {"m": m, "n": n, "k": k, "nprocs": p},
                  "overlap_mode": mach_on.overlap}
    lines = [
        f"overlap comparison — {m}x{n}x{k} P={p} "
        f"(engine {mach_on.overlap!r} vs 'none')",
    ]
    for label, setup, phase in (
        ("summa", overlap_summa(), "summa"),
        ("ca3dmm", {}, "cannon"),
    ):
        _plan, off = executed_workload(OVERLAP_WORKLOAD, mach_off, **setup)
        _plan, on = executed_workload(OVERLAP_WORKLOAD, mach_on, **setup)
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


def checkpoint_cost(
    name: str,
    ckpt_every: int = 1,
    kill_rank: int = 1,
    calls: int = 4,
    machine: MachineModel | None = None,
) -> BenchResult:
    """Checkpoint/restart overhead on a multi-call pipeline.

    Runs the alternating matmul chain (:func:`executed_chain`) on
    the stand-in workload for ``name`` clean and with ``kill_rank``
    killed mid-pipeline (:func:`clean_vs_faulted`) — both under
    :mod:`repro.ckpt` checkpointing every ``ckpt_every`` calls, and
    reports the checkpoint overhead (clean vs an uncheckpointed clean
    run), the recovery cost, and the reused-vs-recomputed flops split.
    A third clean run under a forced full-snapshot policy
    (``full_interval=1``) measures how many store bytes the default
    incremental (delta) checkpoints save.  Used by
    ``python -m repro.bench --ckpt-every``.
    """
    from ..apps.pipeline import matmul_chain_reference
    from ..ckpt import CheckpointPolicy, MemoryStore
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
    policy = CheckpointPolicy(every_calls=ckpt_every)
    delta_store, full_store = MemoryStore(), MemoryStore()

    def run(faults):
        # the clean run fills the store whose bytes are reported
        store = delta_store if faults is None else MemoryStore()
        return executed_chain(name, machine, faults, calls=calls,
                              store=store, policy=policy)

    _plan, bare = executed_chain(name, machine, calls=calls)
    executed_chain(
        name, machine, calls=calls, store=full_store,
        policy=CheckpointPolicy(every_calls=ckpt_every, full_interval=1),
    )
    pair = clean_vs_faulted(
        run, fault, matmul_chain_reference(m, n, k, calls=calls), tol=1e-8)
    if pair.failure:
        raise RuntimeError(f"checkpoint/restart failed: {pair.failure}")
    clean, faulted = pair.clean, pair.faulted
    fm = faulted.metrics
    ckpt_overhead = clean.time - bare.time
    data = {
        "calls": calls,
        "ckpt_every": ckpt_every,
        "kill_rank": kill_rank,
        "kill_call": kill_call,
        "bare_makespan_s": bare.time,
        "clean_makespan_s": clean.time,
        "ckpt_overhead_s": ckpt_overhead,
        "faulted_makespan_s": faulted.time,
        "delta_s": pair.delta_s,
        "recoveries": fm.recoveries,
        "reused_flops": fm.reused_flops,
        "recomputed_flops": fm.recomputed_flops,
        "one_call_flops": 2.0 * m * n * k,
        "failed_ranks": faulted.failed_ranks,
        "delta_bytes_written": delta_store.bytes_written,
        "full_bytes_written": full_store.bytes_written,
        "correct": pair.numeric_ok,
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
        f"(+{pair.delta_s * 1e3:.6f} ms recovery)",
        f"  flops accounting : {fm.reused_flops:.0f} reused, "
        f"{fm.recomputed_flops:.0f} recomputed "
        f"(one call = {2.0 * m * n * k:.0f})",
        f"  store bytes      : {delta_store.bytes_written} delta vs "
        f"{full_store.bytes_written} full-snapshot ({saved:.1f}% saved)",
        f"  recovered X      : "
        f"{'correct' if pair.numeric_ok else 'WRONG'} (tol {pair.tolerance:.3e})",
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


def workload_baseline(name: str, machine: MachineModel | None = None) -> dict:
    """Execute the stand-in workload for ``name`` and snapshot it as a
    perf-baseline document: makespan, per-phase critical seconds (from
    the binding chain), and traffic counters.  Raises ``KeyError`` for
    unknown names."""
    from ..obs.baseline import capture_baseline

    m, n, k, p = TRACE_WORKLOADS[name]
    _plan, result = executed_workload(name, machine)
    return capture_baseline(
        result,
        name,
        workload={"m": m, "n": n, "k": k, "nprocs": p},
        machine_label="pace_phoenix_cpu(mpi)" if machine is None else "custom",
    )


def baseline_artifact(
    name: str,
    outdir: str | Path,
    machine: MachineModel | None = None,
) -> Path:
    """Write (or refresh) :func:`workload_baseline` of ``name`` under
    ``outdir/<name>.json`` — the committed side of ``repro perfdiff``'s
    :func:`~repro.obs.baseline.check_gate` (the CI perf-gate), and what
    ``perfdiff --update`` and ``python -m repro.bench --baseline-dir``
    both call.  Returns the written path."""
    from ..obs.baseline import BaselineStore

    return BaselineStore(outdir).save(name, workload_baseline(name, machine))


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
