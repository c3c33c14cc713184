"""Isolation probes: each layer of ``repro`` called alone.

Every probe times a body with ``perf_counter`` and reports the median of
``SAMPLES`` runs after one untimed warm-up.  They are sized to a few
tens of milliseconds each, because the whole set runs inside every
traced pass; ``quick`` shrinks the communicators to P <= 16.  The sizes
are part of the metric: change one and the trajectory starts again.
Units and directions are declared in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter

import numpy as np

import repro.obs as obs
from repro import Block2D, BlockCyclic2D, Ca3dmmPlan, DistMatrix, ca3dmm_grid, redistribute
from repro.analysis.baseline_costs import algo1d_cost, algo25d_cost, carma_cost, summa_cost
from repro.analysis.costs import ca3dmm_cost, cosma_cost
from repro.apps.pipeline import matmul_chain
from repro.baselines import summa_matmul
from repro.bench import CPU_PROBLEMS, SCALING_PROCS
from repro.ckpt import CheckpointPolicy, MemoryStore
from repro.ft import resilient_multiply
from repro.machine.collcost import ca3dmm_phase_costs
from repro.mpi import SUM
from repro.mpi.faults import FaultPlan, LinkFault, RankFault

from workloads import MACHINE, DesScaleP512, spmd

SAMPLES = 5
MIB = float(1 << 20)


def noop(comm):
    return None


def run_probes(seed: int, quick: bool, tmpdir: str) -> dict[str, float]:
    """All probes: ``{metric name: value}``."""
    out: dict[str, float] = {}
    big, p = (16, 16) if quick else (512, 64)

    def median_s(fn, samples: int = 2 if quick else SAMPLES, warm_up: bool = True) -> float:
        """Median wall seconds of ``fn()`` after one warm-up call."""
        if warm_up:
            fn()
        times = []
        for _ in range(samples):
            gc.collect()
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def spmd_s(nprocs: int, body, **kw) -> float:
        return median_s(lambda: spmd(nprocs, body, **kw))

    # ------------------------------------------------ mpi.runtime / des -- #
    out["mpi.runtime.spawn_us_per_rank"] = spmd_s(big, noop) / big * 1e6
    spawn_p = spmd_s(p, noop)

    def per_call_us(body, calls: int, **kw) -> float:
        """Microseconds per call at P ranks, rank start-up taken off."""
        return (spmd_s(p, body, **kw) - spawn_p) / calls * 1e6

    laps, burst_n = 8, 64

    def ring(comm):  # one message in flight: every message costs a rank switch
        nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        for _ in range(laps):
            if comm.rank == 0:
                comm.send(0, nxt)
                comm.recv(prv)
            else:
                comm.send(comm.recv(prv), nxt)

    def burst(comm):  # matching and clock charging, no switch between messages
        nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        reqs = [comm.isend(i, nxt, tag=i) for i in range(burst_n)]
        for i in range(burst_n):
            comm.recv(prv, tag=i)
        for req in reqs:
            req.wait()

    ring_us = per_call_us(ring, p * laps)
    burst_us = per_call_us(burst, p * burst_n)
    out["mpi.des.ring_us_per_msg"] = ring_us
    out["mpi.transport.burst_us_per_msg"] = burst_us
    out["mpi.des.handoff_us"] = ring_us - burst_us

    def msgs_per_s(nprocs: int, samples: int) -> float:
        w = DesScaleP512(seed, quick, p=nprocs)
        msgs = sum(t.msgs_sent for t in w.run(tmpdir).traces)  # and the warm-up
        return msgs / median_s(lambda: w.run(tmpdir), samples, warm_up=False)

    # One sample at P=512 after its warm-up: a run costs 2 s, and this is a ratio of rates.
    out["mpi.des.rate_ratio_p512_p64"] = msgs_per_s(512, 1) / msgs_per_s(64, SAMPLES)

    # --------------------------------------------------- mpi.transport -- #
    nbytes = (1 << 20) if quick else (8 << 20)
    array = np.zeros(nbytes // 8)
    tiles = list(array.reshape(64, -1))  # a container payload: the pickle path

    def exchange_mb_per_s(payload) -> float:
        def body(comm):
            comm.sendrecv(payload, 1 - comm.rank, 1 - comm.rank)
        return 2 * nbytes / MIB / spmd_s(2, body)

    out["mpi.transport.array_mb_per_s"] = exchange_mb_per_s(array)
    out["mpi.transport.container_mb_per_s"] = exchange_mb_per_s(tiles)

    # ------------------------------------ mpi.collectives / mpi.request -- #
    kib = np.zeros(128)  # 1 KiB per rank
    calls = 2
    overlapped = MACHINE.with_overlap("full")
    collectives = {
        "mpi.collectives.barrier_us": (lambda c: c.barrier(), MACHINE),
        "mpi.collectives.bcast_us": (lambda c: c.bcast(kib), MACHINE),
        "mpi.collectives.allgather_us": (lambda c: c.allgather(kib), MACHINE),
        "mpi.collectives.reduce_scatter_us": (
            lambda c: c.reduce_scatter([kib] * c.size, SUM), MACHINE),
        "mpi.collectives.alltoall_us": (lambda c: c.alltoall([kib] * c.size), MACHINE),
        "mpi.collectives.allreduce_us": (lambda c: c.allreduce(kib, SUM), MACHINE),
        "mpi.request.icoll_us": (lambda c: c.ibcast(kib).wait(), overlapped),
    }
    for metric, (call, machine) in collectives.items():
        def body(comm, call=call):
            for _ in range(calls):
                call(comm)

        out[metric] = per_call_us(body, calls, machine=machine)

    # ----------------------------------------------------------- layout -- #
    n = 256 if quick else 1536  # the size of dense_blockcyclic_p16
    mat = np.zeros((n, n))

    def layout_s(size: int, bs: int, move: bool) -> float:
        src = BlockCyclic2D((size, size), 16, 4, 4, bs)
        dst = Block2D((size, size), 16, 4, 4)
        view = mat[:size, :size]

        def body(comm):
            d = DistMatrix.from_global(comm, src, view)
            if move:
                redistribute(d, dst)

        return spmd_s(16, body)

    mib = n * n * 8 / MIB
    sliced_s = layout_s(n, 64, move=False)
    out["layout.from_global.mb_per_s"] = mib / (sliced_s - spmd_s(16, noop))
    out["layout.redistribute.mb_per_s"] = mib / (layout_s(n, 64, move=True) - sliced_s)
    # Rect bookkeeping: 16x16 blocks of the half-size matrix, 2 304 rects, a
    # quarter of the bytes.
    half = n // 2
    out["layout.redistribute.rects_per_s"] = (half // 16) ** 2 / (
        layout_s(half, 16, move=True) - layout_s(half, 16, move=False))

    # ------------------------------------- core.plan / grid / analysis -- #
    def build_plan():
        plan = Ca3dmmPlan(256, 256, 256, big)
        return plan.a_dist, plan.b_dist, plan.c_dist

    out["core.plan.build_ms_p512"] = median_s(build_plan) * 1e3
    # Fig. 3's points: 4 problems x 5 process counts.
    points = [(*prob.dims, procs) for prob in CPU_PROBLEMS for procs in SCALING_PROCS]
    if quick:
        points = points[:2]
    out["grid.ca3dmm_grid.us_per_call"] = (
        median_s(lambda: [ca3dmm_grid(*pt) for pt in points]) / len(points) * 1e6)
    grids = [ca3dmm_grid(*pt) for pt in points]  # priced alone, the search is above
    out["analysis.costs.us_per_call"] = median_s(
        lambda: [ca3dmm_cost(*pt, MACHINE, grid=g) for pt, g in zip(points, grids)]
    ) / len(points) * 1e6

    # The crossover map of benchmarks/bench_crossover_map.py: fixed mnk, P=768.
    total = 4096 ** 3
    sides = {r: round((total / r) ** (1 / 3)) for r in (1, 4, 16, 64)}
    shapes = [(s, s, s * r) for r, s in sides.items()]
    shapes += [(s * r, s, s) for r, s in sides.items() if r > 1]
    if quick:
        shapes = shapes[:1]
    algos = (ca3dmm_cost, cosma_cost, algo1d_cost, summa_cost, algo25d_cost, carma_cost)
    out["analysis.baseline_costs.sweep_ms"] = median_s(
        lambda: [fn(*shape, 768, MACHINE).t_total for shape in shapes for fn in algos]) * 1e3
    plans = [Ca3dmmPlan(256, 256, 256, q) for q in (16, 64, 128, big)]
    out["machine.collcost.us_per_call"] = (
        median_s(lambda: [ca3dmm_phase_costs(pl, MACHINE) for pl in plans])
        / len(plans) * 1e6)

    # -------------------------------------------------------------- obs -- #
    # One small multiplication (64^3 on 16 ranks) for the obs and fault probes.
    w = DesScaleP512(seed, quick, p=16, n=64)
    clean_s = median_s(lambda: w.run(tmpdir))
    w.record_events = True
    out["obs.record.overhead_ratio"] = median_s(lambda: w.run(tmpdir)) / clean_s
    recorded, plan = w.run(tmpdir), w.plan
    w.record_events = False
    reports = {
        "obs.metrics.ms": lambda: obs.snapshot_run(recorded, plan),
        "obs.audit.ms": lambda: obs.audit_run(recorded, plan, machine=MACHINE),
        "obs.critpath.ms": lambda: obs.critpath_report(recorded),
        "obs.drift.ms": lambda: obs.drift_report(recorded, plan, machine=MACHINE),
        "obs.memtrace.ms": lambda: obs.memprof_run(recorded, plan),
        "obs.ledger.ms": lambda: obs.ledger_record(recorded, plan, "hostbench"),
        "obs.export.chrome_ms": lambda: obs.write_chrome_trace(
            recorded, os.path.join(tmpdir, "probe.json")),
        "obs.export.jsonl_ms": lambda: obs.write_jsonl(
            recorded, os.path.join(tmpdir, "probe.jsonl")),
    }
    for name, call in reports.items():
        out[name] = median_s(call) * 1e3

    # ------------------------------------------------ faults, ft, ckpt -- #
    w.faults = FaultPlan(seed=seed, links=(LinkFault(drop_prob=0.05, jitter_s=2e-6),))
    out["mpi.faults.retry_overhead_ratio"] = median_s(lambda: w.run(tmpdir)) / clean_s
    a, b, nn = w.a, w.b, plan.n

    def resilient_s(abft: bool, faults=None) -> float:
        def body(comm):
            resilient_multiply(
                comm,
                DistMatrix.from_global(comm, plan.a_dist, a),
                DistMatrix.from_global(comm, plan.b_dist, b),
                abft=abft, max_recoveries=2)

        return spmd_s(w.p, body, faults=faults)

    def chain_s(store, policy) -> float:
        def body(comm):
            matmul_chain(comm, nn, nn, nn, calls=2, store=store, policy=policy)

        return spmd_s(w.p, body)

    plain_s = resilient_s(abft=False)
    out["ft.abft.overhead_ratio"] = resilient_s(abft=True) / plain_s
    kill = FaultPlan(
        seed=seed, ranks=(RankFault(rank=5, phase="cannon", occurrence=1, kill=True),))
    out["ft.recovery.ms"] = (resilient_s(abft=False, faults=kill) - plain_s) * 1e3
    out["ckpt.pipeline.overhead_ratio"] = (
        chain_s(MemoryStore(), CheckpointPolicy(every_calls=1)) / chain_s(None, None))

    # -------------------------------------------------------- mpi.async -- #
    grid_dist = Block2D((nn, nn), w.p, 4, 4)

    def summa(comm):
        summa_matmul(DistMatrix.from_global(comm, grid_dist, a),
                     DistMatrix.from_global(comm, grid_dist, b), grid=(4, 4), panel=nn // 8)

    run = spmd(w.p, summa, machine=overlapped)
    phases = [st for t in run.live_traces for st in t.phases.values()]
    covered = sum(st.comm_covered_time for st in phases)
    out["mpi.async.covered_share"] = covered / (covered + sum(st.comm_time for st in phases))
    return out
