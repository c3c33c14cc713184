"""The six hostbench workloads.

Each workload is a class with the same three steps:

``__init__(seed, quick)``
    generate the operands from ``seed`` and plan (part of ``setup_s``);
``run(tmpdir)``
    one repetition through the public API of ``repro`` — this is the
    timed region, it returns the raw results and checks nothing;
``verify(out, tally)``
    untimed: compare every product tile-by-tile with numpy, and feed
    the run's deterministic record into the repetition's fingerprint.

P and the shapes are fixed in the workload's name; ``quick`` shrinks
them (P <= 16) for the smoke test only.  Everything runs on the DES
backend, because the threads backend is wall-noisy by construction.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import repro.obs as obs
from repro import (
    BlockCol1D,
    BlockCyclic2D,
    Ca3dmmPlan,
    DistMatrix,
    ca3dmm_matmul,
    ca3dmm_s_matmul,
    dense_random,
    run_spmd,
)
from repro.analysis.costs import ca3dmm_cost
from repro.analysis.verify import eq9_lower_bound
from repro.apps.pipeline import matmul_chain, matmul_chain_reference
from repro.baselines import (
    algo25d_matmul,
    algo3d_matmul,
    cannon_matmul,
    carma_matmul,
    cosma_matmul,
    ctf_matmul,
    matmul_1d,
    summa_auto_matmul,
    summa_matmul,
)
from repro.bench import (
    CPU_PROBLEMS,
    SCALING_PROCS,
    fig3_scaling,
    fig4_hybrid,
    fig5_breakdown,
    l_sweep,
    table1_memory,
    table2_grids,
)
from repro.ckpt import CheckpointPolicy, MemoryStore
from repro.core.autotune import tune
from repro.core.pdgemm import pdgemm
from repro.ft import resilient_multiply
from repro.layout.blocks import Rect, rects_cover_exactly
from repro.machine.model import pace_phoenix_cpu
from repro.mpi.faults import FaultPlan, LinkFault, RankFault
from repro.obs.metrics import ITEM  # bytes per word

MACHINE = pace_phoenix_cpu("mpi")


def spmd(nprocs, body, machine=MACHINE, **kw):
    """``run_spmd`` on the DES backend, the only backend benchmarked."""
    return run_spmd(nprocs, body, machine=machine, backend="des", **kw)


def tiles_of(c: DistMatrix):
    """What a rank hands back for checking: its rects and its tiles."""
    return c.owned_rects, c.tiles


class Tally:
    """What one repetition adds up to, apart from its host time."""

    def __init__(self) -> None:
        self.work = 0  #: messages delivered (table rows for the analytic workload)
        self.sim_s = 0.0  #: sum of virtual makespans
        self.q_words = 0.0  #: sum of max-rank words sent, CA3DMM multiplications
        self.q_bound = 0.0  #: sum of eq. (9) for the same multiplications
        self.ops_attempted = 0
        self.ops_failed = 0
        self._hash = hashlib.sha256()

    def record(self, doc) -> None:
        self._hash.update(json.dumps(doc, sort_keys=True).encode())

    @property
    def fingerprint(self) -> str:
        return self._hash.hexdigest()

    def run(self, result, ca3dmm_shape=None, nmults: int = 1) -> None:
        """Account one executed run; ``ca3dmm_shape`` = (m, n, k, P) adds
        its Q to the eq. (9) ratio (``nmults`` multiplications of it)."""
        self.work += sum(t.msgs_sent for t in result.traces)
        self.sim_s += result.time
        if ca3dmm_shape is not None:
            self.q_words += result.max_bytes_sent / ITEM
            self.q_bound += nmults * eq9_lower_bound(*ca3dmm_shape)
        for rec in obs.jsonl_records(result):
            if rec["type"] != "span":  # spans exist only with record_events
                self.record(rec)

    def product(self, result, ref: np.ndarray) -> None:
        """One op: every surviving rank's tiles equal the reference slice
        and the rects tile the product exactly.  No messages are sent:
        the ranks are threads, so the driver reads their tiles directly."""
        self.ops_attempted += 1
        tol = 1e-9 * max(1.0, float(np.abs(ref).max()))
        rects, ok = [], True
        for res in result.results:
            if res is None:  # a killed rank returns nothing
                continue
            for rect, tile in zip(*res):
                rects.append(rect)
                want = ref[rect.r0 : rect.r1, rect.c0 : rect.c1]
                ok = ok and tile.shape == want.shape and bool(
                    np.abs(tile - want).max(initial=0.0) <= tol
                )
        ok = ok and rects_cover_exactly(rects, Rect(0, ref.shape[0], 0, ref.shape[1]))
        self.ops_failed += not ok


# ------------------------------------------------------------ workloads -- #
class DesScaleP512:
    """30 080 small messages between 512 ranks: mpi.des handoff and mpi.transport
    matching are nearly all of the time."""

    name = "des_scale_p512"

    def __init__(self, seed: int, quick: bool, p: int = 512, n: int = 256) -> None:
        self.p, n = (min(p, 16), min(n, 64)) if quick else (p, n)
        self.a, self.b = dense_random(n, n, seed), dense_random(n, n, seed + 1)
        self.ref = self.a @ self.b
        self.plan = Ca3dmmPlan(n, n, n, self.p)
        # The probes rerun this body at other sizes, recorded and under faults.
        self.record_events = False
        self.faults = None

    def run(self, tmpdir):
        plan, a, b = self.plan, self.a, self.b

        def body(comm):
            return tiles_of(ca3dmm_matmul(
                DistMatrix.from_global(comm, plan.a_dist, a),
                DistMatrix.from_global(comm, plan.b_dist, b),
            ))

        return spmd(self.p, body, record_events=self.record_events, faults=self.faults)

    def verify(self, result, tally: Tally) -> None:
        n = self.plan.n
        tally.run(result, (n, n, n, self.p))
        tally.product(result, self.ref)


class DenseBlockCyclicP16:
    """992 messages moving 175 MB of block-cyclic tiles: layout.redistribute, numpy
    GEMM and payload copies dominate, the scheduler is idle."""

    name = "dense_blockcyclic_p16"

    def __init__(self, seed: int, quick: bool) -> None:
        n, bs = (256, 32) if quick else (1536, 64)
        self.n, self.p = n, 16
        self.a, self.b = dense_random(n, n, seed), dense_random(n, n, seed + 1)
        self.ref = self.a.T @ self.b
        self.dist = BlockCyclic2D((n, n), 16, 4, 4, bs)

    def run(self, tmpdir):
        dist, a, b = self.dist, self.a, self.b

        def body(comm):
            return tiles_of(pdgemm(
                "T", "N", 1.0,
                DistMatrix.from_global(comm, dist, a),
                DistMatrix.from_global(comm, dist, b),
                c_dist=dist,
            ))

        return spmd(self.p, body)

    def verify(self, result, tally: Tally) -> None:
        tally.run(result, (self.n, self.n, self.n, self.p))
        tally.product(result, self.ref)


class AlgoMixP64:
    """Eleven schedules under overlap=full: collectives and CollRequests on the
    async comm clock, the mpi layer used unlike Cannon's sendrecv."""

    name = "algo_mix_p64"
    ALGOS = (
        ca3dmm_matmul, ca3dmm_s_matmul, cosma_matmul, ctf_matmul, summa_matmul,
        summa_auto_matmul, matmul_1d, algo3d_matmul, algo25d_matmul,
        carma_matmul, cannon_matmul,
    )

    def __init__(self, seed: int, quick: bool) -> None:
        self.p, n = (16, 64) if quick else (64, 256)
        self.n = n
        self.a, self.b = dense_random(n, n, seed), dense_random(n, n, seed + 1)
        self.ref = self.a @ self.b
        self.dist = BlockCol1D((n, n), self.p)
        self.machine = MACHINE.with_overlap("full")

    def run(self, tmpdir):
        dist, a, b = self.dist, self.a, self.b
        out = []
        for algo in self.ALGOS:
            def body(comm, algo=algo):
                return tiles_of(algo(
                    DistMatrix.from_global(comm, dist, a),
                    DistMatrix.from_global(comm, dist, b),
                ))

            out.append(spmd(self.p, body, machine=self.machine))
        return out

    def verify(self, results, tally: Tally) -> None:
        for algo, result in zip(self.ALGOS, results):
            is_ca3dmm = algo in (ca3dmm_matmul, ca3dmm_s_matmul)
            tally.run(result, (self.n, self.n, self.n, self.p) if is_ca3dmm else None)
            tally.product(result, self.ref)


class TracedObsP128(DesScaleP512):
    """Event recording on, then every obs report and exporter on the result: obs
    does most of the work, so dropped or deferred recording shows as a loss."""

    name = "traced_obs_p128"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick, p=128)
        self.record_events = True

    def run(self, tmpdir):
        result = super().run(tmpdir)
        plan = self.plan
        reports = {
            "metrics": obs.snapshot_run(result, plan).to_dict(),
            "audit": obs.audit_run(result, plan, machine=MACHINE).to_dict(),
            "critpath": obs.critpath_report(result).to_dict(),
            "drift": obs.drift_report(result, plan, machine=MACHINE).ok,
            "memprof": obs.memprof_run(result, plan).to_dict(),
            "chrome_events": len(obs.write_chrome_trace(
                result, os.path.join(tmpdir, "trace.json"))["traceEvents"]),
            "jsonl_records": obs.write_jsonl(result, os.path.join(tmpdir, "trace.jsonl")),
            "ledger": obs.ledger_record(result, plan, "hostbench", run_id="0" * 32),
        }
        return result, reports

    def verify(self, out, tally: Tally) -> None:
        result, reports = out
        super().verify(result, tally)
        tally.record(reports)


class AnalyticPaperScale:
    """The paper's figures and tables at 192-3072 ranks: grid, analysis and
    machine.collcost only, no mpi, so no mpi change may move it."""

    name = "analytic_paper_scale"
    GENERATORS = (
        fig3_scaling, fig4_hybrid, table1_memory, table2_grids, fig5_breakdown, l_sweep,
    )

    def __init__(self, seed: int, quick: bool) -> None:
        # The paper's problems are the input; the seed has nothing to vary.
        self.problems = CPU_PROBLEMS[:1] if quick else CPU_PROBLEMS
        self._modelled = None

    def run(self, tmpdir):
        tables = [gen(problems=self.problems) for gen in self.GENERATORS]
        tuned = tune(*CPU_PROBLEMS[0].dims, SCALING_PROCS[-1], MACHINE)
        return tables, tuned

    def modelled(self):
        """Fig. 3's points through the cost model: (sum of t_total, sum of
        modelled Q, sum of eq. (9)).  The same every repetition."""
        if self._modelled is None:
            t = q = bound = 0.0
            for prob in self.problems:
                for procs in SCALING_PROCS:
                    rep = ca3dmm_cost(*prob.dims, procs, MACHINE)
                    t, q = t + rep.t_total, q + rep.q_words
                    bound += eq9_lower_bound(*prob.dims, procs)
            self._modelled = (t, q, bound)
        return self._modelled

    def verify(self, out, tally: Tally) -> None:
        tables, tuned = out
        tally.ops_attempted += 1  # one op: the repetition reproduces the tables
        for table in tables:
            tally.work += len(table.text.splitlines())
            tally.record([table.name, table.text, repr(table.data)])
        tally.work += len(tuned.candidates)
        tally.record([(c.inner, c.grid.pm, c.grid.pn, c.grid.pk, c.report.t_total)
                      for c in tuned.candidates])
        tally.sim_s, tally.q_words, tally.q_bound = self.modelled()


class FaultedRecoveryP32:
    """Link drops with retry, a rank kill healed by ABFT recovery, a checkpointed
    chain with a mid-pipeline kill: the branches clean workloads never enter."""

    name = "faulted_recovery_p32"
    CALLS = 4

    def __init__(self, seed: int, quick: bool) -> None:
        self.p, n = (16, 48) if quick else (32, 192)
        self.n, self.seed = n, seed
        self.a, self.b = dense_random(n, n, seed), dense_random(n, n, seed + 1)
        self.ref = self.a @ self.b
        self.chain_seeds = (seed + 2, seed + 3)
        self.chain_ref = matmul_chain_reference(n, n, n, self.CALLS, seeds=self.chain_seeds)
        self.plan = Ca3dmmPlan(n, n, n, self.p)
        self.link_faults = FaultPlan(
            seed=seed, links=(LinkFault(drop_prob=0.05, jitter_s=2e-6),))
        self.kill = FaultPlan(
            seed=seed, ranks=(RankFault(rank=5, phase="cannon", occurrence=1, kill=True),))
        self.chain_kill = FaultPlan(
            seed=seed,
            ranks=(RankFault(rank=3, phase="cannon", occurrence=self.CALLS // 2 + 1,
                             kill=True),))

    def run(self, tmpdir):
        plan, a, b, n = self.plan, self.a, self.b, self.n

        def operands(comm):
            return (DistMatrix.from_global(comm, plan.a_dist, a),
                    DistMatrix.from_global(comm, plan.b_dist, b))

        def lossy(comm):
            return tiles_of(ca3dmm_matmul(*operands(comm)))

        def killed(comm):
            return tiles_of(resilient_multiply(
                comm, *operands(comm), abft=True, max_recoveries=2))

        store = MemoryStore()

        def chain(comm):
            res = matmul_chain(
                comm, n, n, n, calls=self.CALLS, store=store,
                policy=CheckpointPolicy(every_calls=1), seeds=self.chain_seeds)
            return tiles_of(res.state["X"])

        return (
            spmd(self.p, lossy, faults=self.link_faults),
            spmd(self.p, killed, faults=self.kill),
            spmd(self.p, chain, faults=self.chain_kill),
        )

    def verify(self, out, tally: Tally) -> None:
        shape = (self.n, self.n, self.n, self.p)
        for result, ref, nmults in zip(
            out, (self.ref, self.ref, self.chain_ref), (1, 1, self.CALLS)
        ):
            tally.run(result, shape, nmults)
            tally.product(result, ref)


WORKLOADS = {
    w.name: w
    for w in (
        DesScaleP512, DenseBlockCyclicP16, AlgoMixP64, TracedObsP128,
        AnalyticPaperScale, FaultedRecoveryP32,
    )
}
