"""The metrics snapshot of executed runs, pinned byte for byte.

Two sha256 per case: one over ``json.dumps(RunMetrics.to_dict(),
sort_keys=True)`` with the ``"registry"`` key left out, one over
:func:`~repro.obs.metrics.format_metrics`' text.  The snapshot once
carried a per-rank instrument registry, a third copy of every rank's
counters; removing it had to leave every other key and every rendered
line as it was.  The cases are every
:data:`~repro.bench.harness.TRACE_WORKLOADS` stand-in under each overlap
mode, snapshotted with and without the plan (two cases of one run), plus
an unrecorded run, a lossy and jittery link, a rank killed and healed by
``resilient_multiply(abft=True)``, a corrupted payload caught by ABFT
and a ``memory_limit_words`` cap no grid meets.
``metrics_digests.json`` was recorded before the registry was removed;
re-record only for a change that means to move a metrics field or line,
with ``python -m tests.oracles record metrics`` (see :mod:`tests.oracles`).
"""

from __future__ import annotations

import functools

from repro.bench.harness import TRACE_WORKLOADS
from repro.ft import resilient_multiply
from repro.layout import BlockCol1D
from repro.machine.model import pace_phoenix_cpu
from repro.mpi import FaultPlan, LinkFault, RankFault
from repro.obs.metrics import format_metrics, snapshot_run
from tests import oracles
from tests.oracles import Run, workload

OVERLAPS = ("none", "partial", "full")
#: The shape of the fault cases: BlockCol1D operands, as recovery needs.
FAULT_SHAPE = (24, 20, 28, 8)


def _healed(comm, a, b):
    m, n = a.shape[0], b.shape[1]
    resilient_multiply(comm, a, b, c_dist=lambda cm: BlockCol1D((m, n), cm.size),
                       abft=True, max_recoveries=1)


MPI = pace_phoenix_cpu("mpi")
_HEALED = functools.partial(workload, layout=BlockCol1D, body=_healed)
#: case name -> its run
SPECIAL = {
    "unrecorded": Run(workload, "fig5", machine=MPI, overlap="full", recorded=False),
    "lossy-link": Run(workload, "fig3", machine=MPI, faults=FaultPlan(seed=3, links=(
        LinkFault(drop_prob=0.2, jitter_s=2e-6),))),
    "killed-healed": Run(_HEALED, FAULT_SHAPE, machine=MPI, faults=FaultPlan(seed=0, ranks=(
        RankFault(rank=3, phase="cannon", occurrence=1, kill=True),))),
    "corrupted": Run(_HEALED, FAULT_SHAPE, machine=MPI, overlap="partial", faults=FaultPlan(
        seed=11, links=(LinkFault(phase="cannon", corrupt_at=(0,)),))),
    "infeasible-cap": Run(functools.partial(workload, memory_limit_words=10.0),
                          (24, 24, 24, 4), machine=MPI),
}
RUNS = {f"{name}/{overlap}": Run(workload, name, machine=MPI, overlap=overlap)
        for name in TRACE_WORKLOADS for overlap in OVERLAPS}
RUNS.update({f"{name}/{run.overlap}": run for name, run in SPECIAL.items()})


def _digests(with_plan: bool, outcome) -> dict[str, str]:
    plan, res = outcome
    metrics = snapshot_run(res, plan if with_plan else None)
    doc = metrics.to_dict()
    doc.pop("registry", None)
    return {"json": oracles.sha_json(doc), "text": oracles.sha(format_metrics(metrics))}


#: "name/overlap/plan|no-plan" -> (run, digests)
CASES = {f"{key}/{tag}": (run, functools.partial(_digests, tag == "plan"))
         for key, run in RUNS.items() for tag in ("plan", "no-plan")}
ORACLE = oracles.Oracle("metrics", __file__, CASES)


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(ORACLE.recorded) == sorted(CASES)
    assert len(CASES) == 2 * (3 * len(TRACE_WORKLOADS) + len(SPECIAL))


#: the fault cases' names -> a case of their run
FAULTED = {name: f"{name}/{SPECIAL[name].overlap}/plan"
           for name in ("lossy-link", "killed-healed", "corrupted", "infeasible-cap")}


@ORACLE.takes(lambda params: list(FAULTED.values()))
def test_the_fault_cases_exercise_what_they_name():
    """A case that stopped injecting anything would pin a clean run."""
    def metrics(name):
        plan, res = ORACLE.outcome(FAULTED[name])
        return snapshot_run(res, plan)

    assert metrics("lossy-link").total_retries > 0
    assert metrics("killed-healed").recoveries == 1
    assert metrics("corrupted").corruptions_detected > 0
    assert metrics("infeasible-cap").mem_limit_infeasible


test_the_metrics_snapshot_is_byte_identical = ORACLE.test()
