"""The metrics snapshot of executed runs, pinned byte for byte.

Two sha256 per case: one over ``json.dumps(RunMetrics.to_dict(),
sort_keys=True)`` with the ``"registry"`` key left out, one over
:func:`~repro.obs.metrics.format_metrics`' text.  The snapshot once
carried a per-rank instrument registry, a third copy of every rank's
counters; removing it had to leave every other key and every rendered
line as it was.  The cases are every
:data:`~repro.bench.harness.TRACE_WORKLOADS` stand-in under each overlap
mode, snapshotted with and without the plan, plus an unrecorded run, a
lossy and jittery link, a rank killed and healed by
``resilient_multiply(abft=True)``, a corrupted payload caught by ABFT
and a ``memory_limit_words`` cap no grid meets.
``metrics_digests.json`` was recorded with :func:`digests` below before
the registry was removed; re-record only for a change that means to move
a metrics field or line, with::

    PYTHONPATH=src:. python -c "from tests.obs.test_metrics_identity \
import record; record()"
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from repro.bench.harness import TRACE_WORKLOADS, executed_workload
from repro.ft import resilient_multiply
from repro.layout import BlockCol1D
from repro.machine.model import pace_phoenix_cpu
from repro.mpi import FaultPlan, LinkFault, RankFault
from repro.obs.metrics import format_metrics, snapshot_run

DIGESTS = Path(__file__).with_name("metrics_digests.json")
OVERLAPS = ("none", "partial", "full")
#: The shape of the fault cases: BlockCol1D operands, as recovery needs.
FAULT_SHAPE = (24, 20, 28, 8)


def _healed(comm, a, b):
    m, n = a.shape[0], b.shape[1]
    resilient_multiply(comm, a, b, c_dist=lambda cm: BlockCol1D((m, n), cm.size),
                       abft=True, max_recoveries=1)


#: case name -> (workload, overlap, executed_workload keywords)
SPECIAL = {
    "unrecorded": ("fig5", "full", {"record_events": False}),
    "lossy-link": ("fig3", "none", {"faults": FaultPlan(seed=3, links=(
        LinkFault(drop_prob=0.2, jitter_s=2e-6),))}),
    "killed-healed": (FAULT_SHAPE, "none", {
        "faults": FaultPlan(seed=0, ranks=(
            RankFault(rank=3, phase="cannon", occurrence=1, kill=True),)),
        "layout": BlockCol1D, "body": _healed}),
    "corrupted": (FAULT_SHAPE, "partial", {
        "faults": FaultPlan(seed=11, links=(
            LinkFault(phase="cannon", corrupt_at=(0,)),)),
        "layout": BlockCol1D, "body": _healed}),
    "infeasible-cap": ((24, 24, 24, 4), "none", {"memory_limit_words": 10.0}),
}


def _snapshot(workload, overlap: str, with_plan: bool, **kwargs):
    mach = pace_phoenix_cpu("mpi").with_overlap(overlap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the infeasible cap warns
        plan, res = executed_workload(workload, machine=mach, **kwargs)
    return snapshot_run(res, plan if with_plan else None)


def digests(workload, overlap: str, with_plan: bool, **kwargs) -> dict[str, str]:
    metrics = _snapshot(workload, overlap, with_plan, **kwargs)
    doc = metrics.to_dict()
    doc.pop("registry", None)
    return {
        "json": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        "text": hashlib.sha256(format_metrics(metrics).encode()).hexdigest(),
    }


def _case(name, workload, overlap, kwargs):
    return {f"{name}/{overlap}/{'plan' if given else 'no-plan'}":
            (workload, overlap, given, kwargs) for given in (True, False)}


CASES: dict[str, tuple] = {}
for _name in TRACE_WORKLOADS:
    for _overlap in OVERLAPS:
        CASES.update(_case(_name, _name, _overlap, {}))
for _name, (_workload, _overlap, _kwargs) in SPECIAL.items():
    CASES.update(_case(_name, _workload, _overlap, _kwargs))


def record() -> None:
    table = {key: digests(w, o, g, **kw) for key, (w, o, g, kw) in CASES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(CASES)
    assert len(CASES) == 2 * (3 * len(TRACE_WORKLOADS) + len(SPECIAL))


def test_the_fault_cases_exercise_what_they_name():
    """A case that stopped injecting anything would pin a clean run."""
    def metrics(name):
        workload, overlap, kwargs = SPECIAL[name]
        return _snapshot(workload, overlap, True, **kwargs)

    assert metrics("lossy-link").total_retries > 0
    assert metrics("killed-healed").recoveries == 1
    assert metrics("corrupted").corruptions_detected > 0
    assert metrics("infeasible-cap").mem_limit_infeasible


@pytest.mark.parametrize("key", sorted(CASES))
def test_the_metrics_snapshot_is_byte_identical(key):
    workload, overlap, with_plan, kwargs = CASES[key]
    assert digests(workload, overlap, with_plan, **kwargs) == RECORDED[key]
