"""The audit document of executed runs, pinned byte for byte.

One sha256 per case over ``json.dumps(AuditReport.to_dict(),
sort_keys=True)``, with each phase row's ``collcost_words`` and
``rel_err_collcost`` left out: the audit once carried an α-β column
priced by a second set of collective formulas, and removing it had to
leave every other field of every row as it was.  The cases are every
:data:`~repro.bench.harness.TRACE_WORKLOADS` stand-in, and the five
(m, n, k) of ``tests/baselines/test_schedule_identity.py`` at P = 1, 4,
8, 16, 64 under each overlap mode; each case is audited with and
without ``machine=``, two cases of one run.  ``audit_digests.json`` was
recorded before that column was removed; re-record only for a change
that means to move an audit field, with ``python -m tests.oracles
record audit`` (see :mod:`tests.oracles`).
"""

from __future__ import annotations

import functools

from repro.bench.harness import TRACE_WORKLOADS
from repro.machine.model import pace_phoenix_cpu
from repro.obs.audit import audit_run
from tests import oracles

OVERLAPS = ("none", "partial", "full")
#: The (m, n, k) of ``tests/baselines/test_schedule_identity.SHAPES``.
SHAPES = [(24, 20, 28), (40, 8, 8), (9, 9, 60), (33, 17, 5), (64, 64, 64)]
NPROCS = (1, 4, 8, 16, 64)
#: Fields of a phase row the digest leaves out (the removed α-β column).
DROPPED = ("collcost_words", "rel_err_collcost")


def _digest(with_machine: bool, outcome) -> str:
    plan, res = outcome
    doc = audit_run(res, plan, machine=res.transport.machine if with_machine else None).to_dict()
    for row in doc["phases"]:
        for key in DROPPED:
            row.pop(key, None)
    return oracles.sha_json(doc)


#: (workload, overlap mode) of every run
RUNS = [(name, "none") for name in TRACE_WORKLOADS] + [
    ((*shape, p), overlap) for shape in SHAPES for p in NPROCS for overlap in OVERLAPS]
#: "workload/overlap/machine|no-machine" -> (run, digest)
CASES = {
    f"{w if isinstance(w, str) else 'x'.join(map(str, w))}/{overlap}/{tag}": (
        oracles.Run(oracles.workload, w, machine=pace_phoenix_cpu("mpi"), overlap=overlap,
                    recorded=False), functools.partial(_digest, tag == "machine"))
    for w, overlap in RUNS for tag in ("machine", "no-machine")
}
ORACLE = oracles.Oracle("audit", __file__, CASES)


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(ORACLE.recorded) == sorted(CASES)
    assert len(CASES) == 2 * len(TRACE_WORKLOADS) + 2 * 5 * 5 * 3


test_the_audit_document_is_byte_identical = ORACLE.test()
