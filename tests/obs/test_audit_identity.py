"""The audit document of executed runs, pinned byte for byte.

One sha256 per case over ``json.dumps(AuditReport.to_dict(),
sort_keys=True)``, with each phase row's ``collcost_words`` and
``rel_err_collcost`` left out: the audit once carried an α-β column
priced by a second set of collective formulas, and removing it had to
leave every other field of every row as it was.  The cases are every
:data:`~repro.bench.harness.TRACE_WORKLOADS` stand-in, and the five
(m, n, k) of ``tests/baselines/test_schedule_identity.py`` at P = 1, 4,
8, 16, 64 under each overlap mode; each case is audited with and
without ``machine=``.  ``audit_digests.json`` was recorded with
:func:`digest` below before that column was removed; re-record only for
a change that means to move an audit field, with::

    PYTHONPATH=src:. python -c "from tests.obs.test_audit_identity \
import record; record()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.harness import TRACE_WORKLOADS, executed_workload
from repro.machine.model import pace_phoenix_cpu
from repro.obs.audit import audit_run

DIGESTS = Path(__file__).with_name("audit_digests.json")
OVERLAPS = ("none", "partial", "full")
#: The (m, n, k) of ``tests/baselines/test_schedule_identity.SHAPES``.
SHAPES = [(24, 20, 28), (40, 8, 8), (9, 9, 60), (33, 17, 5), (64, 64, 64)]
NPROCS = (1, 4, 8, 16, 64)
#: Fields of a phase row the digest leaves out (the removed α-β column).
DROPPED = ("collcost_words", "rel_err_collcost")


def digest(workload, overlap: str, with_machine: bool) -> str:
    mach = pace_phoenix_cpu("mpi").with_overlap(overlap)
    plan, res = executed_workload(workload, machine=mach, record_events=False)
    doc = audit_run(res, plan, machine=mach if with_machine else None).to_dict()
    for row in doc["phases"]:
        for key in DROPPED:
            row.pop(key, None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _key(workload, overlap: str, with_machine: bool) -> str:
    name = workload if isinstance(workload, str) else "x".join(map(str, workload))
    return f"{name}/{overlap}/{'machine' if with_machine else 'no-machine'}"


_ARGS = [(name, "none", given) for name in TRACE_WORKLOADS for given in (True, False)]
_ARGS += [((*shape, p), overlap, given)
          for shape in SHAPES for p in NPROCS for overlap in OVERLAPS
          for given in (True, False)]
#: "workload/overlap/machine|no-machine" -> digest() arguments
CASES = {_key(*args): args for args in _ARGS}


def record() -> None:
    table = {key: digest(*args) for key, args in CASES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(CASES)
    assert len(CASES) == 2 * len(TRACE_WORKLOADS) + 2 * 5 * 5 * 3


@pytest.mark.parametrize("key", sorted(CASES))
def test_the_audit_document_is_byte_identical(key):
    assert digest(*CASES[key]) == RECORDED[key]
