"""Every schedule's recorded trace and result, pinned byte for byte.

A refactor of what surrounds the kernels — rank order, steps 4 and 8, the
k-reduction, the native layouts — must not move a message, a span or a
tile.  ``schedule_digests.json`` holds one sha256 per (schedule, shape,
overlap mode), recorded at the commit *before* the schedules were
rewritten over ``repro.core.steps`` (PR 20) with :func:`digest` below;
re-record only for a change that means to alter a schedule, with::

    PYTHONPATH=src:. python -c "from tests.baselines.test_schedule_identity \
import record; record()"

The operands are small integers, so every product and partial sum is
exact in float64 and the tile bytes do not depend on the BLAS build or
its summation order; times and sizes in the records are IEEE arithmetic
on the machine model's constants.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro import BlockCol1D, BlockRow1D, DistMatrix, run_spmd
from repro.machine.model import laptop
from tests.conftest import schedules_for

DIGESTS = Path(__file__).with_name("schedule_digests.json")
#: (m, n, k, P): the cross-agreement shapes plus a prime and a cubic world.
SHAPES = [(24, 20, 28, 8), (40, 8, 8, 12), (9, 9, 60, 16), (33, 17, 5, 7), (64, 64, 64, 27)]
OVERLAPS = ("none", "full")


def digest(fn, m: int, n: int, k: int, p: int, overlap: str) -> str:
    """sha256 over ``obs.jsonl_records`` of one recorded run — header,
    every span, every rank summary — and every rank's result tiles, for
    the native result and for one converted to a row-band layout."""
    rng = np.random.default_rng(20)
    a_mat = rng.integers(-4, 5, (m, k)).astype(np.float64)
    b_mat = rng.integers(-4, 5, (k, n)).astype(np.float64)

    def body(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), p), a_mat)
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), p), b_mat)
        native = fn(a, b)
        user = fn(a, b, c_dist=BlockRow1D((m, n), p))
        return [(c.owned_rects, c.tiles) for c in (native, user)]

    res = run_spmd(p, body, machine=laptop().with_overlap(overlap), record_events=True)
    h = hashlib.sha256()
    for rec in obs.jsonl_records(res):
        h.update(json.dumps(rec, sort_keys=True).encode())
    for per_rank in res.results:
        for rects, tiles in per_rank:
            for rect, tile in zip(rects, tiles):
                h.update(repr((tuple(rect), tile.dtype.str, tile.shape)).encode())
                h.update(np.ascontiguousarray(tile).tobytes())
    return h.hexdigest()


#: "schedule/MxNxK/P/overlap" -> (callable, (m, n, k, P), overlap mode)
CASES = {
    f"{name}/{m}x{n}x{k}/P{p}/{overlap}": (fn, (m, n, k, p), overlap)
    for m, n, k, p in SHAPES
    for name, fn in schedules_for(p).items()
    for overlap in OVERLAPS
}


def record() -> None:
    table = {key: digest(fn, *shape, overlap) for key, (fn, shape, overlap) in CASES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(CASES)
    assert len(CASES) == 152  # 16 schedules x 5 shapes x 2 modes, Cannon on P=16 only


@pytest.mark.parametrize("key", sorted(CASES))
def test_trace_and_tiles_are_byte_identical(key):
    fn, shape, overlap = CASES[key]
    assert digest(fn, *shape, overlap) == RECORDED[key]
