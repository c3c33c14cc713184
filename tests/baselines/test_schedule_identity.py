"""Every schedule's recorded trace and result, pinned byte for byte.

A refactor of what surrounds the kernels — rank order, steps 4 and 8, the
k-reduction, the native layouts — must not move a message, a span or a
tile.  ``schedule_digests.json`` holds one sha256 per (schedule, shape,
overlap mode), recorded at the commit *before* the schedules were
rewritten over ``repro.core.steps``; re-record only for a change that
means to alter a schedule, with ``python -m tests.oracles record
schedule`` (see :mod:`tests.oracles`).

The operands are small integers, so every product and partial sum is
exact in float64 and the tile bytes do not depend on the BLAS build or
its summation order; times and sizes in the records are IEEE arithmetic
on the machine model's constants.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

import repro.obs as obs
from repro import BlockCol1D, BlockRow1D, DistMatrix
from repro.machine.model import laptop
from tests import oracles
from tests.conftest import schedules_for

#: (m, n, k, P): the cross-agreement shapes plus a prime and a cubic world.
SHAPES = [(24, 20, 28, 8), (40, 8, 8, 12), (9, 9, 60, 16), (33, 17, 5, 7), (64, 64, 64, 27)]
OVERLAPS = ("none", "full")


def _run(fn, run):
    """Every rank's result tiles, for the native result and for one
    converted to a row-band layout."""
    (m, n, k), p = run.shape, run.P
    rng = np.random.default_rng(20)
    a_mat = rng.integers(-4, 5, (m, k)).astype(np.float64)
    b_mat = rng.integers(-4, 5, (k, n)).astype(np.float64)

    def body(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), p), a_mat)
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), p), b_mat)
        native = fn(a, b)
        user = fn(a, b, c_dist=BlockRow1D((m, n), p))
        return [(c.owned_rects, c.tiles) for c in (native, user)]

    return oracles.spmd(run, body)


def digest(outcome) -> str:
    """sha256 over ``obs.jsonl_records`` of one recorded run — header,
    every span, every rank summary — and every rank's result tiles."""
    h = hashlib.sha256("".join(json.dumps(rec, sort_keys=True)
                               for rec in obs.jsonl_records(outcome.result)).encode())
    for per_rank in outcome.results:
        for rects, tiles in per_rank:
            oracles.tiles(h, rects, tiles)
    return h.hexdigest()


#: "schedule/MxNxK/P/overlap" -> (run, digest)
CASES = {
    f"{name}/{m}x{n}x{k}/P{p}/{overlap}": (
        oracles.Run(functools.partial(_run, fn), (m, n, k), p, laptop(), overlap), digest)
    for m, n, k, p in SHAPES
    for name, fn in schedules_for(p).items()
    for overlap in OVERLAPS
}
ORACLE = oracles.Oracle("schedule", __file__, CASES)


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(ORACLE.recorded) == sorted(CASES)
    assert len(CASES) == 152  # 16 schedules x 5 shapes x 2 modes, Cannon on P=16 only


test_trace_and_tiles_are_byte_identical = ORACLE.test()
