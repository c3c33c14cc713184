"""Every grid the search selects, pinned by digest.

``search_digests.json`` holds, per selector, the sha256 of the ``repr``
of every ``((P, l, shape), result)`` row it produced over the world
sizes, bounds and shapes below: ``ca3dmm_grid``, ``cosma_grid``,
``enumerate_grids`` (with and without eq. (7)) and the near-optimal list
``tune`` ranks (``best_grids(..., require_divisible=True,
use_latency=False, count=8)``).  The calls visit each world size's
``(l, require_divisible)`` keys interleaved — eq. (7) on and off in
turn, for every ``l`` in turn — so a candidate table reused under a key that
leaves out ``P``, ``l`` or the divisibility flag hands some selector the
wrong candidates and moves its digest.  It was recorded before the
candidate tables were shared, with :func:`record`; re-record only for a
change that means to move a grid, with::

    PYTHONPATH=src:. python -c "from tests.grid.test_search_identity \
import record; record()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.workloads import CPU_PROBLEMS, SCALING_PROCS
from repro.grid.optimizer import best_grids, ca3dmm_grid, cosma_grid, enumerate_grids

DIGESTS = Path(__file__).with_name("search_digests.json")

PROCS = tuple(dict.fromkeys(list(range(1, 257)) + list(SCALING_PROCS)))
LS = (0.85, 0.9, 0.95, 0.99, 1.0)
SHAPES = tuple(p.dims for p in CPU_PROBLEMS)
SELECTORS = ("ca3dmm_grid", "cosma_grid", "enumerate_grids", "near_optimal")


def _near_optimal(m, n, k, P, l):
    return best_grids(m, n, k, P, l, require_divisible=True, use_latency=False, count=8)


def evaluate() -> dict:
    """One interleaved pass over every key: per selector, the number of
    calls and the digest of their rows."""
    sha = {name: hashlib.sha256() for name in SELECTORS}
    calls = dict.fromkeys(SELECTORS, 0)

    def row(name, key, result):
        sha[name].update(repr((key, result)).encode())
        calls[name] += 1

    for P in PROCS:
        for l in LS:
            for dims in SHAPES:
                row("ca3dmm_grid", (P, l, dims), ca3dmm_grid(*dims, P, l))
            for divisible in (False, True):
                row("enumerate_grids", (P, l, divisible), enumerate_grids(P, l, divisible))
            for dims in SHAPES:
                row("cosma_grid", (P, l, dims), cosma_grid(*dims, P, l))
            for dims in SHAPES:
                row("near_optimal", (P, l, dims), _near_optimal(*dims, P, l))
    return {name: {"calls": calls[name], "digest": sha[name].hexdigest()} for name in SELECTORS}


def record() -> None:
    DIGESTS.write_text(json.dumps(evaluate(), indent=0, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def evaluated() -> dict:
    return evaluate()


def test_every_selector_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(SELECTORS)
    assert len(PROCS) == 260


@pytest.mark.parametrize("selector", SELECTORS)
def test_selections_are_identical(selector, evaluated):
    assert evaluated[selector] == RECORDED[selector]
