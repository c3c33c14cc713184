"""What a schedule's layouts cost the host, as counts (not a stopwatch).

Every rank of a run names the identical native layouts, and the tables a
conversion derives from one (``Distribution.rect_index``) are O(P): built
per rank they are an O(P^2) start-up, the cost ``shared_plan`` removed for
CA3DMM.  Each schedule's layout constructor is memoized the same way, so
one run builds each layout — and each layout's index — once, at any P.
Before, a 64-rank run ran its constructor 64 times and the eleven
schedules of hostbench's ``algo_mix_p64`` built 1 280 indexes.  The
tier-1 CI job runs :func:`layout_builds` at P = 64 in a fresh process.
"""

from __future__ import annotations

from unittest import mock

from repro import BlockCol1D, DistMatrix, dense_random, run_spmd
from repro.baselines import algo1d
from repro.baselines.algo3d import algo3d_native_dists
from repro.baselines.carma import carma_native_dists
from repro.core import plan
from repro.core.steps import block2d_native_dists, grid_native_dists
from repro.layout.distributions import Distribution
from tests.conftest import schedules_for

#: Every memoized constructor of native layouts (CA3DMM's is its plan).
CONSTRUCTORS = (
    algo1d._native_dists,
    block2d_native_dists,
    grid_native_dists,
    algo3d_native_dists,
    carma_native_dists,
    plan._shared_plan_cached,
)
#: Indexes one run may build: the operands' shared layout, native A and
#: native B (measured: 3) — and the native C that stationary-B SUMMA
#: converts back from its transposed problem (4).
MAX_INDEX_BUILDS = 4


def layout_builds(nprocs: int, n: int = 48) -> dict[str, tuple[int, int]]:
    """Per schedule, for one cold ``nprocs``-rank run of an ``n``-cube from
    shared 1D-column operands: (most runs of any one layout constructor,
    ``rect_index`` tables built)."""
    a_mat, b_mat = dense_random(n, n, 1), dense_random(n, n, 2)
    dist = BlockCol1D((n, n), nprocs)
    real_index = Distribution.rect_index
    out = {}
    for name, fn in schedules_for(nprocs).items():
        for ctor in CONSTRUCTORS:
            ctor.cache_clear()
        built = []

        def counting_index(self):
            if "_rect_index" not in self.__dict__:
                built.append(self)
            return real_index(self)

        def body(comm, fn=fn):
            fn(DistMatrix.from_global(comm, dist, a_mat),
               DistMatrix.from_global(comm, dist, b_mat))

        dist.__dict__.pop("_rect_index", None)
        with mock.patch.object(Distribution, "rect_index", counting_index):
            run_spmd(nprocs, body)
        assert len(set(map(id, built))) == len(built), "one layout indexed twice"
        out[name] = (max(c.cache_info().misses for c in CONSTRUCTORS), len(built))
    return out


def test_layouts_and_their_indexes_are_built_once_per_run_not_once_per_rank():
    builds = layout_builds(16)
    assert set(builds) == set(schedules_for(16))
    for name, (ctor_runs, indexes) in builds.items():
        assert ctor_runs == 1, (name, ctor_runs)
        assert 1 <= indexes <= MAX_INDEX_BUILDS, (name, indexes)
