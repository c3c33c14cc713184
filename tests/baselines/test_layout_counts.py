"""What a schedule's layouts cost the host, as counts (not a stopwatch).

Every rank of a run names the identical native layouts, and the tables a
conversion derives from one (``Distribution.rect_index``) are O(P): built
per rank they are an O(P^2) start-up, the cost ``shared_plan`` removed for
CA3DMM.  Each schedule's layout constructor is memoized the same way, so
one run builds each layout — and each layout's index — once, at any P.
Before, a 64-rank run ran its constructor 64 times and the eleven
schedules of hostbench's ``algo_mix_p64`` built 1 280 indexes.  The
tier-1 CI job runs :func:`layout_builds` at P = 64 in a fresh process.

The same holds for what a conversion derives from *two* layouts: which
piece of whose tile goes where (``repro.layout.overlap``) is built once
per distinct conversion of a run, not three ``Rect.intersect`` scans per
rank per call — :func:`redistribution_builds`, gated beside it.  And a
rank reads its slice of such a table as plain int rows, with whom it
hears from and whether its tiles are left with holes derived with the
table: :func:`calls_per_piece` counts what one piece still costs.
"""

from __future__ import annotations

import sys
from unittest import mock

from repro import Block2D, BlockCol1D, BlockCyclic2D, DistMatrix, dense_random, run_spmd
from repro.baselines import algo1d
from repro.baselines.algo3d import algo3d_native_dists
from repro.baselines.carma import carma_native_dists
from repro.core import plan
from repro.core.pdgemm import pdgemm
from repro.core.steps import block2d_native_dists, grid_native_dists
from repro.layout.blocks import Rect
from repro.layout.distributions import Distribution
from repro.layout.overlap import overlap_table
from repro.layout.redistribute import redistribute
from tests.conftest import schedules_for
from tests.mpi.test_message_path import counted_strands

#: Every memoized constructor of native layouts (CA3DMM's is its plan).
CONSTRUCTORS = (
    algo1d._native_dists,
    block2d_native_dists,
    grid_native_dists,
    algo3d_native_dists,
    carma_native_dists,
    plan._shared_plan_cached,
)
#: Overlap tables one run may build: A, B and C each converted once
#: (measured: 1-3; operands that share a layout and a native layout share
#: a table).
MAX_TABLE_BUILDS = 3
#: Indexes one run may build: the operands' shared layout, native A and
#: native B (measured: 3) — and the native C that stationary-B SUMMA
#: converts back from its transposed problem (4).
MAX_INDEX_BUILDS = 4
#: Python calls per piece of the 256² ``BlockCol1D`` <-> ``Block2D`` round
#: trip at P = 64 (1 024 pieces, 896 messages), gated at what it measures
#: in a fresh CPython 3.11 process: 52.1.  61.8 while every rank built
#: a ``Rect`` and two ``slice``s per piece on each side, ran ``np.unique``
#: for its sources and painted a boolean mask per tile on every call.
MAX_CALLS_PER_PIECE = 53.0


def _forget_layouts() -> None:
    """Make the next run a cold one: no layout, no overlap table is known."""
    for ctor in CONSTRUCTORS:
        ctor.cache_clear()
    overlap_table.cache_clear()


def layout_builds(nprocs: int, n: int = 48) -> dict[str, tuple[int, int]]:
    """Per schedule, for one cold ``nprocs``-rank run of an ``n``-cube from
    shared 1D-column operands: (most runs of any one layout constructor,
    ``rect_index`` tables built)."""
    a_mat, b_mat = dense_random(n, n, 1), dense_random(n, n, 2)
    dist = BlockCol1D((n, n), nprocs)
    real_index = Distribution.rect_index
    out = {}
    for name, fn in schedules_for(nprocs).items():
        _forget_layouts()
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


def redistribution_builds(nprocs: int, n: int = 48) -> dict[str, tuple[int, int]]:
    """Per schedule, for one cold ``nprocs``-rank run of an ``n``-cube from
    shared 1D-column operands — and for ``pdgemm('T', 'N')`` on a 4x4
    block-cyclic layout, hostbench's ``dense_blockcyclic_p16`` in small —
    (overlap tables built, ``Rect.intersect`` calls made under
    ``redistribute``).  No table is built twice in a run: every build is a
    conversion the run had not seen."""
    a_mat, b_mat = dense_random(n, n, 1), dense_random(n, n, 2)
    cols = BlockCol1D((n, n), nprocs)
    cyclic = BlockCyclic2D((n, n), nprocs, 4, 4, 4)
    runs = {
        name: (cols, lambda a, b, fn=fn: fn(a, b))
        for name, fn in schedules_for(nprocs).items()
    }
    runs["pdgemm/cyclic"] = (cyclic, lambda a, b: pdgemm("T", "N", 1.0, a, b, c_dist=cyclic))
    real_intersect = Rect.intersect
    out = {}
    for name, (dist, fn) in runs.items():
        _forget_layouts()
        scans = [0]

        def counting_intersect(self, other):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "redistribute":
                frame = frame.f_back
            scans[0] += frame is not None
            return real_intersect(self, other)

        def body(comm, dist=dist, fn=fn):
            fn(DistMatrix.from_global(comm, dist, a_mat),
               DistMatrix.from_global(comm, dist, b_mat))

        with mock.patch.object(Rect, "intersect", counting_intersect):
            run_spmd(nprocs, body)
        info = overlap_table.cache_info()
        assert info.misses == info.currsize, (name, "a conversion's table was built twice")
        out[name] = (info.misses, scans[0])
    return out


def test_a_run_slices_each_conversion_once_and_never_scans_rects():
    builds = redistribution_builds(16)
    assert set(builds) == set(schedules_for(16)) | {"pdgemm/cyclic"}
    for name, (tables, scans) in builds.items():
        assert 1 <= tables <= MAX_TABLE_BUILDS, (name, tables)
        assert scans == 0, (name, scans)


def calls_per_piece(nprocs: int, n: int = 256) -> float:
    """Python calls per piece of one ``n``² ``BlockCol1D`` -> ``Block2D`` ->
    ``BlockCol1D`` round trip on ``nprocs`` ranks (the grid as square as
    ``nprocs`` allows): every call the ranks make, messages included,
    over the pieces of both conversions.  A first, uncounted run builds
    the layouts' tables."""
    pr = max(d for d in range(1, int(nprocs ** 0.5) + 1) if nprocs % d == 0)
    cols, grid = BlockCol1D((n, n), nprocs), Block2D((n, n), nprocs, pr, nprocs // pr)
    a = dense_random(n, n, 0)

    def body(comm):
        redistribute(redistribute(DistMatrix.from_global(comm, cols, a), grid), cols)

    run_spmd(nprocs, body)
    with counted_strands() as cells:
        run_spmd(nprocs, body)
    pieces = sum(len(overlap_table(x, y, False).area) for x, y in ((cols, grid), (grid, cols)))
    return sum(c[0] for c in cells) / pieces


def test_a_piece_costs_a_few_calls_not_its_objects():
    assert calls_per_piece(64) <= MAX_CALLS_PER_PIECE
