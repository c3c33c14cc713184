"""Property tests: redistribution between arbitrary guillotine layouts.

The fixed tests cover the named layouts; these generate random
*guillotine partitions* (recursive axis-aligned splits, the shape of
every layout CA3DMM produces) assigned to random ranks — including
ranks owning several rectangles and ranks owning nothing — and check
any-to-any conversion, with and without transposition.

The second half holds ``repro.layout.overlap`` — one table per pair of
layouts — to the per-rank pairwise scans it replaced
(``reference_redistribute.py``, the parent's code verbatim): same
messages to the same ranks in the same order, byte for byte.  The last
holds the table's tiling check, made once per pair of layouts, to
painting every source rect onto the matrix.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.blocks import Rect
from repro.layout.distributions import (
    Block2D,
    BlockCol1D,
    BlockCyclic2D,
    BlockRow1D,
    Explicit,
)
from repro.layout.matrix import DistMatrix, dense_random
from repro.layout.overlap import overlap_table
from repro.layout.redistribute import redistribute
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.mpi.datatypes import Hop
from tests.layout.reference_redistribute import reference_redistribute


def _guillotine(rng: np.random.Generator, rect: Rect, pieces: int) -> list[Rect]:
    """Split a rect into `pieces` parts with random axis-aligned cuts."""
    parts = [rect]
    while len(parts) < pieces:
        idx = int(rng.integers(len(parts)))
        r = parts[idx]
        if r.rows <= 1 and r.cols <= 1:
            # find any splittable part; give up if none
            splittable = [i for i, p in enumerate(parts) if p.rows > 1 or p.cols > 1]
            if not splittable:
                break
            idx = splittable[0]
            r = parts[idx]
        by_rows = r.rows > 1 and (r.cols <= 1 or rng.random() < 0.5)
        if by_rows:
            cut = int(rng.integers(r.r0 + 1, r.r1))
            new = [Rect(r.r0, cut, r.c0, r.c1), Rect(cut, r.r1, r.c0, r.c1)]
        else:
            cut = int(rng.integers(r.c0 + 1, r.c1))
            new = [Rect(r.r0, r.r1, r.c0, cut), Rect(r.r0, r.r1, cut, r.c1)]
        parts[idx : idx + 1] = new
    return parts


def _random_layout(rng: np.random.Generator, m: int, n: int, nranks: int) -> Explicit:
    pieces = int(rng.integers(1, 2 * nranks + 1))
    rects = _guillotine(rng, Rect(0, m, 0, n), pieces)
    mapping: dict[int, list[Rect]] = {}
    for r in rects:
        owner = int(rng.integers(nranks))
        mapping.setdefault(owner, []).append(r)
    return Explicit.from_mapping((m, n), nranks, mapping)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    p=st.integers(1, 6),
    seed=st.integers(0, 10 ** 6),
)
def test_random_guillotine_roundtrip(m, n, p, seed):
    rng = np.random.default_rng(seed)
    src = _random_layout(rng, m, n, p)
    dst = _random_layout(rng, m, n, p)
    src.validate()
    dst.validate()
    ref = dense_random(m, n, seed % 997)

    def f(comm):
        x = DistMatrix.from_global(comm, src, ref)
        y = redistribute(x, dst)
        z = redistribute(y, src)  # and back
        return (
            np.array_equal(y.to_global(), ref)
            and all(np.array_equal(a, b) for a, b in zip(z.tiles, x.tiles))
        )

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    assert all(res.results)


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 18),
    n=st.integers(1, 18),
    p=st.integers(1, 5),
    seed=st.integers(0, 10 ** 6),
)
def test_random_guillotine_transpose(m, n, p, seed):
    rng = np.random.default_rng(seed)
    src = _random_layout(rng, m, n, p)
    dst = _random_layout(rng, n, m, p)  # transposed coordinates
    ref = dense_random(m, n, seed % 991)

    def f(comm):
        x = DistMatrix.from_global(comm, src, ref)
        y = redistribute(x, dst, transpose=True)
        return np.array_equal(y.to_global(), ref.T)

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    assert all(res.results)


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(2, 20),
    n=st.integers(2, 20),
    p=st.integers(2, 6),
    seed=st.integers(0, 10 ** 6),
)
def test_traffic_bounded_by_moved_area(m, n, p, seed):
    """No rank sends more than the area leaving its ownership (+headers)."""
    rng = np.random.default_rng(seed)
    src = _random_layout(rng, m, n, p)
    dst = _random_layout(rng, m, n, p)
    ref = dense_random(m, n, 7)

    def f(comm):
        x = DistMatrix.from_global(comm, src, ref)
        before = comm.transport.trace(comm.world_rank).bytes_sent
        redistribute(x, dst)
        sent = comm.transport.trace(comm.world_rank).bytes_sent - before
        owned = sum(r.area for r in src.owned_rects(comm.rank))
        kept = sum(
            r.intersect(w).area
            for r in src.owned_rects(comm.rank)
            for w in dst.owned_rects(comm.rank)
        )
        return sent, (owned - kept) * 8

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    for sent, moved_bytes in res.results:
        # pickle envelope: rects + array headers per piece
        assert sent <= moved_bytes + 4096


# ------------------------------------------- the table against the scans -- #
class _Tap:
    """A communicator that notes what is sent to whom and who is awaited.

    A batch handed over as a :class:`~repro.mpi.datatypes.Hop` is logged
    as the pickle of its list — what the pairwise scans sent — and the
    message must cost exactly that pickle's length."""

    def __init__(self, comm):
        self._comm = comm
        self.log = []

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def isend(self, payload, dest, tag):
        sent = type(payload) is Hop
        blob = pickle.dumps(payload.blocks if sent else payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.log.append(("isend", dest, tag, blob))
        trace = self._comm.transport.trace
        before = trace(self._comm.world_rank).bytes_sent
        req = self._comm.isend(payload, dest, tag)
        assert trace(self._comm.world_rank).bytes_sent - before == len(blob)
        return req

    def recv(self, source, tag):
        self.log.append(("recv", source, tag))
        return self._comm.recv(source=source, tag=tag)


def _grid(rng: np.random.Generator, p: int) -> tuple[int, int]:
    """A process grid of at most ``p`` ranks: the rest own nothing."""
    pr = int(rng.integers(1, p + 1))
    return pr, int(rng.integers(1, p // pr + 1))


_LAYOUTS = {
    "row": lambda rng, shape, p: BlockRow1D(shape, p),
    "col": lambda rng, shape, p: BlockCol1D(shape, p),
    "2d": lambda rng, shape, p: Block2D(shape, p, *_grid(rng, p)),
    "cyclic": lambda rng, shape, p: BlockCyclic2D(
        shape, p, *_grid(rng, p), bs=int(rng.integers(1, 6))
    ),
    "explicit": lambda rng, shape, p: _random_layout(rng, *shape, p),
}


def _messages(log):
    """A tap's log with every batch opened up, so a mismatch names the
    destination or the piece, not a position in a pickle."""
    out = []
    for entry in log:
        if entry[0] == "isend":
            payload = pickle.loads(entry[3])
            crcs, batch = payload if isinstance(payload, tuple) else (None, payload)
            if isinstance(batch, list):
                payload = (crcs, [(rect, d.dtype, d.shape, d.tobytes()) for rect, d in batch])
            entry = entry[:3] + (payload,)
        out.append(entry)
    return out


@settings(deadline=None)  # --hypothesis-profile thorough: 2 000 examples
@given(
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    p=st.sampled_from([1, 2, 3, 5, 7, 12, 16]),
    src_kind=st.sampled_from(sorted(_LAYOUTS)),
    dst_kind=st.sampled_from(sorted(_LAYOUTS)),
    transpose=st.booleans(),
    conjugate=st.booleans(),
    verify=st.booleans(),
    seed=st.integers(0, 10 ** 6),
)
def test_the_table_sends_what_the_pairwise_scans_sent(
    m, n, p, src_kind, dst_kind, transpose, conjugate, verify, seed
):
    """Per rank: destinations, piece rects, piece bytes, whom it awaits (all
    in order), every batch's pickle and the assembled tiles are the
    oracle's — thin matrices with more ranks than rows, ranks that own
    nothing and prime communicators included."""
    rng = np.random.default_rng(seed)
    src = _LAYOUTS[src_kind](rng, (m, n), p)
    dst = _LAYOUTS[dst_kind](rng, (n, m) if transpose else (m, n), p)
    # The oracle gives a rank that owned nothing float64 tiles (the defect
    # this PR fixes), so complex data only where every rank owns some.
    everyone_owns = all(src.owned_rects(r) for r in range(p))
    ref = dense_random(m, n, seed % 997, np.complex128 if everyone_owns else np.float64)

    def f(comm):
        out = []
        for convert in (redistribute, reference_redistribute):
            tap = _Tap(comm)
            y = convert(
                DistMatrix.from_global(tap, src, ref), dst,
                transpose=transpose, conjugate=conjugate, verify=verify,
            )
            out.append((tap.log, y.tiles))
        return out

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    want = ref.T if transpose else ref
    want = np.conj(want) if conjugate else want
    for rank, ((log, tiles), (ref_log, ref_tiles)) in enumerate(res.results):
        assert _messages(log) == _messages(ref_log), rank
        assert log == ref_log, rank
        assert len(tiles) == len(ref_tiles)
        for rect, tile, ref_tile in zip(dst.owned_rects(rank), tiles, ref_tiles):
            assert tile.dtype == ref_tile.dtype == ref.dtype
            assert np.array_equal(tile, ref_tile)
            assert np.array_equal(tile, want[rect.r0 : rect.r1, rect.c0 : rect.c1])


def test_equal_layouts_built_rank_by_rank_share_one_table():
    """The table is looked up by value: ``ft.recovery`` has every rank
    construct its own (equal) ``Explicit`` layouts."""
    p, shape = 6, (12, 10)
    ref = dense_random(*shape, 5)

    def layouts():
        rows = BlockRow1D(shape, p)
        return (
            Explicit.from_mapping(shape, p, {r: rows.owned_rects(r) for r in range(p)}),
            Explicit.from_mapping(shape, p, {r: BlockCol1D(shape, p).owned_rects(r)
                                             for r in range(p)}),
        )

    def f(comm):
        src, dst = layouts()
        y = redistribute(DistMatrix.from_global(comm, src, ref), dst)
        return np.array_equal(y.to_global(), ref)

    overlap_table.cache_clear()
    assert all(run_spmd(p, f, machine=laptop()).results)
    info = overlap_table.cache_info()
    assert (info.misses, info.hits) == (1, p - 1)
    assert hash(layouts()[0]) == hash(layouts()[0])


@pytest.mark.parametrize("dtype", [np.complex128, np.float32, np.int64])
def test_a_rank_that_owned_nothing_gets_the_dtype_of_what_fills_its_tile(dtype):
    """4 columns over 6 ranks: ranks 0 and 3 own no source tile.  Their
    destination tiles were ``float64`` — imaginary parts dropped."""
    src, dst = BlockCol1D((8, 4), 6), BlockRow1D((8, 4), 6)
    assert not src.owned_rects(0) and not src.owned_rects(3)
    ref = dense_random(8, 4, 3, np.complex128) * 100
    ref = (ref if dtype is np.complex128 else ref.real).astype(dtype)

    def f(comm):
        y = redistribute(DistMatrix.from_global(comm, src, ref), dst)
        return list(zip(y.owned_rects, y.tiles))

    for owned in run_spmd(6, f, machine=laptop()).results:
        for rect, tile in owned:
            assert tile.dtype == dtype
            assert np.array_equal(tile, ref[rect.r0 : rect.r1, rect.c0 : rect.c1])


def test_mixed_dtypes_in_one_call_are_refused_by_the_receiving_rank():
    src, dst = BlockRow1D((4, 4), 2), BlockCol1D((4, 4), 2)
    ref = dense_random(4, 4, 1)

    def f(comm):
        mine = ref.astype(np.float32 if comm.rank == 0 else np.float64)
        with pytest.raises(ValueError, match=rf"rank {comm.rank}: pieces of mixed dtypes"):
            redistribute(DistMatrix.from_global(comm, src, mine), dst)
        return True

    assert all(run_spmd(2, f, machine=laptop()).results)


_MALFORMED = """
import numpy as np
from repro.layout.blocks import Rect
from repro.layout.distributions import BlockCol1D, Explicit
from repro.layout.matrix import DistMatrix
from repro.layout.redistribute import redistribute
from repro.mpi import run_spmd

def refused(body):
    world = []
    def rank_body(comm):
        world.append(comm.transport)
        body(comm)
    try:
        run_spmd(2, rank_body)
        print("not refused")
    except RuntimeError as exc:
        print(type(exc.__cause__).__name__, exc.__cause__,
              "/ posted", sum(st.msgs_sent for st in world[0].ranks))

def explicit(*rects):
    return Explicit.from_mapping((8, 4), 2, dict(enumerate(rects)))

def held(comm, layout):
    return DistMatrix(comm, layout, [np.ones(r.shape) for r in layout.owned_rects(comm.rank)])

top, bottom = Rect(0, 4, 0, 4), Rect(4, 8, 0, 4)
cols = BlockCol1D((8, 4), 2)
holes = explicit([top], [Rect(5, 8, 0, 4)])
overlap = explicit([top], [Rect(3, 8, 0, 4)])
# An overlap that pays for a hole in the same destination rect: the areas
# add up, the tile is not full.
both = explicit([top, Rect(0, 1, 0, 4)], [Rect(5, 8, 0, 4)])
refused(lambda comm: redistribute(held(comm, holes), cols))
refused(lambda comm: redistribute(held(comm, overlap), cols))
refused(lambda comm: redistribute(held(comm, both), cols))
# Ranks that disagree about a (well-formed) source layout cut other pieces
# than their neighbours were told to expect.
split_at_3 = explicit([Rect(0, 3, 0, 4)], [Rect(3, 8, 0, 4)])
refused(lambda comm: redistribute(
    held(comm, explicit([top], [bottom]) if comm.rank == 0 else split_at_3), cols))
refused(lambda comm: held(comm, holes).to_global())
refused(lambda comm: held(comm, overlap).to_global())
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "python-O"])
def test_malformed_layouts_are_typed_errors_also_under_python_O(optimize):
    """Holes and overlaps in a source are refused when the table is built —
    before any message — a piece other than the planned one on arrival, and
    ``to_global`` refuses both: ``ValueError`` naming rank and rect, where
    four ``assert``s used to vanish under ``python -O``."""
    proc = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _MALFORMED],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    box = "Rect(r0={}, r1={}, c0={}, c1={})".format
    assert proc.stdout.splitlines() == [
        f"ValueError rank 0: source layout leaves holes in destination rect "
        f"{box(0, 8, 0, 2)} (14 of 16 elements arrive) / posted 0",
        f"ValueError rank 0: source layout overlaps itself on destination rect "
        f"{box(0, 8, 0, 2)} (18 of 16 elements arrive) / posted 0",
        f"ValueError rank 1: redistribution left holes in local tile "
        f"{box(0, 8, 2, 4)} / posted 2",
        f"ValueError rank 1: received piece {box(0, 4, 2, 4)} from rank 0 where "
        f"the layouts call for {box(0, 3, 2, 4)} / posted 2",
        "ValueError Explicit over 2 ranks does not cover the 8x4 matrix / posted 2",
        f"ValueError rank 1: {box(3, 8, 0, 4)} overlaps a rect gathered before it"
        " / posted 2",
    ]


# ------------------------------------- the tiling check against painting -- #
def _punched(rect: Rect, row: int, col: int) -> list[Rect]:
    """``rect`` less its cell ``(row, col)``: the bands above and below it
    and the two runs beside it on its row, the empty ones left out."""
    parts = [
        Rect(rect.r0, row, rect.c0, rect.c1),
        Rect(row + 1, rect.r1, rect.c0, rect.c1),
        Rect(row, row + 1, rect.c0, col),
        Rect(row, row + 1, col + 1, rect.c1),
    ]
    return [r for r in parts if not r.is_empty()]


@st.composite
def _malformed_sources(draw):
    """``(src, dst, transpose)``: a random guillotine source, then cells
    punched out of it and cells owned twice — anywhere, or one of each in
    the same destination rect, so that their areas still add up."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    p = draw(st.integers(1, 7))
    transpose = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    dst = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](
        rng, (n, m) if transpose else (m, n), p)
    mapping = {r: list(rects) for r, rects in
               enumerate(_random_layout(rng, m, n, p).owned_rects(r) for r in range(p))}
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    punch, twice = draw(st.lists(cell, max_size=2)), draw(st.lists(cell, max_size=2))
    wide = [r for rank in range(p) for r in dst.owned_rects(rank) if r.area >= 2]
    if wide and draw(st.booleans()):
        d = draw(st.sampled_from(wide))
        d = Rect(d.c0, d.c1, d.r0, d.r1) if transpose else d  # in source coordinates
        cells = [(i, j) for i in range(d.r0, d.r1) for j in range(d.c0, d.c1)]
        hole, extra = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2,
                                    unique=True))
        punch, twice = punch + [hole], twice + [extra]
    for row, col in punch:
        for rank, rects in mapping.items():
            hit = [r for r in rects if r.r0 <= row < r.r1 and r.c0 <= col < r.c1]
            if hit:
                rects.remove(hit[0])
                rects.extend(_punched(hit[0], row, col))
                break
    for row, col in twice:
        mapping[draw(st.integers(0, p - 1))].append(Rect(row, row + 1, col, col + 1))
    return Explicit.from_mapping((m, n), p, mapping), dst, transpose


def _painted(src: Explicit, dst, transpose: bool) -> tuple[str | None, dict[int, str]]:
    """The verdict of painting every source rect onto the matrix: the
    error the table raises (the first destination rect whose coverage
    does not add up to its area), else each rank's error for the first of
    its tiles left with a hole."""
    cover = np.zeros(src.shape, dtype=int)
    for rank in range(src.nranks):
        for r in src.owned_rects(rank):
            cover[r.r0 : r.r1, r.c0 : r.c1] += 1
    cover = cover.T if transpose else cover
    tiles = [(rank, d, cover[d.r0 : d.r1, d.c0 : d.c1])
             for rank in range(dst.nranks) for d in dst.owned_rects(rank)]
    for rank, d, got in tiles:
        if got.sum() != d.area:
            how = "leaves holes in" if got.sum() < d.area else "overlaps itself on"
            return (f"rank {rank}: source layout {how} destination rect {d} "
                    f"({got.sum()} of {d.area} elements arrive)"), {}
    holed = {}
    for rank, d, got in tiles:
        if (got == 0).any() and rank not in holed:
            holed[rank] = f"rank {rank}: redistribution left holes in local tile {d}"
    return None, holed


@settings(max_examples=80, deadline=None)
@given(case=_malformed_sources())
def test_the_tables_tiling_verdict_is_painting(case):
    """Holes, overlaps, both, and overlaps that pay for a hole in the same
    destination rect: the table refuses what the area sums see with the
    painting's first rect, and names exactly the tiles painting finds
    holes in; ``redistribute`` refuses on exactly those ranks, after the
    exchange, and a well-formed source converts exactly."""
    src, dst, transpose = case
    refused, holed = _painted(src, dst, transpose)
    overlap_table.cache_clear()
    if refused is not None:
        with pytest.raises(ValueError) as exc:
            overlap_table(src, dst, transpose)
        assert str(exc.value) == refused
    else:
        table = overlap_table(src, dst, transpose)
        for rank in range(src.nranks):
            t = table.holed_tile(rank)
            got = None if t is None else (
                f"rank {rank}: redistribution left holes in local tile "
                f"{dst.owned_rects(rank)[t]}")
            assert got == holed.get(rank), rank
    ref = dense_random(*src.shape, 5)

    def f(comm):
        x = DistMatrix(comm, src, [ref[r.r0 : r.r1, r.c0 : r.c1].copy()
                                   for r in src.owned_rects(comm.rank)])
        try:
            y = redistribute(x, dst, transpose=transpose)
        except ValueError as err:
            return str(err)
        want = ref.T if transpose else ref
        return all(np.array_equal(tile, want[r.r0 : r.r1, r.c0 : r.c1])
                   for r, tile in zip(y.owned_rects, y.tiles))

    results = run_spmd(src.nranks, f, machine=laptop(), deadlock_timeout=30.0).results
    for rank, got in enumerate(results):
        assert got == (refused or holed.get(rank, True)), rank
