"""What a payload costs the wire and what the receiver may do to it.

The contract (docs/VIRTUAL_MPI.md, "Point-to-point semantics"): an array
arrives as a copy, any other object as an unpickled copy, a value nobody
can change as the sender's own object — and all of them cost the wire
what they always did, the array's bytes or the length of the pickle.
``Comm.split`` is the heavy user of the third kind: its ``(color, key,
rank)`` table passes through ⌈log2 P⌉ Bruck hops per rank, each priced
by adding up its blocks' sizes instead of pickling it (``TestHopPricing``
holds that sum to the pickle, byte for byte).  An allgather of arrays is
another: each window's arrays are private copies that look like the
unpickled ones, handed over and priced by a sum (``TestArrayWindows``
holds a whole Bruck exchange to one whose every hop was pickled).  A
redistribution batch is the third: its ``(Rect, ndarray)`` pieces are
private copies, handed over and priced by a sum as well
(``TestBatchPricing``).  The sums count the frames the pickler cuts
(``TestFrames``).
"""

from __future__ import annotations

import contextlib
import math
import pickle
import pickletools
import types
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.blocks import Rect
from repro.layout.distributions import BlockRow1D
from repro.layout.matrix import DistMatrix
from repro.layout.overlap import pickled_int_bytes
from repro.layout.redistribute import _hop, _piece_form
from repro.machine.model import laptop
from repro.mpi import datatypes, run_spmd
from repro.mpi.datatypes import (
    Hop, array_form, detached, hand_over, handed_array, is_immutable, payload_pack,
)
from repro.mpi.errors import CommError
from repro.mpi.faults import FaultPlan, LinkFault


def _nbytes(value) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _copied(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def bruck_bytes(blocks: list) -> list[tuple[int, int]]:
    """``(bytes_sent, bytes_recv)`` per rank of a Bruck allgather of
    ``blocks[r]`` from rank ``r``, every hop a pickled list — and every
    block in it an object of its own, as a receiver's copy was."""
    size = len(blocks)
    sent, recv = [0] * size, [0] * size
    h = 1
    while h < size:
        cnt = min(h, size - h)
        for rank in range(size):
            window = [_copied(blocks[(rank + i) % size]) for i in range(cnt)]
            sent[rank] += _nbytes(window)
            recv[(rank - h) % size] += _nbytes(window)
        h += cnt
    return list(zip(sent, recv))


def allgather_bytes(result) -> list[tuple[int, int]]:
    """What each rank's trace charged to the Bruck allgather."""
    out = []
    for trace in result.traces:
        cs = trace.colls.get("other", {}).get("allgather.bruck")
        out.append((0, 0) if cs is None else (cs.bytes_sent, cs.bytes_recv))
    return out


COLORS = st.sampled_from([None, -70_000, -1, 0, 3, 255, 256, 65_535, 65_536, 10 ** 12])

#: Each side of every int opcode boundary (BININT1, BININT2, BININT,
#: LONG1), both infinities, nan, the bools and None.
INT_EDGES = [0, 255, 256, 65_535, 65_536, 2 ** 31 - 1, -1, -(2 ** 31), 2 ** 31, 2 ** 63, 10 ** 40]
EDGE_ATOMS = [*INT_EDGES, 0.0, -2.5, math.inf, -math.inf, math.nan, True, False, None]


class TestSplitOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(COLORS, st.integers(-3, 3)), min_size=1, max_size=17))
    def test_groups_and_hop_bytes(self, spec):
        """``spec[r]`` is rank r's ``(color, key)``: primes and powers of
        two, one-byte to eight-byte colors, tied and negative keys."""
        p = len(spec)

        def body(comm):
            sub = comm.split(*spec[comm.rank])
            return None if sub is None else sub.group

        res = run_spmd(p, body, machine=laptop())
        for rank, (color, _key) in enumerate(spec):
            members = sorted(
                (k, r) for r, (c, k) in enumerate(spec) if c == color and c is not None
            )
            expected = None if color is None else tuple(r for _k, r in members)
            assert res.results[rank] == expected
        triples = [(c, k, r) for r, (c, k) in enumerate(spec)]
        assert allgather_bytes(res) == bruck_bytes(triples)

    @pytest.mark.parametrize("p", [2, 5, 8, 13])
    def test_one_constant_from_every_rank_costs_what_copies_cost(self, p):
        """Every rank contributes the *same object*; a pickle writes a
        repeated object once, so handing blocks on must not let two ranks'
        blocks become one."""
        constant = ("ok", (1.5, "ok"), b"\x00\x01")

        def body(comm):
            return comm.allgather(constant)

        res = run_spmd(p, body, machine=laptop())
        assert res.results == [[constant] * p] * p
        assert allgather_bytes(res) == bruck_bytes([constant] * p)

    @pytest.mark.parametrize("p", [2, 3, 17, 64])
    def test_flat_tuples_of_every_size_class(self, p):
        """Hops priced by their blocks' sizes: rank r contributes a flat
        tuple of ``r % 7`` edge atoms (``()`` at 0), or at ``r % 7 == 6``
        a bare one, so every int opcode, ±inf, nan, the bools and None
        cross every hop."""

        def block(r):
            if r % 7 == 6:
                return EDGE_ATOMS[r % len(EDGE_ATOMS)]
            return tuple(EDGE_ATOMS[(r + i) % len(EDGE_ATOMS)] for i in range(r % 7))

        def body(comm):
            return comm.allgather(block(comm.rank))

        res = run_spmd(p, body, machine=laptop())
        expected = [block(r) for r in range(p)]
        assert all(repr(got) == repr(expected) for got in res.results)  # nan != nan
        assert allgather_bytes(res) == bruck_bytes(expected)

    def test_mixed_allgather_is_handed_over(self):
        """Rank 0 contributes an ndarray, the rest ``None``: every window
        is a handed hop priced by a sum — nothing is pickled but each
        rank's own ``None``, once, at its origin."""
        p = 7
        block = np.arange(12.0).reshape(3, 4)

        def body(comm):
            return comm.allgather(block if comm.rank == 0 else None)

        with pickling() as seen:
            res = run_spmd(p, body, machine=laptop())
        assert [value for _path, value in seen] == [[None]] * (p - 1)
        for rank, got in enumerate(res.results):
            np.testing.assert_equal(got, [block] + [None] * (p - 1))
            assert (got[0] is block) == (rank == 0)
        assert allgather_bytes(res) == bruck_bytes([block] + [None] * (p - 1))


class TestSplitArguments:
    @pytest.mark.parametrize(
        "color, key",
        [([0], 0), ("a", 0), (0.0, 0), (0, "k"), (0, None), (0, 1.0), (None, "k")],
    )
    def test_refused_before_the_first_hop(self, color, key):
        def body(comm):
            with pytest.raises(CommError, match="split (color|key) must be"):
                comm.split(color, key)

        res = run_spmd(4, body, machine=laptop())
        assert [t.msgs_sent for t in res.traces] == [0] * 4

    def test_numpy_integers_and_bools_are_integers(self):
        def body(comm):
            sub = comm.split(np.int64(comm.rank % 2), np.int32(-comm.rank))
            same = comm.split(True, comm.rank)
            return sub.group, same.group

        res = run_spmd(5, body, machine=laptop())
        assert res.results[0] == ((4, 2, 0), (0, 1, 2, 3, 4))
        assert res.results[1] == ((3, 1), (0, 1, 2, 3, 4))


# -------------------------------------------------------------- hop pricing -- #
@contextlib.contextmanager
def pickling():
    """``(path, value)`` for each value ``repro.mpi.datatypes`` pickles
    inside the block: ``"blob"`` into bytes (to send or to measure),
    ``"counted"`` into a byte counter (to price)."""
    seen: list = []
    blob, counted = datatypes._blob, datatypes.pickled_size

    def spy(fn, path):
        def wrapped(value):
            seen.append((path, value))
            return fn(value)
        return wrapped

    datatypes._blob, datatypes.pickled_size = spy(blob, "blob"), spy(counted, "counted")
    try:
        yield seen
    finally:
        datatypes._blob, datatypes.pickled_size = blob, counted


def path_of(seen: list) -> str:
    """``"summed"`` when nothing was pickled, else the costliest path."""
    paths = {path for path, _value in seen}
    return "blob" if "blob" in paths else "counted" if paths else "summed"


def held(blocks: list) -> tuple[list, list, list]:
    """``(blocks, sizes, forms)`` as an allgather holds them: an immutable
    block as the copy :func:`detached` makes at its origin, an array as it
    is, with its :class:`~repro.mpi.datatypes.Form` and size."""
    out, sizes, forms = [], [], []
    for block in blocks:
        if handed_array(block):
            form = array_form(block)
            out.append(block)
            sizes.append(form.size(block))
            forms.append(form)
        else:
            copy, size = detached(block)
            out.append(copy)
            sizes.append(size)
            forms.append(None)
    return out, sizes, forms


def priced(blocks: list) -> tuple[int, str]:
    """``(nbytes, path)`` of the window ``allgather`` sends of
    ``blocks``: a :class:`Hop` of their origin copies and sizes when every
    block is immutable, of handed copies when the rest are arrays, else
    the plain list — and how pricing it pickled (:func:`path_of`)."""
    if all(map(is_immutable, blocks)):
        copies, sizes = zip(*map(detached, blocks))
        window = Hop(list(copies), list(sizes))
    elif all(is_immutable(b) or handed_array(b) for b in blocks):
        window = hand_over(*held(blocks))
    else:
        window = list(blocks)
    with pickling() as seen:
        _stored, nbytes, _handed = payload_pack(window)
    return nbytes, path_of(seen)


def oracle(blocks: list) -> int:
    """The pickle of the list a receiver would have built: every block
    its own unpickled copy."""
    return _nbytes([_copied(b) for b in blocks])


ATOM = st.one_of(st.sampled_from(EDGE_ATOMS), st.integers(), st.floats())
SIZED_BLOCK = st.one_of(ATOM, st.lists(ATOM, max_size=6).map(tuple))


class TestHopPricing:
    """A hop's ``nbytes`` against the pickle of receiver-style copies."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SIZED_BLOCK, min_size=1, max_size=40))
    def test_atoms_and_flat_tuples_are_summed(self, blocks):
        """Arithmetic path: any mix of atoms and flat tuples of atoms."""
        assert priced(blocks) == (oracle(blocks), "summed")

    @pytest.mark.parametrize("atom", EDGE_ATOMS, ids=repr)
    def test_every_opcode_boundary(self, atom):
        """Arithmetic path: each edge atom bare, in a tuple of one and of
        four (TUPLE1 / MARK…TUPLE), alone and beside ``()``."""
        for blocks in ([atom], [(atom,)], [(atom, atom, atom, atom)], [atom, (), (atom,)]):
            assert priced(blocks) == (oracle(blocks), "summed"), blocks

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001, 2500])
    def test_appends_batching(self, n):
        """Arithmetic path: one APPEND after a single block, else a
        MARK/APPENDS pair per 1 000 blocks."""
        atoms = [EDGE_ATOMS[i % len(EDGE_ATOMS)] for i in range(n)]
        blocks = [(atom,) if i % 3 else atom for i, atom in enumerate(atoms)]
        assert priced(blocks) == (oracle(blocks), "summed")

    def test_a_window_near_the_frame_target_is_never_a_blob(self):
        """Both paths: windows of 63-byte tuples from just under 64 KiB to
        past it, summed while the list fits one frame and pickled into a
        byte counter once a tuple straddles the pickler's frame boundary
        (where it looks inside a tuple the sum does not); one tuple that
        is bigger than a frame by itself is counted too; bare atoms are
        summed at any length.  All priced as their pickle; none is ever
        pickled into a blob."""
        block = tuple(range(256, 276))
        paths = {}
        for n in range(1030, 1050):
            nbytes, how = priced([block] * n)
            assert nbytes == oracle([block] * n), n
            paths[n] = how
        assert set(paths.values()) == {"summed", "counted"}
        assert list(paths.values()) == sorted(paths.values(), reverse=True)  # summed first
        huge = [7, tuple(range(256, 256 + 30_000))]
        assert priced(huge) == (oracle(huge), "counted")
        atoms = [2 ** 20 + i for i in range(20_000)]  # BININT, 100 KB
        assert priced(atoms) == (oracle(atoms), "summed")

    @pytest.mark.parametrize(
        "odd",
        ["text", b"raw", (1, (2.5, None)), ("same", "same")],
        ids=["str", "bytes", "nested_tuple", "repeated_str"],
    )
    def test_a_block_of_unknown_size_is_counted(self, odd):
        """Counter path: one block whose bytes depend on what else is in
        the pickle (a memoized str or bytes, a nested tuple) among blocks
        that could be summed; the window is pickled into a byte counter,
        never into a blob."""
        blocks = [7, (1, 2.5), odd, None, (65_536,)]
        assert priced(blocks) == (oracle(blocks), "counted")

    def test_an_array_among_atoms_is_summed(self):
        """Arithmetic path: an ndarray among blocks that could be summed
        — handed over as a copy and priced by its form."""
        blocks = [7, (1, 2.5), np.arange(3.0), None, (65_536,)]
        assert priced(blocks) == (oracle(blocks), "summed")

    @pytest.mark.parametrize("n, how", [(200, "summed"), (201, "counted"), (400, "counted")])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_tuples_before_the_first_array(self, n, how, order):
        """Both paths: each flat tuple before the first array is an entry
        of the pickle memo, so with enough of them a later array's
        back-reference to what the first wrote grows from two bytes to
        five; up to 200 are summed."""
        first = np.zeros((2, 3), order=order)
        blocks = [(i,) for i in range(n)] + [first, _copied(first)]
        assert priced(blocks) == (oracle(blocks), how)

    def test_a_shared_constant(self):
        """Both paths: the same object from several origins, a flat tuple
        of atoms (summed: each origin copies it) and one holding strings
        (counted)."""
        flat, worded = (1, 2.5, None), ("ok", (1.5, "ok"))
        assert priced([flat, 3, flat, flat]) == (oracle([flat, 3, flat, flat]), "summed")
        assert priced([worded, 3, worded]) == (oracle([worded, 3, worded]), "counted")


# ------------------------------------------------------------ array windows -- #
def pickled_allgather(values: list) -> tuple[list[tuple[int, int]], list[list]]:
    """``(bytes, results)`` of a Bruck allgather of ``values[r]`` from rank
    ``r`` whose every hop is a pickled list, unpickled by its receiver:
    ``(bytes_sent, bytes_recv)`` per rank and what each rank gets."""
    size = len(values)
    held = [[v] for v in values]
    sent, recv = [0] * size, [0] * size
    h = 1
    while h < size:
        cnt = min(h, size - h)
        blobs = [pickle.dumps(held[r][:cnt], protocol=pickle.HIGHEST_PROTOCOL)
                 for r in range(size)]
        for r in range(size):
            incoming = blobs[(r + h) % size]
            sent[r] += len(blobs[r])
            recv[r] += len(incoming)
            held[r] += pickle.loads(incoming)
        h += cnt
    return list(zip(sent, recv)), [held[r][size - r:] + held[r][:size - r] for r in range(size)]


def looks(value) -> tuple:
    """What a receiver can tell about an array without its bytes."""
    if not isinstance(value, np.ndarray):
        return (type(value), value)
    f = value.flags
    return (type(value), value.dtype.str, value.shape, f.c_contiguous, f.f_contiguous,
            f.writeable, f.aligned)


def dtype_sharing(values: list) -> list:
    """Which of ``values`` share a dtype object: the index of the first
    array with the same one (``None`` for a block that is no array)."""
    first: dict = {}
    return [first.setdefault(id(v.dtype), i) if isinstance(v, np.ndarray) else None
            for i, v in enumerate(values)]


WINDOW_DTYPES = ["float32", "float64", "complex64", "complex128", "int64", "bool"]


def _array(dtype: str, kind: str, r: int) -> np.ndarray:
    shape = {"empty": (0, 3 + r % 2), "vector": (5 + r,), "one": (1, 1), "grid": (3, 4 + r),
             "cube": (2, 1, 3), "fortran": (4 + r % 3, 3), "strided": (6, 7 + r),
             "read_only": (3, 5 + 4 * r)}[kind]
    a = ((np.arange(int(np.prod(shape))) + r) % (2 if dtype == "bool" else 7)).astype(dtype)
    a = a.reshape(shape)
    if kind == "fortran":
        return np.asfortranarray(a)
    if kind == "strided":
        return a[::2, 1::2]
    if kind == "read_only":
        a.flags.writeable = False
    return a


@st.composite
def contributions(draw):
    """One value per rank: arrays of one dtype (now and then of two), of
    every shape and layout a block can have, and here and there ``None``."""
    p = draw(st.integers(1, 9))
    dtypes = draw(st.lists(st.sampled_from(WINDOW_DTYPES), min_size=1, max_size=2))
    kinds = ["empty", "vector", "one", "grid", "cube", "fortran", "strided", "read_only"]
    values = []
    for r in range(p):
        if draw(st.integers(0, 9)) == 0:
            values.append(None)
        else:
            values.append(_array(draw(st.sampled_from(dtypes)), draw(st.sampled_from(kinds)), r))
    return values


class TestArrayWindows:
    """An allgather of arrays against one whose every hop was a pickled
    list: the same bytes on every rank, and results that look alike."""

    @settings(max_examples=80, deadline=None)
    @given(contributions())
    def test_the_wire_and_the_results_are_the_pickled_ones(self, values):
        p = len(values)

        def body(comm):
            return comm.allgather(values[comm.rank])

        res = run_spmd(p, body, machine=laptop())
        want_bytes, want = pickled_allgather(values)
        assert allgather_bytes(res) == want_bytes
        for rank, (got, expected) in enumerate(zip(res.results, want)):
            np.testing.assert_equal(got, expected)
            assert [looks(v) for v in got] == [looks(v) for v in expected], rank
            assert dtype_sharing(got) == dtype_sharing(expected), rank
            assert got[rank] is values[rank]
        # Every received array has a dtype object no other rank holds.
        received = [id(v.dtype) for rank, got in enumerate(res.results)
                    for r, v in enumerate(got) if r != rank and isinstance(v, np.ndarray)]
        assert len(set(received)) == len(received)

    @pytest.mark.parametrize("kinds", [("grid", "read_only", "vector", "empty", "cube"),
                                       ("fortran",)], ids=["C", "F"])
    @pytest.mark.parametrize("p", [2, 5, 8])
    @pytest.mark.parametrize("dtype", WINDOW_DTYPES)
    def test_one_dtype_and_order_is_summed(self, p, dtype, kinds):
        """Arithmetic path: blocks of one dtype and order, any shape,
        writeable or not — nothing is pickled, nothing unpickled."""

        def body(comm):
            return comm.allgather(_array(dtype, kinds[comm.rank % len(kinds)], comm.rank))

        with pickling() as seen:
            res = run_spmd(p, body, machine=laptop())
        assert seen == []
        values = [_array(dtype, kinds[r % len(kinds)], r) for r in range(p)]
        assert allgather_bytes(res) == pickled_allgather(values)[0]

    def test_a_strided_block_is_priced_as_it_is(self):
        """Counter path: a rank's own strided view is pickled unlike its
        (contiguous) copies, so each window that holds it is pickled into
        a byte counter as it is; the others are summed."""
        p = 4

        def block(r):
            return _array("float64", "strided" if r == 1 else "grid", r)

        def body(comm):
            return comm.allgather(block(comm.rank))

        with pickling() as seen:
            res = run_spmd(p, body, machine=laptop())
        assert {path for path, _v in seen} == {"counted"}
        assert all(v[0] is block(1) or v[0].base is not None for _path, v in seen)
        assert allgather_bytes(res) == pickled_allgather([block(r) for r in range(p)])[0]

    class _RaisingProbe(datatypes._Probe):
        def save(self, obj, save_persistent_id=True):
            raise AttributeError("framer")

    class _CProbe(pickle.Pickler):
        def __init__(self, file):
            super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
            self.saves: list = []

    @pytest.mark.parametrize("probe", ["internals_differ", "no_pure_python_pickler"])
    def test_a_pickler_the_probe_cannot_read_leaves_the_counter(self, probe, monkeypatch):
        """Where the pure-Python pickler lacks what the probe reads (an
        attribute gone; no pure-Python pickler at all, so the probe is the
        C one and sees no ``save()``), no form is measured: every window
        of arrays and every batch is pickled into the byte counter, and
        priced exactly."""
        monkeypatch.setattr(datatypes, "_Probe", {"internals_differ": self._RaisingProbe,
                                                  "no_pure_python_pickler": self._CProbe}[probe])
        caches = (datatypes._array_form, _piece_form)
        for cache in caches:
            cache.cache_clear()
        try:
            values = [_array("float64", "grid", r) for r in range(5)]

            def body(comm):
                return comm.allgather(values[comm.rank])

            with pickling() as seen:
                res = run_spmd(5, body, machine=laptop())
            assert path_of(seen) == "counted"
            assert allgather_bytes(res) == pickled_allgather(values)[0]
            tile = np.arange(12.0).reshape(3, 4)
            rows = [row_of([tile], Rect(0, 2, 0, 2), 0, slice(0, 2), slice(c, c + 2))
                    for c in (0, 2)]
            assert assert_priced_as_sent([tile], rows)
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_a_message_shares_dtype_objects_as_the_pickle_memo_does(self):
        """Two blocks of one window with one dtype object arrive with one
        dtype object of their own; a third, with another, with another."""
        a = np.zeros((2, 2))
        b = np.ones(3)  # the same (builtin) dtype object as a's
        c = _copied(np.ones(4))
        hop = hand_over(*held([a, b, c]))
        unpickled = _copied([a, b, c])
        assert dtype_sharing(hop.blocks) == dtype_sharing(unpickled) == [0, 0, 2]
        assert not any(x.dtype is y.dtype for x in hop.blocks for y in (a, c))
        assert [looks(x) for x in hop.blocks] == [looks(x) for x in unpickled]

    def test_a_receiver_writes_into_every_block(self):
        """Every rank adds its rank + 1 to every block it received: what
        every other rank holds, its own block included, is unchanged."""
        p = 8

        def body(comm):
            mine = _array("float64", "grid", comm.rank)
            got = comm.allgather(mine)
            for r, block in enumerate(got):
                if r != comm.rank:
                    block += comm.rank + 1
            comm.barrier()
            return got

        res = run_spmd(p, body, machine=laptop())
        for rank, got in enumerate(res.results):
            for r, block in enumerate(got):
                np.testing.assert_equal(
                    block, _array("float64", "grid", r) + (0 if r == rank else rank + 1))

    def test_a_redistribution_from_gathered_tiles_costs_what_it_did(self):
        """Rank r's tiles are halves of the strips of ranks r+1 and r+2 as
        the allgather delivered them — two dtype objects of their own,
        which a batch's pickle writes out in full: each batch costs what it
        cost when the tiles were unpickled arrays."""
        from repro.layout.distributions import BlockCol1D, Explicit
        from repro.layout.overlap import overlap_table
        from repro.layout.redistribute import redistribute

        p, m = 6, 16
        strips = BlockCol1D((m, 4 * p), p)
        values = [np.arange(m * 4.0).reshape(m, 4) + r for r in range(p)]
        rects = {r: [Rect(0, m // 2, 4 * ((r + 1) % p), 4 * ((r + 1) % p) + 4),
                     Rect(m // 2, m, 4 * ((r + 2) % p), 4 * ((r + 2) % p) + 4)]
                 for r in range(p)}
        dist = Explicit.from_mapping((m, 4 * p), p, rects)

        def tiles_of(got, r):
            return [got[(r + 1) % p][: m // 2], got[(r + 2) % p][m // 2:]]

        def body(comm):
            got = comm.allgather(values[comm.rank])
            redistribute(DistMatrix(comm, dist, tiles_of(got, comm.rank)), strips, phase="moved")

        res = run_spmd(p, body, machine=laptop(), record_events=True)
        moved = sorted((rec.src, rec.dst, rec.nbytes) for rec in res.tracer.msglog
                       if rec.phase == "moved")
        _bytes, gathered = pickled_allgather(values)
        table = overlap_table(dist, strips, False)
        want = sorted((r, dst, _nbytes(sent_list(tiles_of(gathered[r], r), rows)))
                      for r in range(p)
                      for dst, rows in groupby(table.send_rows(r), itemgetter(0)) if dst != r)
        assert moved == want and len(moved) > 0


def framed_window(blocks: list) -> tuple[int, str]:
    """:func:`priced` of ``blocks`` held as an allgather holds them — the
    first the sender's own, the rest as earlier hops delivered them."""
    return priced([blocks[0]] + [_copied(b) for b in blocks[1:]])


def unframed_tail(blob: bytes) -> int:
    """Bytes after the last FRAME's contents: a last frame shorter than 4
    bytes, which the pickler writes without a header."""
    frames = [(pos, arg) for op, arg, pos in pickletools.genops(blob) if op.name == "FRAME"]
    pos, length = frames[-1]
    return len(blob) - (pos + 9 + length)


class TestFrames:
    """Windows and batches whose pickle the pickler cuts into frames: at
    the first ``save()`` boundary where a frame holds 64 KiB, and around
    every buffer of 64 KiB or more, which is written outside any."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(6, 26), st.integers(0, 1100), st.sampled_from(["float64", "bool"]))
    def test_windows_straddling_64_128_and_192_kib(self, n, extra, dtype):
        """Arithmetic path: ``n`` 8 KiB arrays and one of ``extra`` more
        elements put the list's end anywhere around each frame target."""
        size = 8192 // np.dtype(dtype).itemsize
        blocks = [np.zeros(size + (extra if i == n - 1 else i % 3), dtype) for i in range(n)]
        assert framed_window(blocks) == (oracle(blocks), "summed")

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("read_only", [False, True])
    def test_a_buffer_of_64_kib_or_more(self, at, read_only):
        """Arithmetic path: a buffer that is written outside any frame,
        first, in the middle and last, writeable (BYTEARRAY8) or not
        (BINBYTES), among small blocks and atoms."""
        big = np.arange(9000.0).reshape(90, 100)
        big.flags.writeable = not read_only
        small = [np.ones((3, 3)), None, np.ones(2)]
        blocks = {"first": [big, *small], "middle": [small[0], big, *small[1:]],
                  "last": [*small, big]}[at]
        blocks = [b for b in blocks if b is not None] if at == "first" else blocks
        assert framed_window(blocks) == (oracle(blocks), "summed")

    def test_a_buffer_right_after_a_commit(self):
        """Arithmetic path: a first block ending anywhere around 64 KiB,
        then one of 64 KiB or more.  Where the frame is committed at the
        second block's boundary, the few bytes before its buffer are a
        frame too short for a header."""
        big = np.zeros(70_000, np.uint8)
        for n in range(65_400, 65_540):
            blocks = [np.zeros(n, np.uint8), big]
            assert framed_window(blocks) == (oracle(blocks), "summed"), n

    def test_a_last_frame_shorter_than_4_bytes(self):
        """Arithmetic path: a window whose frame is committed at the
        boundary of its last block, ``None``: NONE, APPENDS and STOP are a
        frame of 3 bytes, written without a header."""
        tails = set()
        for n in range(8040, 8200):
            blocks = [np.zeros(n), None]
            assert framed_window(blocks) == (oracle(blocks), "summed"), n
            tails.add(unframed_tail(_copied_blob(blocks)))
        assert 3 in tails

    @pytest.mark.parametrize("n", [999, 1000, 1001])
    def test_appends_batching(self, n):
        """Arithmetic path: a MARK/APPENDS pair per 1 000 blocks, with a
        frame committed somewhere in each batch."""
        blocks = [np.full(8 + i % 5, float(i)) for i in range(n)]
        assert framed_window(blocks) == (oracle(blocks), "summed")

    @pytest.mark.parametrize("n", [3, 31, 65])
    def test_pieces_of_64_kib_or_more(self, n):
        """Arithmetic path: a batch of pieces each written outside any
        frame, beside small ones."""
        tile = np.arange(100 * 100.0).reshape(100, 100)
        rows = [row_of([tile], Rect(0, 100, 0, 100), 0, slice(0, 100), slice(0, 100 if i % 2
                                                                               else 3))
                for i in range(n)]
        assert not assert_priced_as_sent([tile], rows)


def _copied_blob(blocks: list) -> bytes:
    return pickle.dumps([blocks[0]] + [_copied(b) for b in blocks[1:]],
                        protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------- redistribution batches -- #
#: Each side of every int opcode boundary a coordinate or an extent can
#: reach: BININT1, BININT2, BININT (the table refuses 2**31 and beyond).
COORD_EDGES = [0, 255, 256, 65_535, 65_536, 2 ** 31 - 1]
BATCH_DTYPES = [np.float32, np.float64, np.complex64, np.complex128, np.int64, np.bool_]


def row_of(tiles: list, rect: Rect, t: int, rs: slice, cs: slice) -> list[int]:
    """A send row for the piece ``tiles[t][rs, cs]`` at ``rect``, as
    :meth:`OverlapTable.send_rows` yields it (to rank 1)."""
    h, w = rs.stop - rs.start, cs.stop - cs.start
    return [1, *rect, t, rs.start, cs.start, h, w, pickled_int_bytes(*rect, h, w)]


def batch_priced(tiles: list, rows: list) -> tuple[int, bool, Hop]:
    """``(nbytes, pickled, hop)`` of the batch ``redistribute`` hands
    over for ``rows``: and whether pricing it pickled its list (into a
    byte counter: a batch is never pickled into a blob)."""
    hop = _hop(tiles, rows)
    with pickling() as seen:
        stored, nbytes, handed = payload_pack(hop)
    assert stored is hop and handed
    assert path_of(seen) != "blob"
    return nbytes, any(v is hop.blocks for _path, v in seen), hop


def sent_list(tiles: list, rows: list) -> list:
    """The list a sender that pickled its batch sent for the same rows."""
    return [(Rect(r0, r1, c0, c1), np.ascontiguousarray(tiles[t][ro : ro + h, co : co + w]))
            for _d, r0, r1, c0, c1, t, ro, co, h, w, _i in rows]


def assert_priced_as_sent(tiles: list, rows: list) -> bool:
    """The handed batch costs what :func:`sent_list` pickles to and holds
    its pieces, each a private copy; returns whether it was pickled."""
    nbytes, pickled, hop = batch_priced(tiles, rows)
    sent = sent_list(tiles, rows)
    assert nbytes == _nbytes(sent)
    assert len(hop.sizes) == len(hop.blocks) == len(sent)
    for (rect, data), (want_rect, want) in zip(hop.blocks, sent):
        assert rect == want_rect and type(data) is np.ndarray
        assert data.dtype == want.dtype and np.array_equal(data, want)
        assert not any(np.shares_memory(data, tile) for tile in tiles)
    return pickled


@st.composite
def batches(draw):
    """Pieces at every coordinate and extent boundary: an extent at 255
    and beyond comes with a zero one, so its tile stays small."""
    dtype = np.dtype(draw(st.sampled_from(BATCH_DTYPES)))
    if draw(st.booleans()):  # every tile an unpickled array's: one fresh dtype object
        dtype = _copied(np.zeros(1, dtype)).dtype
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from([999, 1000, 1001])))
    edge = st.sampled_from(COORD_EDGES)
    small = st.integers(1, 3) if n < 999 else st.just(1)
    tiles, rows = [], []
    for i in range(n):
        if i < 6:  # long batches cut their last tile again and again
            h, w = draw(st.one_of(st.tuples(small, small), st.tuples(edge, st.just(0)),
                                  st.tuples(st.just(0), edge), st.tuples(edge, st.just(1))
                                  .filter(lambda hw: hw[0] <= 256)))
            # Offsets into the tile, none beside a zero extent: that tile
            # holds no element, however long its other side.
            ro, co = draw(st.integers(0, int(h > 0))), draw(st.integers(0, int(w > 0)))
            shape = h + ro, w + co
            tiles.append((np.arange(shape[0] * shape[1]) % 7).astype(dtype).reshape(shape))
            coords = [draw(edge if n < 999 else st.sampled_from([0, 255])) for _ in range(4)]
        rows.append(row_of(tiles, Rect(*coords), len(tiles) - 1,
                           slice(ro, ro + h), slice(co, co + w)))
    return tiles, rows


class TestBatchPricing:
    """A redistribution batch's ``nbytes`` against ``pickle.dumps`` of the
    list a pickling sender sent, ``[(rect, np.ascontiguousarray(cut))]``."""

    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_summed_at_every_size(self, batch):
        """Arithmetic path for every builtin numeric dtype, int opcode
        width and batch length, whether or not the list reaches 64 KiB."""
        tiles, rows = batch
        assert not assert_priced_as_sent(tiles, rows)

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001])
    @pytest.mark.parametrize("dtype", [np.bool_, np.float32])
    def test_appends_batching(self, n, dtype):
        """Arithmetic path: one APPEND after a single piece, else a
        MARK/APPENDS pair per 1 000 pieces."""
        tiles = [np.ones((2, 2), dtype), np.zeros((3, 1), dtype)]
        rows = [row_of(tiles, Rect(i % 3, 255, 0, i % 2), i % 2, slice(1, 2), slice(0, 1))
                for i in range(n)]
        assert not assert_priced_as_sent(tiles, rows)

    def test_a_batch_straddling_the_frame_target_is_summed(self):
        """Arithmetic path: batches of 2 KiB pieces from just under 64, 128
        and 192 KiB to past each, where the pickler cuts another frame, each
        priced as the pickle of the sent list."""
        tile = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
        frames = set()
        for n in [*range(28, 36), *range(60, 68), *range(92, 100)]:
            rows = [row_of([tile], Rect(0, 16, 0, 16), 0, slice(0, 16), slice(0, 16))
                    for _ in range(n)]
            assert not assert_priced_as_sent([tile], rows), n
            frames.add(_nbytes(sent_list([tile], rows)) // (64 * 1024))
        assert frames == {0, 1, 2, 3}

    @pytest.mark.parametrize("cut", ["contiguous", "strided"])
    def test_a_read_only_tile_is_pickled(self, cut):
        """Pickle path: ``from_global`` of a read-only global hands a rank
        views of it; a contiguous cut of one is a read-only view, pickled
        as BINBYTES, a strided one a copy."""
        g = np.arange(48.0).reshape(6, 8)
        g.setflags(write=False)
        (tile,) = DistMatrix.from_global(
            types.SimpleNamespace(rank=0), BlockRow1D((6, 8), 1), g
        ).tiles
        assert not tile.flags.writeable
        cs = slice(0, 8) if cut == "contiguous" else slice(2, 5)
        rows = [row_of([tile], Rect(1, 3, cs.start, cs.stop), 0, slice(1, 3), cs),
                row_of([tile], Rect(4, 5, 0, 8), 0, slice(4, 5), slice(0, 8))]
        assert assert_priced_as_sent([tile], rows)
        _n, _p, hop = batch_priced([tile], rows)
        assert [d.flags.writeable for _r, d in hop.blocks] == [cut == "strided", False]

    class Tagged(np.ndarray):
        pass

    @pytest.mark.parametrize("odd", ["fresh_dtype_object", ">f8", "subclass", "metadata"])
    def test_an_odd_tile_is_pickled(self, odd):
        """Pickle path: a second dtype object for the same dtype (an
        unpickled tile's, which a pickle writes out again in full), a
        non-native byte order, an ndarray subclass and a dtype with
        metadata — in the middle of a batch the sum could price."""
        plain = np.arange(12.0).reshape(3, 4)
        tile = {
            "fresh_dtype_object": lambda: _copied(plain),
            ">f8": lambda: plain.astype(">f8"),
            "subclass": lambda: plain.view(self.Tagged),
            "metadata": lambda: plain.astype(np.dtype(np.float64, metadata={"m": 1})),
        }[odd]()
        tiles = [plain, tile]
        rows = [row_of(tiles, Rect(0, 2, 0, 2), t, slice(0, 2), slice(t, t + 2))
                for t in (0, 1, 0)]
        assert assert_priced_as_sent(tiles, rows)
        # The odd tile alone: a dtype the sum has no constant for, or —
        # an unpickled tile's dtype object — the batch's only one.
        assert assert_priced_as_sent([tile], [row_of([tile], Rect(0, 1, 0, 4), 0,
                                                       slice(0, 1), slice(0, 4))]) == (
            odd != "fresh_dtype_object"
        )


# ---------------------------------------------------------------- isolation -- #
MUTABLE = {
    "list": lambda: [1, [2, 3]],
    "dict": lambda: {"a": [1], "b": 2},
    "ndarray": lambda: np.arange(6.0),
    "tuple_of_list": lambda: (1, [2, 3]),
    "tuple_of_ndarray": lambda: ("tile", (np.ones(3), 4)),
}
IMMUTABLE = [None, True, 7, -(10 ** 30), 2.5, "text", b"raw", (), (1, "a", (2.5, None, b"x"))]


def poke(obj, who: int):
    """Change ``obj`` in place wherever it can be changed; returns it."""
    if isinstance(obj, np.ndarray):
        obj += who + 1
    elif isinstance(obj, list):
        for x in obj:
            poke(x, who)
        obj.append(who)
    elif isinstance(obj, dict):
        for x in obj.values():
            poke(x, who)
        obj["poked"] = who
    elif isinstance(obj, tuple):
        for x in obj:
            poke(x, who)
    return obj


def _exchange(op: str, comm, value):
    """What ``comm.rank`` receives from the others under ``op``."""
    if op == "allgather":
        got = comm.allgather(value)
        return got[:comm.rank] + got[comm.rank + 1:]
    if op == "bcast":
        got = comm.bcast(value if comm.rank == 0 else None)
        return [] if comm.rank == 0 else [got]
    if comm.rank == 0:
        for dest in range(1, comm.size):
            comm.send(value, dest, tag=3)
        return []
    return [comm.recv(source=0, tag=3)]


class TestIsolation:
    @pytest.mark.parametrize("op", ["allgather", "send", "bcast"])
    @pytest.mark.parametrize("kind", sorted(MUTABLE))
    def test_a_receiver_changes_nothing_but_its_own(self, op, kind):
        make = MUTABLE[kind]

        def body(comm):
            mine = make()
            got = _exchange(op, comm, mine)
            for x in got:
                poke(x, comm.rank)
            comm.barrier()
            return mine, got

        res = run_spmd(5, body, machine=laptop())
        for rank, (mine, got) in enumerate(res.results):
            np.testing.assert_equal(mine, make())
            for x in got:
                np.testing.assert_equal(x, poke(make(), rank))

    @pytest.mark.parametrize("op", ["send", "bcast"])
    @pytest.mark.parametrize("value", IMMUTABLE, ids=repr)
    def test_an_immutable_value_is_handed_over(self, op, value):
        assert is_immutable(value)

        def body(comm):
            return _exchange(op, comm, value)

        res = run_spmd(5, body, machine=laptop())
        got = [x for received in res.results for x in received]
        assert len(got) == 4 and all(x == value and type(x) is type(value) for x in got)
        if type(value) is tuple:
            assert all(x is value for x in got)

    def test_allgather_hands_every_rank_the_same_immutable_blocks(self):
        def body(comm):
            return comm.allgather((comm.rank, "r%d" % comm.rank))

        res = run_spmd(6, body, machine=laptop())
        first = res.results[0]
        assert first == [(r, "r%d" % r) for r in range(6)]
        for got in res.results[1:]:
            assert got == first and all(x is y for x, y in zip(got, first))
            assert got is not first  # the list is each rank's own

    @pytest.mark.parametrize(
        "value", [[1], {"a": 1}, np.int64(3), (1, [2]), (1, np.float64(2.0)), bytearray(b"x"), 2j],
        ids=repr,
    )
    def test_anything_else_is_not(self, value):
        assert not is_immutable(value)

    def test_deep_nesting_is_no_recursion(self):
        value = ()
        for _ in range(50_000):
            value = (value, 1)
        assert is_immutable(value)

    @staticmethod
    def _sent(value, after=None):
        """What rank 1 receives of ``value`` sent by rank 0, which calls
        ``after(value)`` once ``send`` has returned, and the bytes sent."""

        def body(comm):
            if comm.rank == 0:
                comm.send(value, 1)
                if after is not None:
                    after(value)
            comm.barrier()
            return comm.recv(source=0) if comm.rank == 1 else None

        res = run_spmd(2, body, machine=laptop())
        return res.results[1], res.traces[0].bytes_sent - res.traces[0].colls[
            "other"]["barrier.dissemination"].bytes_sent

    def test_a_masked_array_keeps_its_mask(self):
        got, _nbytes_sent = self._sent(np.ma.array([1.0, -1.0], mask=[False, True]))
        assert type(got) is np.ma.MaskedArray
        assert got.mask.tolist() == [False, True] and got[0] == 1.0

    def test_a_matrix_stays_a_matrix(self):
        got, _nbytes_sent = self._sent(np.matrix([[1.0, 2.0]]))
        assert type(got) is np.matrix and got.tolist() == [[1.0, 2.0]]

    def test_an_object_array_shares_nothing_with_its_sender(self):
        value = np.empty(2, dtype=object)
        value[0], value[1] = [1, 2], "x"
        got, _nbytes_sent = self._sent(value, after=lambda v: v[0].append(3))
        assert got[0] == [1, 2] and got[0] is not value[0]

    def test_an_object_arrays_elements_are_priced(self):
        value = np.array(["y" * 10_000, 1], dtype=object)
        got, nbytes_sent = self._sent(value)
        assert got[0] == "y" * 10_000
        assert nbytes_sent == len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


# ------------------------------------------------------------------- faults -- #
class TestCorruptionLandsOnTheReceiversCopy:
    def test_one_flip_in_one_copy(self):
        """``corrupt_at=(0,)`` on the link 2 → 0 in phase ``replicate``: on
        the last hop of a 4-rank allgather rank 2 hands rank 0 copies of
        blocks 2 and 3, one element of one of which flips.  Rank 2's own
        block and every other rank's copies stay bit-identical."""
        p = 4
        plan = FaultPlan(seed=3, links=(
            LinkFault(src=2, dst=0, corrupt_phase="replicate", corrupt_at=(0,)),))

        def block(r):
            return np.arange(12.0).reshape(3, 4) * (r + 1)

        def body(comm):
            mine = block(comm.rank)
            with comm.phase("replicate"):
                got = comm.allgather(mine)
            return mine, got

        res = run_spmd(p, body, machine=laptop(), faults=plan)
        assert [t.corruptions_injected for t in res.traces] == [0, 0, 1, 0]
        for rank, (mine, got) in enumerate(res.results):
            assert got[rank] is mine and np.array_equal(mine, block(rank))
            off = sum(int(np.count_nonzero(g != block(r))) for r, g in enumerate(got))
            assert off == (1 if rank == 0 else 0), rank


class TestCorruptionFindsNothingToFlip:
    PLAN = FaultPlan(seed=5, links=(LinkFault(corrupt_prob=1.0, corrupt_elems=2),))

    def test_split_traffic(self):
        def body(comm):
            sub = comm.split(comm.rank % 3, -comm.rank)
            return sub.group

        res = run_spmd(11, body, machine=laptop(), faults=self.PLAN)
        for rank, group in enumerate(res.results):
            assert group == tuple(r for r in range(10, -1, -1) if r % 3 == rank % 3)
        assert all(t.msgs_sent > 0 for t in res.traces)
        assert [t.corruptions_injected for t in res.traces] == [0] * 11
        assert not any(t.corruptions_injected_by_phase for t in res.traces)

    def test_bytes_that_look_like_a_pickled_array(self):
        """``bytes`` the user sends are the user's, whatever they spell."""
        blob = pickle.dumps([np.linspace(0.0, 1.0, 8)])

        def body(comm):
            if comm.rank == 0:
                comm.send(blob, 1)
                comm.send(("framed", blob), 1)
                return None
            return comm.recv(source=0), comm.recv(source=0)

        res = run_spmd(2, body, machine=laptop(), faults=self.PLAN)
        assert res.results[1] == (blob, ("framed", blob))
        assert [t.corruptions_injected for t in res.traces] == [0, 0]
