"""What a payload weighs on the wire and what the receiver may do to it.

The contract (docs/VIRTUAL_MPI.md, "Point-to-point semantics"): an array
arrives as a copy, any other object as an unpickled copy, a value nobody
can change — a frozen array among them (``TestFrozenArrays``) — as the
sender's own object; and each costs the wire what it
weighs by one rule (``repro.mpi.datatypes.nbytes_of``): an array its
``nbytes``, a number a word, a string its bytes, a container the sum of
what it holds.  :func:`weight` below is that rule written out once more,
recursively, and ``TestSizeRule`` holds every door of the message path
to it.  Three kinds of message are handed over instead of pickled, and
each is weighed by adding up its blocks: ``Comm.split``'s ``(color,
key)`` table on its Bruck hops (``TestSplitOracle``, ``TestHopPricing``),
an allgather of arrays, whose windows are private copies
(``TestArrayWindows``), and a redistribution batch of ``(Rect, ndarray)``
pieces (``TestBatchPricing``).  None of them is ever pickled, and none
weighs more than its data wherever a pickler would cut frames
(``TestFrames``).  ``TestIsolation`` checks that no receiver can reach a
sender's object through any of them.
"""

from __future__ import annotations

import contextlib
import fractions
import math
import pickle
import pickletools
import tracemalloc
import types
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.blocks import Rect
from repro.layout.distributions import BlockRow1D
from repro.layout.matrix import DistMatrix
from repro.layout.redistribute import _hop
from repro.machine.model import laptop
from repro.mpi import Status, datatypes, run_spmd
from repro.mpi.datatypes import (
    MAX, Hop, freeze, hand_over, handed_array, is_frozen, is_immutable, nbytes_of, payload_pack,
)
from repro.mpi.errors import CommError
from repro.mpi.faults import FaultPlan, LinkFault


def weight(value) -> int:
    """The size rule, recursively: what ``value`` weighs on the wire."""
    kind = type(value)
    if kind is np.ndarray:
        return sum(map(weight, value.flat)) if value.dtype.hasobject else value.nbytes
    if isinstance(value, np.generic):
        return value.nbytes
    if value is None:
        return 0
    if kind in (bool, int, float):
        return 8
    if kind is complex:
        return 16
    if kind is str:
        return len(value.encode("utf-8", "surrogatepass"))
    if kind in (bytes, bytearray):
        return len(value)
    if kind in (list, tuple, Rect):
        return sum(map(weight, value))
    if kind is dict:
        return sum(map(weight, value)) + sum(map(weight, value.values()))
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def bruck_weights(values: list) -> list[int]:
    """What each rank sends in a Bruck allgather of ``values[r]`` from
    rank ``r``: every window it forwards weighs the sum of its blocks."""
    size = len(values)
    sent = [0] * size
    h = 1
    while h < size:
        cnt = min(h, size - h)
        for rank in range(size):
            sent[rank] += sum(weight(values[(rank + i) % size]) for i in range(cnt))
        h += cnt
    return sent


def bruck_bytes(values: list) -> list[tuple[int, int]]:
    """``(bytes_sent, bytes_recv)`` per rank of a Bruck allgather of
    ``values[r]`` from rank ``r``, each window weighing its blocks."""
    size = len(values)
    sent = bruck_weights(values)
    recv = [0] * size
    h = 1
    while h < size:
        cnt = min(h, size - h)
        for rank in range(size):
            recv[(rank - h) % size] += sum(
                weight(values[(rank + i) % size]) for i in range(cnt))
        h += cnt
    return list(zip(sent, recv))


def allgather_bytes(result) -> list[tuple[int, int]]:
    """What each rank's trace charged to the Bruck allgather."""
    out = []
    for trace in result.traces:
        cs = trace.colls.get("other", {}).get("allgather.bruck")
        out.append((0, 0) if cs is None else (cs.bytes_sent, cs.bytes_recv))
    return out


def _object_array(items: list) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = [None] * len(items)
    for i, item in enumerate(items):
        out[i] = item
    return out


ARRAYS = st.builds(
    lambda dtype, n, strided: (np.arange(2 * n) % 5).astype(dtype)[:: 2 if strided else 1][:n],
    st.sampled_from(["float64", "float32", "complex128", "int8", "int64", "bool", ">f8"]),
    st.integers(0, 6), st.booleans(),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.complex_numbers(),
    st.text(max_size=6), st.binary(max_size=6), ARRAYS,
    st.sampled_from([np.float64(2.5), np.int32(-7), np.bool_(True), np.complex64(1j)]),
    st.builds(Rect, *[st.integers(-3, 300)] * 4),
    st.frozensets(st.integers(0, 9), max_size=3),  # a type the rule does not know
    st.builds(fractions.Fraction, st.integers(), st.integers(1, 99)),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), inner, max_size=3),
        st.lists(inner, min_size=1, max_size=3).map(_object_array),
    ),
    max_leaves=10,
)


class TestSizeRule:
    @pytest.mark.parametrize("value, nbytes", [
        (np.zeros((3, 5)), 120), (np.zeros(4, np.float32)[::2], 8), (np.float32(1.0), 4),
        (np.int64(3), 8), (True, 8), (-(10 ** 40), 8), (2.5, 8), (1 + 2j, 16), (None, 0),
        ("text", 4), ("\u00e9t\u00e9", 5), (b"raw", 3), (bytearray(b"xy"), 2),
        ([1, [2.5, None]], 16), ((1, "ab"), 10), ({"k": np.ones(2)}, 17), ({}, 0),
        (_object_array(["y" * 10, 1]), 18), (Rect(0, 1, 2, 3), 32),
        (Hop([np.ones(3), (1, 2)], [24, 16], True), 40),
        (frozenset({1}), len(pickle.dumps(frozenset({1}), protocol=pickle.HIGHEST_PROTOCOL))),
    ], ids=repr)
    def test_each_line_of_the_rule(self, value, nbytes):
        assert nbytes_of(value) == nbytes

    def test_deep_nesting_is_no_recursion(self):
        value = ()
        for _ in range(50_000):
            value = ([value], 1)
        assert nbytes_of(value) == 50_000 * 8

    @settings(max_examples=80, deadline=None)
    @given(PAYLOADS, st.lists(PAYLOADS, min_size=3, max_size=3))
    def test_every_door_charges_the_rule(self, value, gathered):
        """``value`` goes 0 → 1 by ``send``, ``isend`` and ``sendrecv``
        (1 answers ``None``, which weighs nothing); then ranks 0-2
        allgather ``gathered``.  Each receive's ``Status.nbytes`` and the
        sender's ``bytes_sent`` are the rule's sums."""

        def body(comm):
            statuses = []
            if comm.rank == 0:
                comm.send(value, 1, tag=1)
                comm.isend(value, 1, tag=2).wait()
                comm.sendrecv(value, 1, 1, sendtag=3, recvtag=4)
            elif comm.rank == 1:
                status = Status()
                comm.recv(source=0, tag=1, status=status)
                req = comm.irecv(source=0, tag=2)
                req.wait()
                statuses = [status.nbytes, req.status.nbytes]
                comm.sendrecv(None, 0, 0, sendtag=4, recvtag=3)
            comm.allgather(gathered[comm.rank])
            return statuses

        res = run_spmd(3, body, machine=laptop())
        want = weight(value)
        assert res.results[1] == [want, want]
        bruck = bruck_weights(gathered)
        assert [t.bytes_sent for t in res.traces] == [3 * want + bruck[0], *bruck[1:]]
        assert [sent for sent, _recv in allgather_bytes(res)] == bruck

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_a_split_exchanges_color_and_key(self, p):
        """As ``MPI_Comm_split``: a word for the color (nothing for
        ``None``) and one for the key, per rank, gathered by Bruck; each
        group ordered by ``(key, rank)``, narrow and wide colors alike."""
        colors = [None, -70_000, 10 ** 12, 255]
        spec = [(colors[r % 4], -(r // 2)) for r in range(p)]

        def body(comm):
            sub = comm.split(*spec[comm.rank])
            return None if sub is None else sub.group

        res = run_spmd(p, body, machine=laptop())
        for rank, (color, _key) in enumerate(spec):
            members = sorted((k, r) for r, (c, k) in enumerate(spec) if c == color)
            want = None if color is None else tuple(r for _k, r in members)
            assert res.results[rank] == want
        assert [sent for sent, _recv in allgather_bytes(res)] == bruck_weights(spec)


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


COLORS = st.sampled_from([None, -70_000, -1, 0, 3, 255, 256, 65_535, 65_536, 10 ** 12])

#: Each side of every int opcode boundary a pickle has (BININT1, BININT2,
#: BININT, LONG1), both infinities, nan, the bools and None: a word each.
INT_EDGES = [0, 255, 256, 65_535, 65_536, 2 ** 31 - 1, -1, -(2 ** 31), 2 ** 31, 2 ** 63, 10 ** 40]
EDGE_ATOMS = [*INT_EDGES, 0.0, -2.5, math.inf, -math.inf, math.nan, True, False, None]


class TestSplitOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(COLORS, st.integers(-3, 3)), min_size=1, max_size=17))
    def test_groups_and_hop_bytes(self, spec):
        """``spec[r]`` is rank r's ``(color, key)``: primes and powers of
        two, narrow and wide colors, tied and negative keys.  Every hop
        weighs a word per color (nothing for ``None``) and per key."""
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
        assert allgather_bytes(res) == bruck_bytes(spec)

    @pytest.mark.parametrize("p", [2, 5, 8, 13])
    def test_one_constant_from_every_rank_costs_what_copies_cost(self, p):
        """Every rank contributes the *same object*: each block still
        weighs what it holds on every hop that carries it, however many
        of a window's blocks are one object."""
        constant = ("ok", (1.5, "ok"), b"\\x00\\x01")

        def body(comm):
            return comm.allgather(constant)

        res = run_spmd(p, body, machine=laptop())
        assert res.results == [[constant] * p] * p
        assert all(x is constant for got in res.results for x in got)
        assert allgather_bytes(res) == bruck_bytes([constant] * p)

    @pytest.mark.parametrize("p", [2, 3, 17, 64])
    def test_flat_tuples_of_every_size_class(self, p):
        """Rank r contributes a flat tuple of ``r % 7`` edge atoms (``()``
        at 0), or at ``r % 7 == 6`` a bare one, so every int size, ±inf,
        nan, the bools and None cross every hop, a word each."""

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
        is a handed hop weighed by a sum, and nothing is pickled."""
        p = 7
        block = np.arange(12.0).reshape(3, 4)

        def body(comm):
            return comm.allgather(block if comm.rank == 0 else None)

        with pickling() as seen:
            res = run_spmd(p, body, machine=laptop())
        assert seen == []
        for rank, got in enumerate(res.results):
            np.testing.assert_equal(got, [block] + [None] * (p - 1))
            assert (got[0] is block) == (rank == 0)
        assert allgather_bytes(res) == bruck_bytes([block] + [None] * (p - 1))


# -------------------------------------------------------------- hop pricing -- #
@contextlib.contextmanager
def pickling():
    """Each value ``repro.mpi.datatypes`` pickles inside the block, to
    send it or to weigh an object the size rule does not know."""
    seen: list = []
    blob = datatypes._blob

    def spy(value):
        seen.append(value)
        return blob(value)

    datatypes._blob = spy
    try:
        yield seen
    finally:
        datatypes._blob = blob


def priced(blocks: list) -> tuple[int, str]:
    """``(nbytes, path)`` of the window ``allgather`` sends of ``blocks``:
    a :class:`Hop` of them and their sizes when every block is immutable,
    of private copies when the rest are arrays, else the plain list — and
    ``"summed"`` when weighing and packing it pickled nothing, else
    ``"blob"``.  A handed window must hold what ``blocks`` holds, each
    array a copy of its own."""
    with pickling() as seen:
        sizes = [nbytes_of(b) for b in blocks]
        if all(map(is_immutable, blocks)):
            window = Hop(list(blocks), sizes, False)
        elif all(is_immutable(b) or handed_array(b) for b in blocks):
            window = hand_over(list(blocks), sizes)
        else:
            window = list(blocks)
        stored, nbytes, handed = payload_pack(window)
    if type(window) is Hop:
        assert stored is window and handed
        np.testing.assert_equal(window.blocks, blocks)
        for got, block in zip(window.blocks, blocks):
            if type(block) is np.ndarray:
                assert got is not block and not np.shares_memory(got, block)
    return nbytes, "blob" if seen else "summed"


ATOM = st.one_of(st.sampled_from(EDGE_ATOMS), st.integers(), st.floats())
SIZED_BLOCK = st.one_of(ATOM, st.lists(ATOM, max_size=6).map(tuple))


class TestHopPricing:
    """A hop's ``nbytes`` against :func:`weight` of its blocks."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SIZED_BLOCK, min_size=1, max_size=40))
    def test_atoms_and_flat_tuples_are_summed(self, blocks):
        """Any mix of atoms and flat tuples of atoms."""
        assert priced(blocks) == (weight(blocks), "summed")

    @pytest.mark.parametrize("atom", EDGE_ATOMS, ids=repr)
    def test_every_opcode_boundary(self, atom):
        """Each edge atom bare, in a tuple of one and of four, alone and
        beside ``()``: a word however a pickle would write it."""
        for blocks in ([atom], [(atom,)], [(atom, atom, atom, atom)], [atom, (), (atom,)]):
            words = sum(len(b) if type(b) is tuple else 1 for b in blocks)
            assert priced(blocks) == (0 if atom is None else 8 * words, "summed"), blocks

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001, 2500])
    def test_appends_batching(self, n):
        """Around each 1 000 blocks, where a pickle starts another
        MARK/APPENDS pair: the window weighs its blocks and nothing more."""
        atoms = [EDGE_ATOMS[i % len(EDGE_ATOMS)] for i in range(n)]
        blocks = [(atom,) if i % 3 else atom for i, atom in enumerate(atoms)]
        assert priced(blocks) == (weight(blocks), "summed")

    def test_a_window_near_the_frame_target_is_never_a_blob(self):
        """Windows of 20-int tuples from just under 64 KiB of pickle to
        past it, one tuple bigger than a frame by itself, and 20 000 bare
        ints: each weighs its words, and none is ever pickled."""
        block = tuple(range(256, 276))
        for n in range(1030, 1050):
            assert priced([block] * n) == (n * 20 * 8, "summed"), n
        huge = [7, tuple(range(256, 256 + 30_000))]
        assert priced(huge) == (30_001 * 8, "summed")
        atoms = [2 ** 20 + i for i in range(20_000)]
        assert priced(atoms) == (20_000 * 8, "summed")

    @pytest.mark.parametrize(
        "odd",
        ["text", b"raw", (1, (2.5, None)), ("same", "same")],
        ids=["str", "bytes", "nested_tuple", "repeated_str"],
    )
    def test_a_block_of_unknown_size_is_counted(self, odd):
        """One block whose pickle depends on what else is in the message
        (a str or bytes a pickle memoizes, a nested tuple) among plain
        ones: the rule counts it like any other, its own bytes or words."""
        blocks = [7, (1, 2.5), odd, None, (65_536,)]
        assert priced(blocks) == (weight(blocks), "summed")
        assert weight(blocks) == 8 + 16 + weight(odd) + 8

    def test_an_array_among_atoms_is_summed(self):
        """An ndarray among atoms and tuples: handed over as a copy and
        weighed by its ``nbytes``."""
        blocks = [7, (1, 2.5), np.arange(3.0), None, (65_536,)]
        assert priced(blocks) == (8 + 16 + 24 + 8, "summed")

    @pytest.mark.parametrize("n", [200, 201, 400])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_tuples_before_the_first_array(self, n, order):
        """However many tuples come before two arrays of one shape (where
        a pickle's back-references to the first grow), each array weighs
        its ``nbytes``, in either order."""
        first = np.zeros((2, 3), order=order)
        blocks = [(i,) for i in range(n)] + [first, first.copy("A")]
        assert priced(blocks) == (8 * n + 2 * 48, "summed")

    def test_a_shared_constant(self):
        """The same object from several origins, a flat tuple of atoms and
        one holding strings, weighs what it holds once per block."""
        flat, worded = (1, 2.5, None), ("ok", (1.5, "ok"))
        assert priced([flat, 3, flat, flat]) == (3 * 16 + 8, "summed")
        assert priced([worded, 3, worded]) == (2 * 12 + 8, "summed")


# ------------------------------------------------------------ array windows -- #
WINDOW_DTYPES = ["float32", "float64", "complex64", "complex128", "int64", "bool"]


def _array(dtype: str, kind: str, r: int) -> np.ndarray:
    shape = {"empty": (0, 3 + r % 2), "vector": (5 + r,), "one": (1, 1), "grid": (3, 4 + r),
             "cube": (2, 1, 3), "fortran": (4 + r % 3, 3), "strided": (6, 7 + r),
             "read_only": (3, 5 + 4 * r), "frozen": (4, 2 + r), "frozen_slice": (5, 4 + r)}[kind]
    a = ((np.arange(int(np.prod(shape))) + r) % (2 if dtype == "bool" else 7)).astype(dtype)
    a = a.reshape(shape)
    if kind == "fortran":
        return np.asfortranarray(a)
    if kind == "strided":
        return a[::2, 1::2]
    if kind == "read_only":
        a.flags.writeable = False
    if kind == "frozen":
        return freeze(a.copy())
    if kind == "frozen_slice":
        return freeze(a.copy())[1:, ::2]
    return a


@st.composite
def contributions(draw):
    """One value per rank: arrays of one dtype (now and then of two), of
    every shape and layout a block can have, frozen or not, and here and
    there ``None``."""
    p = draw(st.integers(1, 9))
    dtypes = draw(st.lists(st.sampled_from(WINDOW_DTYPES), min_size=1, max_size=2))
    kinds = ["empty", "vector", "one", "grid", "cube", "fortran", "strided", "read_only",
             "frozen", "frozen_slice"]
    values = []
    for r in range(p):
        if draw(st.integers(0, 9)) == 0:
            values.append(None)
        else:
            values.append(_array(draw(st.sampled_from(dtypes)), draw(st.sampled_from(kinds)), r))
    return values


class TestArrayWindows:
    """An allgather of arrays hands each window over: frozen arrays as
    they are, every other array as a private copy."""

    @settings(max_examples=60, deadline=None)
    @given(contributions())
    def test_every_rank_gets_every_contribution(self, values):
        """Its own as it is, a frozen one (a slice of a frozen array too)
        as that same object, everyone else's as a copy sharing no memory
        with the sender's or any other rank's, in the order it was in."""
        p = len(values)

        def body(comm):
            return comm.allgather(values[comm.rank])

        res = run_spmd(p, body, machine=laptop())
        for rank, got in enumerate(res.results):
            np.testing.assert_equal(got, values)
            assert got[rank] is values[rank]
            for r, v in enumerate(got):
                if is_frozen(values[r]):
                    assert v is values[r]
                elif r != rank and v is not None:
                    assert not np.shares_memory(v, values[r])
                    fortran = values[r].flags.f_contiguous and not values[r].flags.c_contiguous
                    assert v.flags.f_contiguous if fortran else v.flags.c_contiguous
        received = [v for rank, got in enumerate(res.results)
                    for r, v in enumerate(got)
                    if r != rank and v is not None and not is_frozen(values[r])]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(received) for b in received[i + 1:])

    @pytest.mark.parametrize("kinds", [("grid", "read_only", "vector", "empty", "cube"),
                                       ("fortran",)], ids=["C", "F"])
    @pytest.mark.parametrize("p", [2, 5, 8])
    @pytest.mark.parametrize("dtype", WINDOW_DTYPES)
    def test_one_dtype_and_order_is_summed(self, p, dtype, kinds):
        """Blocks of one dtype and order, any shape, writeable or not:
        nothing is pickled, and every window weighs its arrays' bytes."""
        values = [_array(dtype, kinds[r % len(kinds)], r) for r in range(p)]

        def body(comm):
            return comm.allgather(values[comm.rank])

        with pickling() as seen:
            res = run_spmd(p, body, machine=laptop())
        assert seen == []
        assert allgather_bytes(res) == bruck_bytes(values)
        for got in res.results:
            np.testing.assert_equal(got, values)

    def test_a_strided_block_is_priced_as_it_is(self):
        """A rank's own strided view weighs its elements, as the
        contiguous copies the other ranks get of it do."""
        p = 4

        def block(r):
            return _array("float64", "strided" if r == 1 else "grid", r)

        def body(comm):
            return comm.allgather(block(comm.rank))

        with pickling() as seen:
            res = run_spmd(p, body, machine=laptop())
        assert seen == []
        assert allgather_bytes(res) == bruck_bytes([block(r) for r in range(p)])
        for rank, got in enumerate(res.results):
            np.testing.assert_equal(got[1], block(1))
            assert got[1].flags.c_contiguous == (rank != 1)

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

    def test_a_redistribution_from_gathered_tiles_weighs_its_pieces(self):
        """Rank r's tiles are halves of the strips of ranks r+1 and r+2 as
        the allgather delivered them: each batch weighs its rectangles'
        four words and its cuts' elements, whatever arrays it was cut from."""
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
            out = redistribute(DistMatrix(comm, dist, tiles_of(got, comm.rank)), strips,
                               phase="moved")
            return out.tiles

        res = run_spmd(p, body, machine=laptop(), record_events=True)
        moved = sorted((rec.src, rec.dst, rec.nbytes) for rec in res.tracer.msglog
                       if rec.phase == "moved")
        table = overlap_table(dist, strips, False)
        want = sorted((r, dst, weight(sent_list(tiles_of(values, r), list(rows))))
                      for r in range(p)
                      for dst, rows in groupby(table.send_rows(r), itemgetter(0)) if dst != r)
        assert moved == want and len(moved) > 0
        for r, (tile,) in enumerate(res.results):
            np.testing.assert_equal(tile, values[r])


# ------------------------------------------------------------------- frames -- #
def unframed_tail(blob: bytes) -> int:
    """Bytes after the last FRAME's contents: a last frame shorter than 4
    bytes, which the pickler writes without a header."""
    frames = [(pos, arg) for op, arg, pos in pickletools.genops(blob) if op.name == "FRAME"]
    pos, length = frames[-1]
    return len(blob) - (pos + 9 + length)


class TestFrames:
    """Windows and batches whose pickle a pickler would cut into frames
    (at the first block boundary where a frame holds 64 KiB, and around
    every buffer of 64 KiB or more): they weigh their data, no more."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(6, 26), st.integers(0, 1100), st.sampled_from(["float64", "bool"]))
    def test_windows_straddling_64_128_and_192_kib(self, n, extra, dtype):
        """``n`` 8 KiB arrays and one of ``extra`` more elements put the
        list's end anywhere around each frame target."""
        size = 8192 // np.dtype(dtype).itemsize
        blocks = [np.zeros(size + (extra if i == n - 1 else i % 3), dtype) for i in range(n)]
        assert priced(blocks) == (sum(b.nbytes for b in blocks), "summed")

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("read_only", [False, True])
    def test_a_buffer_of_64_kib_or_more(self, at, read_only):
        """A buffer a pickle writes outside any frame, first, in the
        middle and last, writeable or not, among small blocks and atoms:
        each handed copy is writeable either way."""
        big = np.arange(9000.0).reshape(90, 100)
        big.flags.writeable = not read_only
        small = [np.ones((3, 3)), None, np.ones(2)]
        blocks = {"first": [big, *small], "middle": [small[0], big, *small[1:]],
                  "last": [*small, big]}[at]
        blocks = [b for b in blocks if b is not None] if at == "first" else blocks
        assert priced(blocks) == (72_000 + 72 + 16, "summed")
        window = hand_over(list(blocks), [nbytes_of(b) for b in blocks])
        assert all(b.flags.writeable for b in window.blocks if b is not None)

    def test_a_buffer_right_after_a_commit(self):
        """A first block ending anywhere around 64 KiB, then one of 64 KiB
        or more, where a pickle commits a frame at the second block."""
        big = np.zeros(70_000, np.uint8)
        for n in range(65_400, 65_540):
            blocks = [np.zeros(n, np.uint8), big]
            assert priced(blocks) == (n + 70_000, "summed"), n

    def test_a_last_frame_shorter_than_4_bytes(self):
        """Windows whose pickle commits a frame at the boundary of its
        last block, ``None``, leaving a frame of 3 bytes without a header:
        they weigh their array."""
        tails = set()
        for n in range(8040, 8200):
            blocks = [np.zeros(n), None]
            assert priced(blocks) == (8 * n, "summed"), n
            tails.add(unframed_tail(pickle.dumps(blocks, protocol=pickle.HIGHEST_PROTOCOL)))
        assert 3 in tails

    @pytest.mark.parametrize("n", [999, 1000, 1001])
    def test_appends_batching(self, n):
        """Around each 1 000 arrays, where a pickle starts another
        MARK/APPENDS pair, with a frame committed somewhere in each."""
        blocks = [np.full(8 + i % 5, float(i)) for i in range(n)]
        assert priced(blocks) == (sum(8 * (8 + i % 5) for i in range(n)), "summed")

    @pytest.mark.parametrize("n", [3, 31, 65])
    def test_pieces_of_64_kib_or_more(self, n):
        """A batch of pieces of 80 000 bytes beside small ones."""
        tile = np.arange(100 * 100.0).reshape(100, 100)
        rows = [row_of(Rect(0, 100, 0, 100), 0, slice(0, 100), slice(0, 100 if i % 2 else 3))
                for i in range(n)]
        assert assert_priced_as_sent([tile], rows) == sum(
            32 + (80_000 if i % 2 else 2_400) for i in range(n))


# ---------------------------------------------------- redistribution batches -- #
#: Each side of every int size a pickle has that a coordinate or an extent
#: can reach: BININT1, BININT2, BININT.
COORD_EDGES = [0, 255, 256, 65_535, 65_536, 2 ** 31 - 1]
BATCH_DTYPES = [np.float32, np.float64, np.complex64, np.complex128, np.int64, np.bool_]


def row_of(rect: Rect, t: int, rs: slice, cs: slice) -> list[int]:
    """A send row for the piece ``tiles[t][rs, cs]`` at ``rect``, as
    :meth:`OverlapTable.send_rows` yields it (to rank 1)."""
    return [1, *rect, t, rs.start, cs.start, rs.stop - rs.start, cs.stop - cs.start]


def sent_list(tiles: list, rows: list) -> list:
    """The pieces a batch for ``rows`` holds, ``[(rect, cut)]``."""
    return [(Rect(r0, r1, c0, c1), np.ascontiguousarray(tiles[t][ro : ro + h, co : co + w]))
            for _d, r0, r1, c0, c1, t, ro, co, h, w in rows]


def assert_priced_as_sent(tiles: list, rows: list) -> int:
    """The batch ``redistribute`` hands over for ``rows`` weighs what
    :func:`sent_list` holds by the rule, is handed over without a pickle,
    and holds those pieces, each a private copy; returns its weight."""
    hop = _hop(tiles, rows)
    with pickling() as seen:
        stored, nbytes, handed = payload_pack(hop)
    assert stored is hop and handed and seen == []
    sent = sent_list(tiles, rows)
    assert nbytes == weight(sent) == sum(hop.sizes)
    assert len(hop.sizes) == len(hop.blocks) == len(sent)
    for (rect, data), (want_rect, want) in zip(hop.blocks, sent):
        assert rect == want_rect and type(data) is np.ndarray
        assert data.dtype == want.dtype and np.array_equal(data, want)
        assert data.flags.c_contiguous and data.flags.writeable
        assert not any(np.shares_memory(data, tile) for tile in tiles)
    return nbytes


@st.composite
def batches(draw):
    """Pieces at every coordinate and extent boundary: an extent at 255
    and beyond comes with a zero one, so its tile stays small."""
    dtype = np.dtype(draw(st.sampled_from(BATCH_DTYPES)))
    if draw(st.booleans()):  # every tile an unpickled array's: one fresh dtype object
        dtype = pickle.loads(pickle.dumps(np.zeros(1, dtype))).dtype
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
        rows.append(row_of(Rect(*coords), len(tiles) - 1, slice(ro, ro + h), slice(co, co + w)))
    return tiles, rows


class TestBatchPricing:
    """A redistribution batch's ``nbytes`` against :func:`weight` of the
    pieces it holds, ``[(rect, np.ascontiguousarray(cut))]``."""

    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_summed_at_every_size(self, batch):
        """Every builtin numeric dtype, coordinate width and batch length,
        whether or not its pickle would reach 64 KiB."""
        tiles, rows = batch
        assert assert_priced_as_sent(tiles, rows) == sum(
            32 + h * w * tiles[t].itemsize for *_d, t, _ro, _co, h, w in rows)

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001])
    @pytest.mark.parametrize("dtype", [np.bool_, np.float32])
    def test_appends_batching(self, n, dtype):
        """One piece, two, and around each 1 000, where a pickle starts
        another MARK/APPENDS pair: four words and an element a piece."""
        tiles = [np.ones((2, 2), dtype), np.zeros((3, 1), dtype)]
        rows = [row_of(Rect(i % 3, 255, 0, i % 2), i % 2, slice(1, 2), slice(0, 1))
                for i in range(n)]
        assert assert_priced_as_sent(tiles, rows) == n * (32 + np.dtype(dtype).itemsize)

    def test_a_batch_straddling_the_frame_target_is_summed(self):
        """Batches of 2 KiB pieces from just under 64, 128 and 192 KiB of
        pickle to past each, where a pickler cuts another frame."""
        tile = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
        frames = set()
        for n in [*range(28, 36), *range(60, 68), *range(92, 100)]:
            rows = [row_of(Rect(0, 16, 0, 16), 0, slice(0, 16), slice(0, 16))
                    for _ in range(n)]
            assert assert_priced_as_sent([tile], rows) == n * (32 + 2048), n
            blob = pickle.dumps(sent_list([tile], rows), protocol=pickle.HIGHEST_PROTOCOL)
            frames.add(len(blob) // (64 * 1024))
        assert frames == {0, 1, 2, 3}

    @pytest.mark.parametrize("cut", ["contiguous", "strided"])
    def test_a_read_only_tile_is_copied(self, cut):
        """``from_global`` of a read-only global hands a rank views of it;
        a contiguous cut of one and a strided one both travel as writeable
        copies of their own."""
        g = np.arange(48.0).reshape(6, 8)
        g.setflags(write=False)
        (tile,) = DistMatrix.from_global(
            types.SimpleNamespace(rank=0), BlockRow1D((6, 8), 1), g
        ).tiles
        assert not tile.flags.writeable
        cs = slice(0, 8) if cut == "contiguous" else slice(2, 5)
        rows = [row_of(Rect(1, 3, cs.start, cs.stop), 0, slice(1, 3), cs),
                row_of(Rect(4, 5, 0, 8), 0, slice(4, 5), slice(0, 8))]
        assert assert_priced_as_sent([tile], rows) == 64 + 8 * (2 * (cs.stop - cs.start) + 8)

    class Tagged(np.ndarray):
        pass

    @pytest.mark.parametrize("odd", ["fresh_dtype_object", ">f8", "subclass", "metadata"])
    def test_an_odd_tile_is_summed(self, odd):
        """A second dtype object for the same dtype (an unpickled tile's),
        a non-native byte order, an ndarray subclass and a dtype with
        metadata, alone and in the middle of a batch of plain tiles: each
        piece a plain ndarray of the tile's dtype, weighing its elements."""
        plain = np.arange(12.0).reshape(3, 4)
        tile = {
            "fresh_dtype_object": lambda: pickle.loads(pickle.dumps(plain)),
            ">f8": lambda: plain.astype(">f8"),
            "subclass": lambda: plain.view(self.Tagged),
            "metadata": lambda: plain.astype(np.dtype(np.float64, metadata={"m": 1})),
        }[odd]()
        tiles = [plain, tile]
        rows = [row_of(Rect(0, 2, 0, 2), t, slice(0, 2), slice(t, t + 2)) for t in (0, 1, 0)]
        assert assert_priced_as_sent(tiles, rows) == 3 * (32 + 32)
        assert assert_priced_as_sent([tile], [row_of(Rect(0, 1, 0, 4), 0, slice(0, 1),
                                                     slice(0, 4))]) == 32 + 32


# ---------------------------------------------------------------- isolation -- #
MUTABLE = {
    "list": lambda: [1, [2, 3]],
    "dict": lambda: {"a": [1], "b": 2},
    "ndarray": lambda: np.arange(6.0),
    "tuple_of_list": lambda: (1, [2, 3]),
    "tuple_of_ndarray": lambda: ("tile", (np.ones(3), 4)),
}
IMMUTABLE = [None, True, 7, -(10 ** 30), 2.5, "text", b"raw", (), (1, "a", (2.5, None, b"x")),
             np.int64(3), np.float32(-2.5), np.bool_(True), (1, np.float64(2.0))]
#: numpy scalars: immutable, so handed over; ``np.void`` is not (it may be a view).
NUMPY_SCALARS = [np.int64(1), np.float32(2.5), np.bool_(True), np.complex64(1j),
                 np.datetime64("2020-01-01"), np.str_("ab"), np.bytes_(b"xy")]


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
        "value", [[1], {"a": 1}, (1, [2]), bytearray(b"x"), 2j,
                  np.zeros(1, "f8,i4")[0], (1, np.zeros(1, "f8,i4")[0])],
        ids=repr,
    )
    def test_anything_else_is_not(self, value):
        assert not is_immutable(value)

    @pytest.mark.parametrize("value", NUMPY_SCALARS, ids=repr)
    def test_a_numpy_scalar_is_handed_over_unpickled(self, value):
        """A numpy scalar weighs its ``nbytes`` as before, and is handed
        over instead of pickled (11.8 µs a send while it was pickled, and
        an unpickle on receipt; 1.0 µs for an ``int``)."""
        with pickling() as seen:
            stored, nbytes, handed = payload_pack(value)
        assert (stored is value, nbytes, handed, seen) == (True, value.nbytes, True, [])

    def test_a_structured_scalar_is_a_copy(self):
        """An ``np.void`` may be a view into its array: it is not handed over."""
        row = np.zeros(1, "f8,i4")
        got, nbytes = self._sent(row[0], after=lambda v: v.__setitem__(0, 5.0))
        assert row[0][0] == 5.0 and got[0] == 0.0 and nbytes == 12

    def test_a_max_vote_pickles_nothing(self):
        """``MAX`` is ``np.maximum``: after the first hop of a vote every
        operand is an ``np.int64``, handed over like an ``int``."""
        with pickling() as seen:
            res = run_spmd(6, lambda comm: comm.allreduce(comm.rank % 4, op=MAX),
                           machine=laptop())
        assert res.results == [3] * 6 and seen == []

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
        assert nbytes_sent == 10_000 + 8


# ------------------------------------------------------------ frozen arrays -- #
def frozen_block() -> np.ndarray:
    """A 3 x 4 float64 array that owns its memory, made read-only."""
    return freeze(np.arange(12.0).reshape(3, 4).copy())


class TestFrozenArrays:
    """An array that owns its memory and is not writeable is handed over as
    it is, like an immutable value; every other array is copied once."""

    @pytest.mark.parametrize("door", ["send", "isend", "sendrecv"])
    def test_a_frozen_array_arrives_as_the_same_object(self, door):
        block = frozen_block()
        assert is_frozen(block)

        def body(comm):
            if door == "sendrecv":
                return comm.sendrecv(block, 1 - comm.rank, 1 - comm.rank)
            if comm.rank == 1:
                return comm.recv(source=0)
            if door == "send":
                comm.send(block, 1)
            else:
                comm.isend(block, 1).wait()
            return None

        res = run_spmd(2, body, machine=laptop())
        got = [g for g in res.results if g is not None]
        assert got and all(g is block for g in got)
        assert not block.flags.writeable
        assert res.traces[0].bytes_sent == block.nbytes == 96

    @pytest.mark.parametrize("kind", ["writeable", "read_only_view", "read_only_slice"])
    def test_anything_else_is_copied(self, kind):
        """A writeable array and a read-only view of a writeable array
        each travel as a writeable C-order copy of their own: a write to
        the base would reach the view.  A read-only slice of a frozen
        array is frozen too — numpy makes no view of it writeable — and
        travels as it is, strided, weighing its elements."""
        base = np.arange(24.0).reshape(4, 6).copy()
        if kind == "writeable":
            value = base
        elif kind == "read_only_view":
            value = base.reshape(6, 4)
            value.flags.writeable = False
        else:
            value = frozen_block()[:, 1::2]
        stored, nbytes, handed = payload_pack(value)
        assert handed and nbytes == value.nbytes
        if kind == "read_only_slice":
            assert is_frozen(value) and stored is value
            assert not value.flags.c_contiguous and nbytes == 48
            return
        assert not is_frozen(value)
        assert stored is not value and not np.shares_memory(stored, value)
        assert stored.flags.writeable and stored.flags.c_contiguous
        assert np.array_equal(stored, value)

    def test_a_0d_array_stays_0d(self):
        stored, nbytes, handed = payload_pack(np.array(3.0))
        assert stored.shape == () and stored == 3.0 and nbytes == 8 and handed

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_a_non_contiguous_array_is_copied_once(self, layout):
        """The copy is the only buffer the pack allocates: a C-contiguous
        staging copy and a second copy of it (1 MiB each here) would
        double the peak."""
        base = np.ones((512, 512))
        value = base[:, ::2] if layout == "strided" else np.asfortranarray(base[:, :256])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stored, nbytes, _handed = payload_pack(value)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert stored.flags.c_contiguous and np.array_equal(stored, value)
        assert nbytes == value.nbytes == 1 << 20
        assert value.nbytes <= peak < 1.5 * value.nbytes, peak


# ------------------------------------------------------------------- faults -- #
class TestCorruptionLandsOnTheReceiversCopy:
    def test_a_frozen_array_is_flipped_on_a_copy(self):
        """``corrupt_at=(0,)`` on the link 0 → 1: rank 1 gets a read-only
        copy with one element flipped, then the sender's own array; the
        sender's array is unchanged."""
        plan = FaultPlan(seed=3, links=(LinkFault(src=0, dst=1, corrupt_at=(0,)),))
        block = frozen_block()

        def body(comm):
            if comm.rank == 1:
                return comm.recv(source=0), comm.recv(source=0)
            comm.send(block, 1)
            comm.send(block, 1)
            return None

        res = run_spmd(2, body, machine=laptop(), faults=plan)
        flipped, clean = res.results[1]
        assert np.array_equal(block, frozen_block()) and not block.flags.writeable
        assert flipped is not block and is_frozen(flipped)
        assert int(np.count_nonzero(flipped != block)) == 1
        assert clean is block
        assert [t.corruptions_injected for t in res.traces] == [1, 0]

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


    def test_a_frozen_block_in_a_window_is_flipped_on_a_copy(self):
        """The same link and hop, every contribution frozen: rank 2 hands
        rank 0 blocks 2 and 3 themselves, shared with every other rank.
        The flip lands on a frozen copy that replaces one of them in that
        window alone: every rank's own block and every other receiver's
        block is the sender's object, unchanged."""
        p = 4
        plan = FaultPlan(seed=3, links=(
            LinkFault(src=2, dst=0, corrupt_phase="replicate", corrupt_at=(0,)),))
        blocks = [freeze(np.arange(12.0).reshape(3, 4) * (r + 1)) for r in range(p)]

        def body(comm):
            with comm.phase("replicate"):
                return comm.allgather(blocks[comm.rank])

        res = run_spmd(p, body, machine=laptop(), faults=plan)
        assert [t.corruptions_injected for t in res.traces] == [0, 0, 1, 0]
        for r, block in enumerate(blocks):
            assert is_frozen(block)
            assert np.array_equal(block, np.arange(12.0).reshape(3, 4) * (r + 1))
        for rank, got in enumerate(res.results):
            flipped = [r for r, g in enumerate(got) if g is not blocks[r]]
            if rank != 0:
                assert flipped == [], rank
                continue
            (r,) = flipped
            assert r in (2, 3) and is_frozen(got[r])
            assert int(np.count_nonzero(got[r] != blocks[r])) == 1

    def test_a_frozen_block_in_a_container_is_flipped_on_a_copy(self):
        """Rank 0 sends one dict holding two frozen blocks, one in a list
        and one in a tuple, to ranks 1 and 2; every element of the message
        to rank 1 may flip.  Rank 1 gets a frozen copy of each block it
        holds a flip of, in a container of its own; rank 2 gets the
        blocks themselves; rank 0's blocks are unchanged."""
        plan = FaultPlan(seed=3, links=(LinkFault(src=0, dst=1, corrupt_at=(0,),
                                                  corrupt_elems=24),))
        first, second = frozen_block(), freeze(frozen_block() * 2)

        def body(comm):
            if comm.rank == 0:
                for dest in (1, 2):
                    comm.send({"a": [first], "b": (7, second)}, dest)
                return None
            return comm.recv(source=0)

        res = run_spmd(3, body, machine=laptop(), faults=plan)
        assert [t.corruptions_injected for t in res.traces] == [1, 0, 0]
        assert np.array_equal(first, frozen_block()) and is_frozen(first)
        assert np.array_equal(second, frozen_block() * 2) and is_frozen(second)
        clean, hit = res.results[2], res.results[1]
        assert clean["a"][0] is first and clean["b"][1] is second and clean["b"][0] == 7
        for got, block in ((hit["a"][0], first), (hit["b"][1], second)):
            assert got is not block and is_frozen(got)
            assert 0 < int(np.count_nonzero(got != block)) <= 24
        assert hit["b"][0] == 7


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
