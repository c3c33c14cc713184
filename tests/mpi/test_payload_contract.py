"""What a payload costs the wire and what the receiver may do to it.

The contract (docs/VIRTUAL_MPI.md, "Point-to-point semantics"): an array
arrives as a copy, any other object as an unpickled copy, a value nobody
can change as the sender's own object — and all of them cost the wire
what they always did, the array's bytes or the length of the pickle.
``Comm.split`` is the heavy user of the third kind: its ``(color, key,
rank)`` table passes through ⌈log2 P⌉ Bruck hops per rank, each priced
by adding up its blocks' sizes instead of pickling it (``TestHopPricing``
holds that sum to the pickle, byte for byte).  A redistribution batch is
the other: its ``(Rect, ndarray)`` pieces are private copies, handed
over and priced by a sum as well (``TestBatchPricing``).
"""

from __future__ import annotations

import contextlib
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.blocks import Rect
from repro.layout.distributions import BlockRow1D
from repro.layout.matrix import DistMatrix
from repro.layout.overlap import pickled_int_bytes
from repro.layout.redistribute import _hop
from repro.machine.model import laptop
from repro.mpi import datatypes, run_spmd
from repro.mpi.datatypes import Hop, detached, is_immutable, payload_pack
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

    def test_mixed_allgather_is_the_pickled_one(self):
        """Rank 0 contributes an ndarray, the rest ``None``."""
        p = 7
        block = np.arange(12.0).reshape(3, 4)

        def body(comm):
            return comm.allgather(block if comm.rank == 0 else None)

        res = run_spmd(p, body, machine=laptop())
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
def dumps_calls():
    """The values ``repro.mpi.datatypes`` hands to ``pickle.dumps`` inside
    the block."""
    seen: list = []

    def dumps(value, protocol):
        seen.append(value)
        return pickle.dumps(value, protocol=protocol)

    datatypes.pickle = types.SimpleNamespace(
        dumps=dumps, loads=pickle.loads, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL
    )
    try:
        yield seen
    finally:
        datatypes.pickle = pickle


def priced(blocks: list) -> tuple[int, bool]:
    """``(nbytes, pickled)`` of the window ``allgather`` sends of
    ``blocks``: a :class:`Hop` of their origin copies and sizes when every
    block is immutable, else the plain list — and whether pricing it
    called ``pickle.dumps``."""
    if all(map(is_immutable, blocks)):
        copies, sizes = zip(*map(detached, blocks))
        window = Hop(list(copies), list(sizes))
    else:
        window = list(blocks)
    with dumps_calls() as seen:
        _stored, nbytes, _handed = payload_pack(window)
    return nbytes, bool(seen)


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
        nbytes, pickled = priced(blocks)
        assert nbytes == oracle(blocks)
        assert not pickled

    @pytest.mark.parametrize("atom", EDGE_ATOMS, ids=repr)
    def test_every_opcode_boundary(self, atom):
        """Arithmetic path: each edge atom bare, in a tuple of one and of
        four (TUPLE1 / MARK…TUPLE), alone and beside ``()``."""
        for blocks in ([atom], [(atom,)], [(atom, atom, atom, atom)], [atom, (), (atom,)]):
            nbytes, pickled = priced(blocks)
            assert nbytes == oracle(blocks), blocks
            assert not pickled

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001, 2500])
    def test_appends_batching(self, n):
        """Arithmetic path: one APPEND after a single block, else a
        MARK/APPENDS pair per 1 000 blocks."""
        atoms = [EDGE_ATOMS[i % len(EDGE_ATOMS)] for i in range(n)]
        blocks = [(atom,) if i % 3 else atom for i, atom in enumerate(atoms)]
        nbytes, pickled = priced(blocks)
        assert nbytes == oracle(blocks)
        assert not pickled

    def test_a_window_near_the_frame_target_is_pickled(self):
        """Both paths: windows of 63-byte tuples from just under 64 KiB to
        past it (where a pickle starts a second frame), and one tuple that
        is bigger than a frame by itself, all priced as their pickle."""
        block = tuple(range(256, 276))
        paths = set()
        for n in range(1030, 1050):
            nbytes, pickled = priced([block] * n)
            assert nbytes == oracle([block] * n), n
            assert pickled == (nbytes >= 64 * 1024), n
            paths.add(pickled)
        assert paths == {False, True}
        huge = [7, tuple(range(256, 256 + 30_000))]
        nbytes, pickled = priced(huge)
        assert nbytes == oracle(huge) and pickled

    @pytest.mark.parametrize(
        "odd",
        ["text", b"raw", (1, (2.5, None)), ("same", "same"), np.arange(3.0)],
        ids=["str", "bytes", "nested_tuple", "repeated_str", "ndarray"],
    )
    def test_a_block_of_unknown_size_is_pickled(self, odd):
        """Pickle path: one block whose bytes depend on what else is in
        the pickle (a memoized str or bytes, a nested tuple) or that is no
        Hop's at all (an ndarray) among blocks that could be summed."""
        blocks = [7, (1, 2.5), odd, None, (65_536,)]
        nbytes, pickled = priced(blocks)
        assert nbytes == oracle(blocks)
        assert pickled

    def test_a_shared_constant(self):
        """Both paths: the same object from several origins, a flat tuple
        of atoms (summed: each origin copies it) and one holding strings
        (pickled)."""
        flat, worded = (1, 2.5, None), ("ok", (1.5, "ok"))
        assert priced([flat, 3, flat, flat]) == (oracle([flat, 3, flat, flat]), False)
        assert priced([worded, 3, worded]) == (oracle([worded, 3, worded]), True)


# ---------------------------------------------------- redistribution batches -- #
#: Each side of every int opcode boundary a coordinate or an extent can
#: reach: BININT1, BININT2, BININT (the table refuses 2**31 and beyond).
COORD_EDGES = [0, 255, 256, 65_535, 65_536, 2 ** 31 - 1]
BATCH_DTYPES = [np.float32, np.float64, np.complex64, np.complex128, np.int64, np.bool_]


def cut_of(tiles: list, rect: Rect, t: int, rs: slice, cs: slice):
    """A send-plan piece, as :meth:`OverlapTable.sends` yields it."""
    h, w = rs.stop - rs.start, cs.stop - cs.start
    return rect, t, rs, cs, pickled_int_bytes(*rect, h, w)


def batch_priced(tiles: list, cuts: list) -> tuple[int, bool, Hop]:
    """``(nbytes, pickled, hop)`` of the batch ``redistribute`` hands
    over for ``cuts``: and whether pricing it pickled its list."""
    hop = _hop(tiles, cuts)
    with dumps_calls() as seen:
        stored, nbytes, handed = payload_pack(hop)
    assert stored is hop and handed
    return nbytes, any(v is hop.blocks for v in seen), hop


def sent_list(tiles: list, cuts: list) -> list:
    """The list a sender that pickled its batch sent for the same cuts."""
    return [(rect, np.ascontiguousarray(tiles[t][rs, cs])) for rect, t, rs, cs, _i in cuts]


def assert_priced_as_sent(tiles: list, cuts: list) -> bool:
    """The handed batch costs what :func:`sent_list` pickles to and holds
    its pieces, each a private copy; returns whether it was pickled."""
    nbytes, pickled, hop = batch_priced(tiles, cuts)
    sent = sent_list(tiles, cuts)
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
    tiles, cuts = [], []
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
        # Every piece's Rect is an object of its own, as the table makes them.
        cuts.append(cut_of(tiles, Rect(*coords), len(tiles) - 1,
                           slice(ro, ro + h), slice(co, co + w)))
    return tiles, cuts


class TestBatchPricing:
    """A redistribution batch's ``nbytes`` against ``pickle.dumps`` of the
    list a pickling sender sent, ``[(rect, np.ascontiguousarray(cut))]``."""

    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_summed_wherever_it_fits_a_frame(self, batch):
        """Arithmetic path for every builtin numeric dtype, int opcode
        width and batch length, unless the list reaches 64 KiB."""
        tiles, cuts = batch
        pickled = assert_priced_as_sent(tiles, cuts)
        assert pickled == (_nbytes(sent_list(tiles, cuts)) >= 64 * 1024)

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001])
    @pytest.mark.parametrize("dtype", [np.bool_, np.float32])
    def test_appends_batching(self, n, dtype):
        """Arithmetic path: one APPEND after a single piece, else a
        MARK/APPENDS pair per 1 000 pieces."""
        tiles = [np.ones((2, 2), dtype), np.zeros((3, 1), dtype)]
        cuts = [cut_of(tiles, Rect(i % 3, 255, 0, i % 2), i % 2, slice(1, 2), slice(0, 1))
                for i in range(n)]
        assert not assert_priced_as_sent(tiles, cuts)

    def test_a_batch_straddling_the_frame_target_is_pickled(self):
        """Both paths: batches of 2 KiB pieces from just under 64 KiB to
        past it, each priced as the pickle of the sent list."""
        tile = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
        paths = set()
        for n in range(28, 36):
            cuts = [cut_of([tile], Rect(0, 16, 0, 16), 0, slice(0, 16), slice(0, 16))
                    for _ in range(n)]
            pickled = assert_priced_as_sent([tile], cuts)
            assert pickled == (_nbytes(sent_list([tile], cuts)) >= 64 * 1024), n
            paths.add(pickled)
        assert paths == {False, True}

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
        cuts = [cut_of([tile], Rect(1, 3, cs.start, cs.stop), 0, slice(1, 3), cs),
                cut_of([tile], Rect(4, 5, 0, 8), 0, slice(4, 5), slice(0, 8))]
        assert assert_priced_as_sent([tile], cuts)
        _n, _p, hop = batch_priced([tile], cuts)
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
        cuts = [cut_of(tiles, Rect(0, 2, 0, 2), t, slice(0, 2), slice(t, t + 2))
                for t in (0, 1, 0)]
        assert assert_priced_as_sent(tiles, cuts)
        # The odd tile alone: a dtype the sum has no constant for, or —
        # an unpickled tile's dtype object — the batch's only one.
        assert assert_priced_as_sent([tile], [cut_of([tile], Rect(0, 1, 0, 4), 0,
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


# ------------------------------------------------------------------- faults -- #
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
