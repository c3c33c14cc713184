"""What one delivered message costs the host, as a count of Python calls
and of bytes unpickled.

Counts, not a stopwatch: for a given interpreter the number of function
calls a run makes repeats exactly, so it can be gated tightly where wall
time on a shared runner cannot.  A call count cannot see the bytes
inside one C call, though — ``pickle.loads`` of a 64-entry rank table
and of a 1024-entry one are one call each — so the bytes handed to
``pickle.loads`` are counted beside it (exact on any interpreter).
``calls_per_message`` and ``pickle_bytes_per_message`` are also what the
``des-smoke`` CI job runs at 1024 ranks.  ``array_bytes_copied`` counts
the bytes of arrays the sends copy, by phase, allgather windows and
containers included: every schedule hands the blocks it owns over
frozen, so phases ``summa``, ``cannon`` and ``replicate`` copy none (the
``perf-gate`` job runs it on ``dense_blockcyclic_p16``'s pdgemm and on
all 16 schedules).

The calls are counted by a ``sys.setprofile`` hook installed in every
strand (``call`` + ``c_call`` events — what ``cProfile`` sums into
``pstats.Stats.total_calls``).  One ``cProfile.Profile`` per strand would
read within 3 % of it on 3.11 but cannot run on 3.12, where the
interpreter has a single profiler slot and the strands, parked or not,
are all alive at once.
"""

from __future__ import annotations

import contextlib
import pickle
import sys
import threading
import types

import numpy as np

from repro import Ca3dmm, Ca3dmmPlan, DistMatrix, ca3dmm_matmul, dense_random, run_spmd
from repro.baselines import SCHEDULES, matmul_1d
from repro.core.pdgemm import pdgemm
from repro.layout.distributions import BlockCol1D, BlockCyclic2D
from repro.layout.overlap import overlap_table
from repro.machine.model import pace_phoenix_cpu
from repro.mpi import collectives, comm as comm_module, datatypes
from repro.mpi.des import DesScheduler


@contextlib.contextmanager
def counted_strands():
    """Count the calls made by every rank strand run inside the block.

    ``DesScheduler.strand_main`` — what a pool thread runs for one rank
    of one world — is wrapped for the duration and restored; the value
    is the list of per-strand counters.
    """
    cells: list[list[int]] = []
    original = DesScheduler.strand_main

    def strand_main(self, rank, body):
        cell = [0]
        cells.append(cell)

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                cell[0] += 1

        sys.setprofile(hook)
        try:
            original(self, rank, body)
        finally:
            sys.setprofile(None)

    DesScheduler.strand_main = strand_main
    try:
        yield cells
    finally:
        DesScheduler.strand_main = original


def _matmul_run(p: int, n: int, layout=None, schedule=ca3dmm_matmul, shape=None):
    """``run()`` executes one ``schedule`` (``ca3dmm_matmul``) of
    ``shape`` (n³) on ``p`` ranks (native layouts, or both operands in
    ``layout(shape, p)`` — steps 4 and 8 then redistribute them; nothing
    recorded); plans and imports are memoized by a first, uncounted
    run."""
    m, nn, k = shape or (n, n, n)
    plan = Ca3dmmPlan(m, nn, k, p)
    a, b = dense_random(m, k, 0), dense_random(k, nn, 1)
    a_dist = layout((m, k), p) if layout else plan.a_dist
    b_dist = layout((k, nn), p) if layout else plan.b_dist

    def body(comm):
        c = schedule(
            DistMatrix.from_global(comm, a_dist, a),
            DistMatrix.from_global(comm, b_dist, b),
        )
        return c.owned_rects, c.tiles

    machine = pace_phoenix_cpu("mpi")

    def run():
        return run_spmd(p, body, machine=machine)

    run()
    return run


def calls_per_message(p: int, n: int = 256) -> float:
    """Python calls per message delivered by one n³ ``Ca3dmm.multiply`` on
    ``p`` ranks (native layouts, nothing recorded), after a first,
    uncounted run.  The engine and the operands are built outside the
    counted region, so the count is what the multiply's messages cost,
    not diluted by how many set-up messages the engine happens to send.
    The operands' plan is built anew on every call, equal by value to the
    engine's shared one."""
    plan = Ca3dmmPlan(n, n, n, p)
    a, b = dense_random(n, n, 0), dense_random(n, n, 1)

    def body(comm):
        engine = Ca3dmm(comm, n, n, n)
        a_loc = DistMatrix.from_global(comm, plan.a_dist, a)
        b_loc = DistMatrix.from_global(comm, plan.b_dist, b)
        sent = comm.transport.trace(comm.world_rank).msgs_sent
        calls = [0]

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        sys.setprofile(hook)
        try:
            engine.multiply(a_loc, b_loc)
        finally:
            sys.setprofile(None)
        return calls[0], comm.transport.trace(comm.world_rank).msgs_sent - sent

    machine = pace_phoenix_cpu("mpi")
    run_spmd(p, body, machine=machine)
    counts = run_spmd(p, body, machine=machine).results
    return sum(c for c, _ in counts) / sum(msgs for _, msgs in counts)


@contextlib.contextmanager
def counted_pickles():
    """``[loaded, dumped]``: the bytes ``repro.mpi.datatypes`` hands to
    ``pickle.loads`` and gets back from ``pickle.dumps`` inside the block."""
    counts = [0, 0]

    def loads(blob):
        counts[0] += len(blob)
        return pickle.loads(blob)

    def dumps(value, protocol):
        blob = pickle.dumps(value, protocol=protocol)
        counts[1] += len(blob)
        return blob

    original = datatypes.pickle
    datatypes.pickle = types.SimpleNamespace(**{**vars(pickle), "loads": loads, "dumps": dumps})
    try:
        yield counts
    finally:
        datatypes.pickle = original


def pickle_bytes_per_message(p: int, n: int = 256, layout=None, **run) -> tuple[float, float]:
    """``(unpickled, pickled)`` bytes per delivered message of the same
    run (from ``layout``, of another ``schedule`` or ``shape`` if given):
    what ``repro.mpi.datatypes`` hands to ``pickle.loads`` and gets back
    from ``pickle.dumps``.  Neither may grow with ``p``: a split's table
    of ``(color, key)`` pairs is handed from hop to hop, and a
    redistribution batch and an allgather's window of arrays are handed
    over; each weighs its blocks by the size rule, which pickles
    nothing it knows, so a native run pickles 0 bytes."""
    run = _matmul_run(p, n, layout, **run)
    with counted_pickles() as counts:
        result = run()
    msgs = sum(t.msgs_sent for t in result.traces)
    return counts[0] / msgs, counts[1] / msgs


def _sending_phase(frame) -> str:
    """The phase of the rank whose ``Comm`` the first frame from
    ``frame`` up that holds one (as ``self`` or ``comm``) belongs to."""
    while True:
        for name in ("self", "comm"):
            comm = frame.f_locals.get(name)
            if isinstance(comm, comm_module.Comm):
                return comm.transport.ranks[comm.world_rank].phase
        frame = frame.f_back


@contextlib.contextmanager
def counted_copies():
    """``{phase: bytes}`` of the arrays a send copies inside the block, by
    the sending rank's phase: a top-level array ``datatypes.payload_pack``
    copies (wrapped where ``Comm``'s three doors — ``send``, ``isend``,
    ``sendrecv`` — call it), each array ``datatypes.hand_over`` copies
    into a Bruck window (wrapped where ``allgather`` calls it), and each
    array a container's private copy copies (``datatypes.private_copy``;
    an array held twice is copied once)."""
    copied: dict[str, int] = {}

    def count(nbytes: int) -> None:
        phase = _sending_phase(sys._getframe(2))
        copied[phase] = copied.get(phase, 0) + nbytes

    pack, hand_over, copy_of = (comm_module.payload_pack, collectives.hand_over,
                                datatypes.private_copy)

    def payload_pack(value):
        packed = pack(value)
        if type(packed[0]) is np.ndarray and packed[0] is not value:
            count(packed[0].nbytes)
        return packed

    def handed(window, sizes):
        before = list(window)
        hop = hand_over(window, sizes)
        for got, block in zip(hop.blocks, before):
            if got is not block:
                count(got.nbytes)
        return hop

    def copied_value(value, memo=None):
        fresh = type(value) is np.ndarray and (memo is None or id(value) not in memo)
        got = copy_of(value, memo)
        if fresh and got is not value:
            count(got.nbytes)
        return got

    comm_module.payload_pack, collectives.hand_over, datatypes.private_copy = (
        payload_pack, handed, copied_value)
    try:
        yield copied
    finally:
        comm_module.payload_pack, collectives.hand_over, datatypes.private_copy = (
            pack, hand_over, copy_of)


def array_bytes_copied(run) -> dict[str, int]:
    """Bytes of arrays the sends copy while ``run()`` executes, by the
    sending rank's phase (:func:`counted_copies`): a top-level array,
    one in an allgather window, one in a container."""
    with counted_copies() as copied:
        run()
    return copied


def blockcyclic_pdgemm_run(n: int, bs: int, p: int = 16):
    """``run()`` executes ``dense_blockcyclic_p16``'s pdgemm — ``C =
    AᵀB``, n², every operand ``BlockCyclic2D`` on a 4 x 4 grid of
    ``bs``² blocks — on ``p`` ranks, after a first, uncounted run."""
    return _matmul_run(
        p, n, layout=lambda shape, procs: BlockCyclic2D(shape, procs, 4, 4, bs),
        schedule=lambda a, b: pdgemm("T", "N", 1.0, a, b, c_dist=a.dist),
    )


def test_cannon_copies_no_block_it_owns():
    """Cannon's skew and shifts hand frozen blocks over, and so does the
    reduce-scatter its partial C block dies in, so the sends of phases
    ``cannon`` and ``reduce`` copy no array (the reduce-scatter's pieces
    were copied while step 7 sent a writeable block; that the count
    counts a writeable send is ``test_collectives_hand_frozen_blocks_over``'s).
    256² from ``BlockCyclic2D`` at P = 16, whose plan reduces over k."""
    assert Ca3dmmPlan(256, 256, 256, 16).pk > 1
    copied = array_bytes_copied(blockcyclic_pdgemm_run(256, 32))
    print(f"array bytes copied by phase: {copied}")
    assert copied.get("cannon", 0) == 0, copied
    assert copied.get("reduce", 0) == 0, copied


#: Phases whose sends move only blocks the sending rank owns and never
#: writes, and the k-reduction, whose partial C blocks die in it.
OWNED_BLOCK_PHASES = ("summa", "cannon", "replicate", "reduce")

def owned_block_copies(name: str, p: int = 64, n: int = 256) -> tuple[dict[str, int], float]:
    """``(copied, pickled)`` of schedule ``name`` (``SCHEDULES``) n³ on
    ``p`` ranks from ``BlockCol1D`` operands: array bytes its sends copy
    in each of :data:`OWNED_BLOCK_PHASES`, and bytes pickled per message."""
    run = _matmul_run(p, n, layout=BlockCol1D, schedule=SCHEDULES[name])
    with counted_copies() as copied, counted_pickles() as pickles:
        result = run()
    msgs = sum(t.msgs_sent for t in result.traces)
    return {phase: copied.get(phase, 0) for phase in OWNED_BLOCK_PHASES}, pickles[1] / msgs


def test_no_schedule_copies_a_block_it_owns():
    """Every schedule freezes the blocks it allocated and never writes
    again before they travel — the 1D, COSMA and CA3DMM replication
    allgathers, the 3D and 2.5D layer broadcasts, the 2.5D and Cannon
    shifts, SUMMA's panels, stationary SUMMA's buffers, CARMA's pieces,
    and the partial C blocks each k-reduction consumes, CARMA's own
    pairwise exchange among them — so the sends of phases ``summa``,
    ``cannon``, ``replicate`` and ``reduce`` copy no array, allgather
    windows and containers counted, and no message is pickled.  All 16
    ``SCHEDULES`` 256³ at P = 64 from ``BlockCol1D`` (the parent read
    33.0 MB in ``replicate`` for the 1D schedules, 7.3 to 7.8 MB in
    ``summa`` for the SUMMA family and 3.8 MB pickled per stationary
    SUMMA run; in ``reduce``, 33.0 MB for ``1d-k``, 1.6 MB for CA3DMM,
    CA3DMM-S and COSMA and 1.0 MB for 2.5D, CTF and 3D while the
    k-reduction sent writeable blocks, and 0.5 MB for CARMA while its
    exchange sent row halves of a writeable block)."""
    found = {name: owned_block_copies(name) for name in SCHEDULES}
    for name, (copied, pickled) in found.items():
        print(f"{name:>10}: copied {copied}, pickled/message {pickled:.1f}")
    assert {name: sum(copied.values()) for name, (copied, _p) in found.items()} == dict.fromkeys(
        SCHEDULES, 0), found
    assert all(pickled == 0.0 for _c, pickled in found.values()), found


def test_every_schedule_returns_writeable_tiles():
    """The k-reduction freezes a partial block only in a group of more
    than one rank: a group of one returns its input as the output tile.
    Every C tile all 16 ``SCHEDULES`` return stays writeable, on a
    k-heavy shape (CA3DMM reduces over pk = 16), a flat one (pk = 1) and
    a world of one rank."""
    shapes = {(32, 32, 512, 16): 16, (128, 128, 16, 16): 1, (16, 16, 16, 1): 1}
    for (m, n, k, p), pk in shapes.items():
        assert Ca3dmmPlan(m, n, k, p).pk == pk
        a, b = dense_random(m, k, 0), dense_random(k, n, 1)
        for name, schedule in SCHEDULES.items():
            def body(comm, schedule=schedule):
                c = schedule(DistMatrix.from_global(comm, BlockCol1D((m, k), p), a),
                             DistMatrix.from_global(comm, BlockCol1D((k, n), p), b),
                             c_dist=None)
                return [tile.flags.writeable for tile in c.tiles]
            res = run_spmd(p, body, machine=pace_phoenix_cpu("mpi"))
            assert all(all(flags) for flags in res.results), (name, (m, n, k, p), res.results)


def test_collectives_hand_frozen_blocks_over():
    """A 128 KiB broadcast (the long path: scatter, then allgather) of a
    frozen block, and of a strided view of one (staged by the broadcast
    in a contiguous copy of its own, frozen too), copies no array at any
    send; of a writeable block it copies every chunk it sends (3 from
    the root's scatter, 3 forwarded by each of the 4 ranks).  A
    ``reduce`` over 4 ranks copies the two leaves' own arrays, never the
    partial sum rank 2 made, and leaves every caller's array writeable."""
    base = np.arange(2 * 16_384.0).reshape(128, 256)
    frozen = datatypes.freeze(base.copy())
    blocks = {"writeable": base[:, :128].copy(),
              "frozen": datatypes.freeze(frozen[:, :128].copy()), "frozen_view": frozen[:, ::2]}

    def broadcast(name):
        def body(comm):
            return comm.bcast(blocks[name] if comm.rank == 0 else None)
        return body

    def reduce(comm):
        mine = np.full(4, comm.rank + 1.0)
        total = comm.reduce(mine)
        return total, mine.flags.writeable

    machine = pace_phoenix_cpu("mpi")
    for name, block in blocks.items():
        with counted_copies() as copied:
            res = run_spmd(4, broadcast(name), machine=machine)
        assert all(np.array_equal(got, block) for got in res.results), name
        chunks = 0 if name != "writeable" else 3 + 4 * 3
        assert sum(copied.values()) == chunks * block.nbytes // 4, (name, copied)
    with counted_copies() as copied:
        res = run_spmd(4, reduce, machine=machine)
    assert res.results[0][0].tolist() == [10.0] * 4
    assert all(writeable for _total, writeable in res.results)
    assert sum(copied.values()) == 2 * 32, copied


def test_a_foreign_layout_pickles_no_batch():
    """From ``BlockCol1D`` operands steps 4 and 8 send a batch per pair of
    ranks whose pieces meet; each is handed over and weighed by a sum, so
    the bytes pickled and unpickled per message stay those of a native
    run: ≤ 3 at 64 and 256 ranks (339 and 139 of each while every batch
    was pickled at the sender and unpickled at the receiver)."""
    at64 = pickle_bytes_per_message(64, layout=BlockCol1D)
    at256 = pickle_bytes_per_message(256, layout=BlockCol1D)
    print(f"BlockCol1D (unpickled, pickled) bytes/message: {at64} @64, {at256} @256")
    assert max(at64) <= 3.0 and max(at256) <= 3.0, (at64, at256)


def test_an_allgather_of_arrays_pickles_nothing():
    """A Bruck window of arrays is handed over and weighed by a sum, so a
    schedule that replicates an operand pickles and unpickles per message
    no more than a native run: ≤ 3 bytes for ``matmul_1d`` 256³ at
    P = 64 from ``BlockCol1D`` (3 943 of each while every window was
    pickled at the sender and unpickled at the receiver), ≤ 5 for
    ``ca3dmm_matmul`` 256×1024×256 at P = 64, whose grid replicates an
    operand 4 times (1 873)."""
    one_d = pickle_bytes_per_message(64, layout=BlockCol1D, schedule=matmul_1d)
    wide = pickle_bytes_per_message(64, shape=(256, 1024, 256))
    print(f"(unpickled, pickled) bytes/message: matmul_1d 256^3 {one_d}, "
          f"ca3dmm 256x1024x256 {wide} @64")
    assert max(one_d) <= 3.0, one_d
    assert max(wide) <= 5.0, wide


def unpickled_bytes_per_message(p: int, n: int = 256) -> float:
    """The gated half of :func:`pickle_bytes_per_message`."""
    return pickle_bytes_per_message(p, n)[0]


class _CountingLock:
    """A ``threading.Lock`` that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0
        self.release = self._lock.release
        self.locked = self._lock.locked

    def acquire(self, *args):
        self.acquisitions += 1
        return self._lock.acquire(*args)

    __enter__ = acquire

    def __exit__(self, *exc):
        self._lock.release()


def world_lock_acquisitions_per_message(p: int, n: int = 256) -> float:
    """Acquisitions of the scheduler's world lock — by strands and by the
    driver — per delivered message of the same run: one per scheduling
    slice, where the per-call transport lock took about five per message."""
    run = _matmul_run(p, n)
    original = DesScheduler.__init__
    locks: list[_CountingLock] = []

    def init(self, transport):
        original(self, transport)
        self._world = _CountingLock()
        locks.append(self._world)

    DesScheduler.__init__ = init
    try:
        result = run()
    finally:
        DesScheduler.__init__ = original
    (lock,) = locks
    return lock.acquisitions / sum(t.msgs_sent for t in result.traces)


#: Calls per message of the multiply alone: 98.4 at 64 ranks and 78.6
#: at 256 on 3.11 while the engine still split the world for groups of
#: one (98.4 and 78.9 after).  The bound keeps no more headroom than the
#: whole-run count had under its gate of 63 (62.26 then).
CALLS_PER_MESSAGE = 99


def test_message_budget_and_flatness():
    """≤ ``CALLS_PER_MESSAGE`` calls per message of the multiply at 64 and
    at 256 ranks, and no growth with P: what a rank does per message must
    stay O(1) in P.  Counted over the whole run (engine set-up included)
    it read 62.3 and 55.3 (61.2 and 54.4 before that; 64.7 and 57.8 while
    every receive built a ``Status`` record; 80 and 73 while every Bruck
    hop of a split was unpickled and pickled again; 153 and 156 before the
    baton handoff, one-pass accounting and the shared split grouping);
    then a split's cheap messages diluted the ratio, so sending fewer of
    them read as a dearer message."""
    at64 = calls_per_message(64)
    at256 = calls_per_message(256)
    print(f"calls per message of the multiply: {at64:.2f} @64, {at256:.2f} @256")
    assert at64 <= CALLS_PER_MESSAGE and at256 <= CALLS_PER_MESSAGE, (at64, at256)
    assert at256 / at64 <= 1.05, (at64, at256)


def test_unpickled_bytes_per_message_do_not_grow_with_p():
    """A split's rank table is handed from hop to hop, so the bytes a
    rank unpickles per message do not grow from 64 ranks to 256 (0.0 and
    0.0; 2.7 and 1.9 while each rank's own block was copied through a
    pickle once per allgather, 69.4 and 175.2 when each hop was a
    pickle).  Each hop weighs the sizes its blocks brought from their
    origins, so the bytes pickled do not grow either (0.0; 72.1 and
    177.0 while every hop was sized by pickling its window).
    Differences, not ratios: the values may be zero."""
    at64, pickled64 = pickle_bytes_per_message(64)
    at256, pickled256 = pickle_bytes_per_message(256)
    print(f"unpickled bytes/message: {at64:.1f} @64, {at256:.1f} @256; "
          f"pickled: {pickled64:.1f} @64, {pickled256:.1f} @256")
    assert at256 <= at64 + 1.0, (at64, at256)
    assert pickled256 <= pickled64 + 1.0, (pickled64, pickled256)


def test_an_equal_plan_built_anew_costs_what_the_first_did():
    """A second run whose plan is built anew but equal by value costs what
    the first did, within 1.0 call per message at 256 ranks (78.9 and
    78.9 over the multiply; over the whole run 61.0 and 61.0, and 61.5
    and 71.8 while every rank's overlap-table lookup compared the new
    plan's layouts with the first's one ``Rect`` at a time, on every
    run).  The table is emptied first so that the first plan's layouts
    are the cache's keys whatever ran before."""
    overlap_table.cache_clear()
    first = calls_per_message(256)
    second = calls_per_message(256)
    assert second <= first + 1.0, (first, second)


def test_world_lock_is_taken_once_per_slice_not_per_call():
    """≤ 2.5 world-lock acquisitions per delivered message at 64 and at
    256 ranks (0.60 and 0.55; the transport lock this replaced was taken
    5.3 and 4.9 times), and no growth with P."""
    at64 = world_lock_acquisitions_per_message(64)
    at256 = world_lock_acquisitions_per_message(256)
    assert at64 <= 2.5 and at256 <= 2.5, (at64, at256)
    assert at256 / at64 <= 1.10, (at64, at256)
