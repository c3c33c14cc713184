"""What one delivered message costs the host, as a count of Python calls
and of bytes unpickled.

Counts, not a stopwatch: for a given interpreter the number of function
calls a run makes repeats exactly, so it can be gated tightly where wall
time on a shared runner cannot.  A call count cannot see the bytes
inside one C call, though — ``pickle.loads`` of a 64-entry rank table
and of a 1024-entry one are one call each — so the bytes handed to
``pickle.loads`` are counted beside it (exact on any interpreter).
``calls_per_message`` and ``pickle_bytes_per_message`` are also what the
``des-smoke`` CI job runs at 1024 ranks.

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

from repro import Ca3dmmPlan, DistMatrix, ca3dmm_matmul, dense_random, run_spmd
from repro.baselines import matmul_1d
from repro.layout.distributions import BlockCol1D
from repro.layout.overlap import overlap_table
from repro.machine.model import pace_phoenix_cpu
from repro.mpi import datatypes
from repro.mpi.des import DesScheduler


@contextlib.contextmanager
def counted_strands():
    """Count the calls made by every thread started inside the block.

    ``threading.Thread.run`` is wrapped for the duration and restored;
    the value is the list of per-thread counters.
    """
    cells: list[list[int]] = []
    original = threading.Thread.run

    def run(self):
        cell = [0]
        cells.append(cell)

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                cell[0] += 1

        sys.setprofile(hook)
        try:
            original(self)
        finally:
            sys.setprofile(None)

    threading.Thread.run = run
    try:
        yield cells
    finally:
        threading.Thread.run = original


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
    """Python calls per delivered message of one ``ca3dmm_matmul`` n³ on
    ``p`` ranks."""
    run = _matmul_run(p, n)
    with counted_strands() as cells:
        result = run()
    return sum(c[0] for c in cells) / sum(t.msgs_sent for t in result.traces)


def pickle_bytes_per_message(p: int, n: int = 256, layout=None, **run) -> tuple[float, float]:
    """``(unpickled, pickled)`` bytes per delivered message of the same
    run (from ``layout``, of another ``schedule`` or ``shape`` if given):
    what ``repro.mpi.datatypes`` hands to ``pickle.loads`` and gets back
    from ``pickle.dumps``.  Neither may grow with ``p``: a split's rank
    table is handed from hop to hop and each hop is sized from its
    blocks' sizes, a redistribution batch and an allgather's window of
    arrays are handed over and sized from their blocks' parts (what the
    sum cannot vouch for is pickled into a byte counter, which builds no
    blob and is not counted here), so what is left is each rank's own
    block of a split, pickled and unpickled once per allgather."""
    run = _matmul_run(p, n, layout, **run)
    loaded = dumped = 0

    def loads(blob):
        nonlocal loaded
        loaded += len(blob)
        return pickle.loads(blob)

    def dumps(value, protocol):
        nonlocal dumped
        blob = pickle.dumps(value, protocol=protocol)
        dumped += len(blob)
        return blob

    original = datatypes.pickle
    datatypes.pickle = types.SimpleNamespace(**{**vars(pickle), "loads": loads, "dumps": dumps})
    try:
        result = run()
    finally:
        datatypes.pickle = original
    msgs = sum(t.msgs_sent for t in result.traces)
    return loaded / msgs, dumped / msgs


def test_a_foreign_layout_pickles_no_batch():
    """From ``BlockCol1D`` operands steps 4 and 8 send a batch per pair of
    ranks whose pieces meet; each is handed over and priced by a sum, so
    the bytes pickled and unpickled per message stay those of a native
    run: ≤ 3 at 64 and 256 ranks (339 and 139 of each while every batch
    was pickled at the sender and unpickled at the receiver)."""
    at64 = pickle_bytes_per_message(64, layout=BlockCol1D)
    at256 = pickle_bytes_per_message(256, layout=BlockCol1D)
    print(f"BlockCol1D (unpickled, pickled) bytes/message: {at64} @64, {at256} @256")
    assert max(at64) <= 3.0 and max(at256) <= 3.0, (at64, at256)


def test_an_allgather_of_arrays_pickles_nothing():
    """A Bruck window of arrays is handed over and priced by a sum, so a
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


def test_message_budget_and_flatness():
    """≤ 75 calls per message at 64 and at 256 ranks (68.6 and 61.0 on 3.11;
    80 and 73 while every Bruck hop of a split was unpickled and pickled
    again; 153 and 156 before the baton handoff, one-pass accounting and
    the shared split grouping), and no growth with P: what a rank does
    per message must stay O(1) in P."""
    at64 = calls_per_message(64)
    at256 = calls_per_message(256)
    assert at64 <= 75 and at256 <= 75, (at64, at256)
    assert at256 / at64 <= 1.05, (at64, at256)


def test_unpickled_bytes_per_message_do_not_grow_with_p():
    """A split's rank table is handed from hop to hop, so the bytes a
    rank unpickles per message do not grow from 64 ranks to 256 (2.7 and
    1.9 — each rank's own block, copied once per allgather; 69.4 and
    175.2 when each hop was a pickle).  Each hop is sized from the sizes
    its blocks brought from their origins, so the bytes pickled do not
    grow either (the same 2.7 and 1.9; 72.1 and 177.0 while every hop was
    sized by pickling its window).  Differences, not ratios: the values
    may be zero."""
    at64, pickled64 = pickle_bytes_per_message(64)
    at256, pickled256 = pickle_bytes_per_message(256)
    print(f"unpickled bytes/message: {at64:.1f} @64, {at256:.1f} @256; "
          f"pickled: {pickled64:.1f} @64, {pickled256:.1f} @256")
    assert at256 <= at64 + 1.0, (at64, at256)
    assert pickled256 <= pickled64 + 1.0, (pickled64, pickled256)


def test_an_equal_plan_built_anew_costs_what_the_first_did():
    """A second run whose plan is built anew but equal by value costs what
    the first did, within 1.0 call per message at 256 ranks (61.0 and
    61.0; 61.5 and 71.8 while every rank's overlap-table lookup compared
    the new plan's layouts with the first's one ``Rect`` at a time, on
    every run).  The table is emptied first so that the first plan's
    layouts are the cache's keys whatever ran before."""
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
