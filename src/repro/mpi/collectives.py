"""Collective operations, built on the point-to-point layer.

Each collective is implemented with a textbook algorithm whose message
count and volume match the α-β costs the CA3DMM paper assumes
(Thakur, Rabenseifner & Gropp, IJHPCA 2005).  Its rounds are defined
once, in :mod:`repro.patterns`: the executor here walks its own rank's
row and moves the data; :mod:`repro.analysis.costs` prices rank 0's.

=================  ============================  ===========================
collective         algorithm                     per-rank cost
=================  ============================  ===========================
barrier            dissemination                 α·⌈log2 P⌉
bcast              binomial (short) /            α·log2 P + β·n   (short)
                   scatter+allgather (long)      α(log2 P + P-1) + 2βn(P-1)/P
reduce             binomial tree                 α·log2 P + β·n
allreduce          recursive doubling (2^t) /    α·log2 P + β·n
                   reduce+bcast otherwise
gather/scatter     linear                        α(P-1) + βn(P-1)/P at root
allgather          Bruck                         α·⌈log2 P⌉ + βn(P-1)/P
alltoall           pairwise exchange             α(P-1) + βn(P-1)/P
reduce_scatter     pairwise exchange             α(P-1) + βn(P-1)/P
=================  ============================  ===========================

Because these run on the measured transport, executed traffic can be
checked against the paper's closed-form costs (see ``tests/analysis``):
a message weighs its data and nothing else
(:func:`~repro.mpi.datatypes.nbytes_of`), so ``n`` above is the
payload's bytes.

All functions are collective: every rank of the communicator must call
them in the same order.  Message tags are drawn from a reserved internal
range; per-(source, tag) FIFO matching makes back-to-back collectives on
the same communicator safe without per-call tag salting.

Every collective is built on ``sendrecv``/``recv``, so under a fault
plan (:mod:`repro.mpi.faults`) they inherit the receive-side
timeout/retry/backoff semantics automatically: a dropped message inside
a collective shows up as injected retries on the affected rank, and an
exhausted retry budget aborts the job with a typed
:class:`~repro.mpi.errors.RecvTimeoutError` instead of hanging.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Sequence

import numpy as np

from .. import patterns
from ..obs.tracer import CAT_COLLECTIVE
from .datatypes import (
    INTERNAL_TAG_BASE, SUM, Hop, Op, freeze, hand_over, handed_array, is_frozen, is_immutable,
    nbytes_of,
)
from .errors import CommError
from .request import CollRequest


@contextlib.contextmanager
def _span(comm, name: str, algo: str | None = None) -> Iterator[None]:
    """Trace one collective call as a span and attribute its traffic.

    The span is recorded only when the world has a tracer; the algorithm
    label (``algo``, defaulting to ``name``) is *always* pushed so the
    transport can attribute every message to its originating collective
    algorithm (``RankTrace.colls``).  Labels nest outermost-wins: the
    scatter+allgather inside a long broadcast accounts to the broadcast.
    """
    transport = comm.transport
    label = name if algo is None else algo  # algo="" defers to inner _algo
    if label:
        transport.push_coll(comm.world_rank, label)
    tr = transport.tracer
    sid = None
    if tr is not None:
        rank = comm.world_rank
        sid = tr.begin(rank, name, transport.now(rank), CAT_COLLECTIVE, {"comm_size": comm.size})
    try:
        yield
    finally:
        if sid is not None:
            tr.end(rank, sid, transport.now(rank))
        if label:
            transport.pop_coll(comm.world_rank)


@contextlib.contextmanager
def _algo(comm, label: str) -> Iterator[None]:
    """Re-label traffic inside one branch of a collective (no span)."""
    transport = comm.transport
    transport.push_coll(comm.world_rank, label)
    try:
        yield
    finally:
        transport.pop_coll(comm.world_rank)

_TAG_BARRIER = INTERNAL_TAG_BASE + 1
_TAG_BCAST = INTERNAL_TAG_BASE + 2
_TAG_REDUCE = INTERNAL_TAG_BASE + 3
_TAG_ALLREDUCE = INTERNAL_TAG_BASE + 4
_TAG_GATHER = INTERNAL_TAG_BASE + 5
_TAG_SCATTER = INTERNAL_TAG_BASE + 6
_TAG_ALLGATHER = INTERNAL_TAG_BASE + 7
_TAG_ALLTOALL = INTERNAL_TAG_BASE + 8
_TAG_RSCAT = INTERNAL_TAG_BASE + 9

#: bcast switches from binomial to scatter+allgather above this many bytes.
BCAST_LONG_THRESHOLD = 64 * 1024


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _one_per_rank(comm, name: str, values: Sequence[Any] | None) -> None:
    """Refuse a per-rank sequence of the wrong length before the first
    message is posted (an ``assert`` would vanish under ``python -O``
    and surface as an ``IndexError`` halfway through the exchange)."""
    given = None if values is None else len(values)
    if given != comm.size:
        raise CommError(
            f"{name} needs one value per rank: got {given}, comm.size is {comm.size}"
        )


# ---------------------------------------------------------------- barrier -- #
def barrier(comm) -> None:
    """Dissemination barrier: ⌈log2 P⌉ rounds of paired exchanges."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    with _span(comm, "barrier", algo="barrier.dissemination"):
        for dest, src, _ in patterns.dissemination(rank, size):
            comm.sendrecv(None, dest, src, _TAG_BARRIER, _TAG_BARRIER)


# ------------------------------------------------------------------ bcast -- #
def _bcast_binomial(comm, value: Any, root: int, tag: int) -> Any:
    """Binomial-tree broadcast (the MPICH short-message algorithm)."""
    for dest, src, _ in patterns.binomial_bcast(comm.rank, comm.size, root):
        if src is not None:
            value = comm.recv(source=src, tag=tag)
        else:
            comm.send(value, dest, tag)
    return value


def bcast(comm, value: Any, root: int = 0) -> Any:
    """Broadcast from ``root``; everyone returns the value, the root the
    very object it passed.

    Long numpy arrays use van de Geijn scatter+allgather — the algorithm
    behind the paper's ``T_broadcast`` formula; everything else uses a
    binomial tree.  A small binomial header tells non-roots which path
    (and, for the long path, the shape) to expect; the chunks carry the
    dtype.
    """
    if comm.size == 1:
        return value
    with _span(comm, "bcast", algo=""):
        if comm.rank == root:
            is_long = isinstance(value, np.ndarray) and value.nbytes >= BCAST_LONG_THRESHOLD
            header = (is_long, value.shape if is_long else None)
        else:
            header = None
        with _algo(comm, "bcast.binomial"):
            is_long, shape = _bcast_binomial(comm, header, root, _TAG_BCAST)
            if not is_long:
                return _bcast_binomial(comm, value, root, _TAG_BCAST)
        with _algo(comm, "bcast.scatter_allgather"):
            if comm.rank == root:
                flat = np.ascontiguousarray(value)
                if flat is not value:  # a staging copy of our own: its chunks travel frozen
                    freeze(flat)
                chunks = np.array_split(flat.reshape(-1), comm.size)
            else:
                chunks = None
            mine = scatter(comm, chunks, root)
            parts = allgather(comm, mine)
            if comm.rank == root:  # it holds the value already, as on the short path
                return value
            return np.concatenate(parts).reshape(shape)


# ----------------------------------------------------------------- reduce -- #
def reduce(comm, value: Any, op: Op = SUM, root: int = 0) -> Any:
    """Binomial-tree reduction to ``root``; root returns the result.

    Operands are combined child-over-parent in a fixed order, so results
    are deterministic for a given communicator size.  A partial result
    this rank made (``op``'s array, never the caller's ``value``) is
    dead once sent, so it travels frozen, without a copy.
    """
    size = comm.size
    if size == 1:
        return value
    with _span(comm, "reduce", algo="reduce.binomial"):
        acc = value
        for parent, child, _ in patterns.binomial_reduce(comm.rank, size, root):
            if parent is None:
                acc = op(acc, comm.recv(source=child, tag=_TAG_REDUCE))
                continue
            if acc is not value and type(acc) is np.ndarray:
                freeze(acc)
            comm.send(acc, parent, _TAG_REDUCE)
            return None
        return acc


# -------------------------------------------------------------- allreduce -- #
def allreduce(comm, value: Any, op: Op = SUM) -> Any:
    """Recursive doubling (power-of-two sizes) else reduce + bcast."""
    size = comm.size
    if size == 1:
        return value
    with _span(comm, "allreduce", algo=""):
        if _is_pow2(size):
            with _algo(comm, "allreduce.recursive_doubling"):
                acc = value
                for partner, _, _ in patterns.recursive_doubling(comm.rank, size):
                    other = comm.sendrecv(
                        acc, partner, partner, _TAG_ALLREDUCE, _TAG_ALLREDUCE
                    )
                    # Fixed operand order (lower rank's data first) keeps the
                    # result identical on every rank even for non-commutative ops.
                    acc = op(other, acc) if partner < comm.rank else op(acc, other)
                return acc
        with _algo(comm, "allreduce.reduce_bcast"):
            res = reduce(comm, value, op, 0)
            return bcast(comm, res, 0)


# ---------------------------------------------------------- gather/scatter -- #
def gather(comm, value: Any, root: int = 0) -> list[Any] | None:
    """Linear gather; root returns the list ordered by rank."""
    if comm.size == 1:
        return [value]
    with _span(comm, "gather", algo="gather.linear"):
        out: list[Any] = [None] * comm.size
        out[root] = value
        for dest, src, _ in patterns.linear_gather(comm.rank, comm.size, root):
            if dest is not None:
                comm.send(value, dest, _TAG_GATHER)
                return None
            out[src] = comm.recv(source=src, tag=_TAG_GATHER)
        return out


def scatter(comm, values: Sequence[Any] | None, root: int = 0) -> Any:
    """Linear scatter; each rank returns its element of root's sequence."""
    if comm.rank == root:
        _one_per_rank(comm, "scatter (at the root)", values)
    with _span(comm, "scatter", algo="scatter.linear"):
        for dest, src, _ in patterns.linear_scatter(comm.rank, comm.size, root):
            if src is not None:
                return comm.recv(source=src, tag=_TAG_SCATTER)
            comm.send(values[dest], dest, _TAG_SCATTER)
        return values[root]


# -------------------------------------------------------------- allgather -- #
def allgather(comm, value: Any) -> list[Any]:
    """Bruck allgather: ⌈log2 P⌉ rounds, works for any P and any sizes.

    Returns the list of every rank's contribution, ordered by rank: the
    contributing rank's own object, and copies of everyone else's — of a
    frozen contribution, the contributor's own object.

    A hop forwards blocks it received.  While every block a rank holds
    is immutable (``Comm.split``'s ``(color, key)`` pairs) or an array
    (CA3DMM's replication step, the 1D and COSMA schedules) the window
    travels as a :class:`~repro.mpi.datatypes.Hop`, handed over instead
    of unpickled and pickled again at each of the ⌈log2 P⌉ ranks it
    passes.  A frozen array (:func:`~repro.mpi.datatypes.is_frozen`),
    which nobody can write, travels every hop as it is, so every rank
    holds the same object; any other array in a window is a private copy
    made for that message, and is copied again at every hop it is
    forwarded, so no two ranks hold the same writeable array.  Each block
    is weighed once, at its origin, and its size travels beside it.  One
    block that is anything else (a list, an ``object`` array) makes every
    hop that carries it a plain list, handed over as a private copy
    (:func:`~repro.mpi.datatypes.private_copy`) or, holding something the
    size rule does not know, pickled.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return [value]
    with _span(comm, "allgather", algo="allgather.bruck"):
        # held: the blocks of ranks rank, rank+1, ... (mod P), this rank's
        # as given; sizes: what each weighs, None once a window is a plain
        # list; arrays: whether a held block may be an array that is not
        # frozen, copied at each hop.
        held: list[Any] = [value]
        frozen = is_frozen(value)
        arrays = handed_array(value) and not frozen
        sizes = [nbytes_of(value)] if arrays or frozen or is_immutable(value) else None
        for dest, src, cnt in patterns.bruck(rank, size):
            window = held[:cnt]
            if sizes is None:
                payload = window
            elif arrays:
                payload = hand_over(window, sizes[:cnt])
            else:
                payload = Hop(window, sizes[:cnt], False)
            incoming = comm.sendrecv(payload, dest, src, _TAG_ALLGATHER, _TAG_ALLGATHER)
            if type(incoming) is Hop:
                if sizes is not None:
                    sizes += incoming.sizes
                    arrays = arrays or incoming.arrays
                incoming = incoming.blocks
            else:
                sizes = None
            held += incoming
        # held[i] is the block of rank (rank + i) % size; rotate to absolute.
        return held[size - rank:] + held[:size - rank]


# --------------------------------------------------------------- alltoall -- #
def alltoall(comm, values: Sequence[Any]) -> list[Any]:
    """Pairwise-exchange alltoall; ``values[r]`` goes to rank ``r``."""
    _one_per_rank(comm, "alltoall", values)
    if comm.size == 1:
        return [values[0]]
    with _span(comm, "alltoall", algo="alltoall.pairwise"):
        return _exchange(comm, values, _TAG_ALLTOALL)


def _exchange(comm, values: Sequence[Any], tag: int) -> list[Any]:
    """Pairwise exchange: ``values[r]`` goes to rank ``r``; returns what
    every rank sent this one, by rank (its own value as it is)."""
    out: list[Any] = [None] * comm.size
    out[comm.rank] = values[comm.rank]
    for dest, src, _ in patterns.pairwise(comm.rank, comm.size):
        out[src] = comm.sendrecv(values[dest], dest, src, tag, tag)
    return out


# ------------------------------------------------ nonblocking collectives -- #
def _icoll(comm, fn, *args) -> CollRequest:
    """Run a blocking collective on the async comm engine; a request.

    With ``overlap="none"`` the collective runs exactly as its blocking
    form (same clock charges, same events) and the returned request is
    pre-completed — waiting on it charges nothing: that branch is the
    engine with zero overlap, not a second charging path.  Otherwise the whole algorithm is drained
    eagerly on the rank's comm timeline (``begin_async``/``end_async``):
    its transfers progress concurrently with whatever compute follows
    the post, and the request's ``wait`` charges only the uncovered
    remainder.  Calls are collective and must stay SPMD-ordered exactly
    like their blocking forms (posting *is* the data movement).
    """
    transport = comm.transport
    rank = comm.world_rank
    if not transport.machine.overlap_enabled:
        value = fn(comm, *args)
        t = transport.now(rank)
        return CollRequest(transport, rank, t, t, value)
    t_start = transport.begin_async(rank)
    try:
        value = fn(comm, *args)
    finally:
        t_complete = transport.end_async(rank)
    return CollRequest(transport, rank, t_start, t_complete, value)


def ibcast(comm, value: Any, root: int = 0) -> CollRequest:
    """Nonblocking :func:`bcast`; completes on the async comm engine."""
    return _icoll(comm, bcast, value, root)


def iallgather(comm, value: Any) -> CollRequest:
    """Nonblocking :func:`allgather`; completes on the async comm engine."""
    return _icoll(comm, allgather, value)


def ireduce_scatter(comm, blocks: Sequence[np.ndarray], op: Op = SUM) -> CollRequest:
    """Nonblocking :func:`reduce_scatter`; completes on the async engine."""
    return _icoll(comm, reduce_scatter, blocks, op)


# ---------------------------------------------------------- reduce_scatter -- #
def reduce_scatter(comm, blocks: Sequence[np.ndarray], op: Op = SUM) -> np.ndarray:
    """Pairwise-exchange reduce-scatter.

    ``blocks[r]`` is this rank's contribution destined for rank ``r``
    (blocks may have different shapes across destinations but must agree
    across sources).  Returns the elementwise reduction of every rank's
    ``blocks[comm.rank]``, accumulated in a fixed source order; on one
    rank that is the block itself, uncopied, as :func:`reduce` returns.

    Per-rank cost α(P-1) + βn(P-1)/P — exactly the formula the paper
    uses for its reduce-scatter step.  The machine model's
    ``rs_degrade_*`` parameters are price-only terms: the transport
    never reads them, and only :func:`repro.analysis.costs._reduce_scatter`
    adds them on top of the pattern's price.
    """
    _one_per_rank(comm, "reduce_scatter", blocks)
    if comm.size == 1:
        return blocks[0]
    with _span(comm, "reduce_scatter", algo="reduce_scatter.pairwise"):
        contributions = _exchange(comm, [np.asarray(b) for b in blocks], _TAG_RSCAT)
        acc = np.array(contributions[0], copy=True)
        for other in contributions[1:]:
            acc = op(acc, other)
        return acc
