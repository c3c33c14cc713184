"""Collective operations, built on the point-to-point layer.

Each collective is implemented with a textbook algorithm whose message
count and volume match the α-β costs the CA3DMM paper assumes
(Thakur, Rabenseifner & Gropp, IJHPCA 2005):

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
checked against the paper's closed-form costs (see ``tests/analysis``).

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

from ..obs.tracer import CAT_COLLECTIVE
from .datatypes import (
    INTERNAL_TAG_BASE, SUM, Hop, Op, array_form, detached, hand_over, handed_array,
    is_immutable,
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
        step = 1
        while step < size:
            dest = (rank + step) % size
            src = (rank - step) % size
            comm.sendrecv(b"", dest, src, _TAG_BARRIER, _TAG_BARRIER)
            step <<= 1


# ------------------------------------------------------------------ bcast -- #
def _bcast_binomial(comm, value: Any, root: int, tag: int) -> Any:
    """Binomial-tree broadcast (the MPICH short-message algorithm)."""
    size = comm.size
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (comm.rank - mask) % size
            value = comm.recv(source=src, tag=tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            comm.send(value, (comm.rank + mask) % size, tag)
        mask >>= 1
    return value


def bcast(comm, value: Any, root: int = 0) -> Any:
    """Broadcast from ``root``; everyone returns the value.

    Long numpy arrays use van de Geijn scatter+allgather — the algorithm
    behind the paper's ``T_broadcast`` formula; everything else uses a
    binomial tree.  A small binomial header tells non-roots which path
    (and, for the long path, the shape/dtype) to expect.
    """
    if comm.size == 1:
        return value
    with _span(comm, "bcast", algo=""):
        if comm.rank == root:
            is_long = isinstance(value, np.ndarray) and value.nbytes >= BCAST_LONG_THRESHOLD
            header = (is_long, (value.shape, value.dtype) if is_long else None)
        else:
            header = None
        with _algo(comm, "bcast.binomial"):
            is_long, meta = _bcast_binomial(comm, header, root, _TAG_BCAST)
            if not is_long:
                return _bcast_binomial(comm, value, root, _TAG_BCAST)
        with _algo(comm, "bcast.scatter_allgather"):
            shape, dtype = meta
            if comm.rank == root:
                chunks = np.array_split(np.ascontiguousarray(value).reshape(-1), comm.size)
            else:
                chunks = None
            mine = scatter(comm, chunks, root)
            parts = allgather(comm, mine)
            return np.concatenate(parts).reshape(shape).astype(dtype, copy=False)


# ----------------------------------------------------------------- reduce -- #
def reduce(comm, value: Any, op: Op = SUM, root: int = 0) -> Any:
    """Binomial-tree reduction to ``root``; root returns the result.

    Operands are combined child-over-parent in a fixed order, so results
    are deterministic for a given communicator size.
    """
    size = comm.size
    if size == 1:
        return value
    with _span(comm, "reduce", algo="reduce.binomial"):
        vrank = (comm.rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = vrank & ~mask
                comm.send(acc, (parent + root) % size, _TAG_REDUCE)
                return None
            child = vrank | mask
            if child < size:
                other = comm.recv(source=(child + root) % size, tag=_TAG_REDUCE)
                acc = op(acc, other)
            mask <<= 1
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
                mask = 1
                while mask < size:
                    partner = comm.rank ^ mask
                    other = comm.sendrecv(
                        acc, partner, partner, _TAG_ALLREDUCE, _TAG_ALLREDUCE
                    )
                    # Fixed operand order (lower rank's data first) keeps the
                    # result identical on every rank even for non-commutative ops.
                    acc = op(other, acc) if partner < comm.rank else op(acc, other)
                    mask <<= 1
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
        if comm.rank == root:
            out: list[Any] = [None] * comm.size
            out[root] = value
            for r in range(comm.size):
                if r != root:
                    out[r] = comm.recv(source=r, tag=_TAG_GATHER)
            return out
        comm.send(value, root, _TAG_GATHER)
        return None


def scatter(comm, values: Sequence[Any] | None, root: int = 0) -> Any:
    """Linear scatter; each rank returns its element of root's sequence."""
    if comm.rank == root:
        _one_per_rank(comm, "scatter (at the root)", values)
    with _span(comm, "scatter", algo="scatter.linear"):
        if comm.rank == root:
            for r in range(comm.size):
                if r != root:
                    comm.send(values[r], r, _TAG_SCATTER)
            return values[root]
        return comm.recv(source=root, tag=_TAG_SCATTER)


# -------------------------------------------------------------- allgather -- #
def allgather(comm, value: Any) -> list[Any]:
    """Bruck allgather: ⌈log2 P⌉ rounds, works for any P and any sizes.

    Returns the list of every rank's contribution, ordered by rank: the
    contributing rank's own object, and copies of everyone else's.

    A hop forwards blocks it received.  While every block a rank holds
    is immutable (``Comm.split``'s ``(color, key, rank)`` triples) or an
    array (CA3DMM's replication step, the 1D and COSMA schedules) the
    window travels as a :class:`~repro.mpi.datatypes.Hop`: priced as the
    pickle of the list like any other, handed over instead of unpickled
    and pickled again at each of the ⌈log2 P⌉ ranks it passes.  Each
    array in it is a private copy made for that message (a forwarded
    block is copied again at every hop, so no two ranks hold the same
    array), looking like the unpickled one.  Each block's share of the
    pickle is measured once, at its origin, and travels beside it with
    an array's :class:`~repro.mpi.datatypes.Form`, so a hop of atoms,
    flat tuples of atoms and arrays of one dtype is priced by a sum, not
    a pickle.  Each rank looks at its own block only, once; an incoming
    window says for itself which kind it is.  One block that is anything
    else (a list, an ``object`` array) and the hops that carry it are
    pickled lists.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return [value]
    with _span(comm, "allgather", algo="allgather.bruck"):
        # held: the blocks of ranks rank, rank+1, ... (mod P), this rank's
        # as given; sizes: what each (an array's copy) adds to a hop's
        # pickle; forms: how an array among them sits in it (None for an
        # atom; the list is None until an array is seen).  Every rank runs
        # in this process, so two ranks' equal constants can be one
        # object, which a pickle writes once: an immutable block goes in
        # as the copy its first receiver used to make.
        plain = wire = False
        forms = None
        if is_immutable(value):
            mine, nbytes = detached(value)
        elif handed_array(value):
            mine = value
            form = array_form(value)
            nbytes = None if form is None else form.size(value)
            forms = [form]
            # A strided block is pickled unlike its copies: price it as is.
            wire = not (value.flags.c_contiguous or value.flags.f_contiguous)
        else:
            mine, nbytes, plain = value, None, True
        held: list[Any] = [mine]
        sizes = [nbytes]
        h = 1
        while h < size:
            cnt = min(h, size - h)
            dest = (rank - h) % size
            src = (rank + h) % size
            window = held[:cnt]
            if plain:
                payload = window
            elif forms is None:
                payload = Hop(window, sizes[:cnt])
            else:
                payload = hand_over(window, sizes[:cnt], forms[:cnt], window if wire else None)
            incoming = comm.sendrecv(payload, dest, src, _TAG_ALLGATHER, _TAG_ALLGATHER)
            if type(incoming) is Hop:
                if incoming.forms is not None and forms is None:
                    forms = [None] * len(sizes)
                sizes += incoming.sizes
                if forms is not None:
                    forms += incoming.forms or [None] * len(incoming.sizes)
                incoming = incoming.blocks
            else:
                plain = True
            held += incoming
            h += cnt
        # held[i] is the block of rank (rank + i) % size; rotate to absolute.
        return held[size - rank:] + held[:size - rank]


# --------------------------------------------------------------- alltoall -- #
def alltoall(comm, values: Sequence[Any]) -> list[Any]:
    """Pairwise-exchange alltoall; ``values[r]`` goes to rank ``r``."""
    size, rank = comm.size, comm.rank
    _one_per_rank(comm, "alltoall", values)
    if size == 1:
        return [values[0]]
    with _span(comm, "alltoall", algo="alltoall.pairwise"):
        out: list[Any] = [None] * size
        out[rank] = values[rank]
        for i in range(1, size):
            dest = (rank + i) % size
            src = (rank - i) % size
            out[src] = comm.sendrecv(values[dest], dest, src, _TAG_ALLTOALL, _TAG_ALLTOALL)
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
    ``blocks[comm.rank]``, accumulated in a fixed source order.

    Per-rank cost α(P-1) + βn(P-1)/P — exactly the formula the paper
    uses for its reduce-scatter step.  The machine model's
    ``rs_degrade``) parameters are applied by pricing the traffic at the
    transport level; see :mod:`repro.machine.model`.
    """
    size, rank = comm.size, comm.rank
    _one_per_rank(comm, "reduce_scatter", blocks)
    if size == 1:
        return np.array(np.asarray(blocks[0]), copy=True)
    with _span(comm, "reduce_scatter", algo="reduce_scatter.pairwise"):
        contributions: list[np.ndarray | None] = [None] * size
        contributions[rank] = np.asarray(blocks[rank])
        for i in range(1, size):
            dest = (rank + i) % size
            src = (rank - i) % size
            contributions[src] = comm.sendrecv(
                np.asarray(blocks[dest]), dest, src, _TAG_RSCAT, _TAG_RSCAT
            )
        acc = np.array(contributions[0], copy=True)
        for r in range(1, size):
            acc = op(acc, contributions[r])
        return acc
