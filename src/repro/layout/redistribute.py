"""Generic any-to-any matrix redistribution (Algorithm 1, steps 4 and 8).

CA3DMM (like COSMA and CARMA) has library-native partitionings, so user
matrices must be converted on entry and exit.  The paper implements this
with block pack/unpack plus ``MPI_Neighbor_alltoallv`` and explicitly does
not optimize it further; we do the same: every rank cuts the pieces its
rectangles share with each destination rank's, exchanges them with one
alltoall, and writes each arriving piece into its tile.  Which pieces
those are is a function of the two layouts alone, derived once per pair
of layouts — not once per rank — in :mod:`repro.layout.overlap`.

A batch costs the wire the length of the pickle of its ``[(Rect,
ndarray), ...]`` list, but it is not pickled: like the paper's packed
buffers it is handed over, as a :class:`~repro.mpi.datatypes.Hop` whose
pieces are private copies cut for the message.  Each piece's share of
that pickle is a sum — a per-dtype constant, the bytes of its six ints
(a layout constant of the overlap table) and its elements' bytes — and a
batch the sum cannot vouch for (an odd tile or dtype, see :func:`_hop`)
is priced by pickling its list instead.

Transposition (``op(A)`` in the paper) is folded into the conversion:
when ``transpose=True`` the destination distribution describes
``src.T``, pieces travel untransposed, and each piece is transposed
during reassembly — matching the paper's note that CA3DMM "utilizes the
redistribution steps of A and B" to implement the ``op()`` modes.

With ``verify=True`` every cross-rank batch travels inside a CRC
envelope: the sender CRCs each piece's bytes (``zlib.crc32`` — exact,
magnitude-independent, and an *integer* payload the corruption walker
cannot flip), the receiver re-CRCs on arrival, and a detection vote
lets receivers nack corrupted batches back to their sources for a
bit-identical resend.  A bounded number of resend rounds separates a
transient wire fault from a persistent one
(:class:`~repro.ft.errors.CorruptionError`).
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from ..mpi.comm import Comm
from ..mpi.datatypes import INTERNAL_TAG_BASE, MAX, Form, Hop, measure_form
from .blocks import Rect
from .distributions import Distribution
from .matrix import DistMatrix
from .overlap import overlap_table

_TAG_REDIST = INTERNAL_TAG_BASE + 401
_TAG_REDIST_NACK = INTERNAL_TAG_BASE + 402
_TAG_REDIST_RESEND = INTERNAL_TAG_BASE + 403

#: Resend rounds allowed before a persistent corruption becomes typed.
MAX_RESEND_ROUNDS = 2


def _parts(piece: tuple[Rect, np.ndarray]) -> tuple[tuple[int, ...], np.ndarray]:
    rect, data = piece
    return (rect.r0, rect.r1, rect.c0, rect.c1, *data.shape), data


@lru_cache(maxsize=None)
def _piece_form(dtype: np.dtype) -> Form | None:
    """How a piece of ``dtype`` sits in its batch's pickle, as the first
    piece of the batch, which also writes the globals (the ``Rect``
    class, numpy's array constructor, the dtype), and as any later one,
    which refers back to them — measured once per process on a batch of
    two tiny pieces.  ``None`` for a dtype the sum cannot price: one that
    is not a native-order builtin numeric type.  (The caller rules out
    metadata first: its pickle writes it, yet the dtype equals the plain
    one.)"""
    if not dtype.isnative or dtype.kind not in "biufc":
        return None
    one = np.zeros((1, 1), dtype)
    batch = [(Rect(1, 2, 3, 4), one), (Rect(5, 6, 7, 8), one.copy())]
    return measure_form(batch, _parts, ("piece", dtype.str))


def _hop(tiles: list[np.ndarray], rows: list[list[int]]) -> Hop:
    """One batch for another rank, from its send rows: each piece ``(rect,
    copy of its cut)``, sized as ``(rect, np.ascontiguousarray(cut))`` —
    what a sender that pickled its batch sent — adds to a pickled list as
    a later piece: its :class:`~repro.mpi.datatypes.Form`'s base, the
    pickled widths of its six ints and its buffer (``hop_bytes`` adds what
    the first piece writes and the frames).  A piece whose tile is not an
    exact, writeable ndarray of the batch's one dtype object (an unpickled
    array brings a dtype object of its own, written out in full), or of a
    dtype that is not a native builtin numeric one, is sized ``None``, so
    the batch is priced by pickling its list into a byte counter; its copy
    pickles as that cut did (an exact ndarray, read-only where the cut was
    a contiguous view of a read-only tile)."""
    dtype = tiles[rows[0][5]].dtype
    form = _piece_form(dtype) if dtype.metadata is None else None
    base = None if form is None else form.base + 9  # BYTEARRAY8
    blocks, sizes = [], []
    for _dst, r0, r1, c0, c1, t, ro, co, h, w, ints in rows:
        tile = tiles[t]
        cut = tile[ro : ro + h, co : co + w]
        if base is not None and type(tile) is np.ndarray and tile.flags.writeable \
                and tile.dtype is dtype:
            data = cut.copy()
            sizes.append(base + ints + data.nbytes)
        else:
            data = np.array(cut, order="C")
            if not tile.flags.writeable and cut.flags.c_contiguous:
                data.flags.writeable = False
            sizes.append(None)
        blocks.append((Rect(r0, r1, c0, c1), data))
    return Hop(blocks, sizes, [form] * len(blocks))


def _batch_crcs(batch: list[tuple[Rect, np.ndarray]]) -> list[int]:
    return [zlib.crc32(data.tobytes()) for _rect, data in batch]


def _batch_bad(envelope: list[int], batch: list[tuple[Rect, np.ndarray]]) -> bool:
    if len(envelope) != len(batch):
        return True
    return any(
        zlib.crc32(np.ascontiguousarray(data).tobytes()) != crc
        for crc, (_rect, data) in zip(envelope, batch)
    )


def _verify_batches(
    comm: Comm,
    phase: str,
    sends: dict[int, list[tuple[Rect, np.ndarray]]],
    send_dsts: list[int],
    recv_sources: list[int],
    got: dict[int, tuple[list[int], list]],
) -> None:
    """CRC-verify received batches; nack and re-request corrupted ones.

    Collective over ``comm``.  Each round: receivers check every
    batch's envelope, a MAX vote establishes whether anyone saw
    corruption, then receivers isend a nack bool to each of their
    sources, sources answer nacks with a bit-identical resend (from
    the retained ``sends`` batch), and the replacements are
    re-verified next round.  All isends are posted before any blocking
    recv, so the exchange cannot deadlock.  Nack payloads carry no
    float arrays, hence are incorruptible by construction.  After
    ``MAX_RESEND_ROUNDS`` unsuccessful rounds the persistent fault
    surfaces as a typed :class:`~repro.ft.errors.CorruptionError`.
    """
    from ..ft.errors import CorruptionError

    rounds = 0
    while True:
        bad = {s for s in recv_sources if _batch_bad(*got[s])}
        if bad:
            comm.transport.add_ft(
                comm.world_rank, detected=len(bad), phase=phase
            )
        any_bad = comm.allreduce(int(bool(bad)), op=MAX)
        if not any_bad:
            return
        rounds += 1
        if rounds > MAX_RESEND_ROUNDS:
            raise CorruptionError(
                comm.world_rank, rounds - 1, phase=phase
            )
        nack_pending = [
            comm.isend(s in bad, s, _TAG_REDIST_NACK) for s in recv_sources
        ]
        resend_pending = []
        for dst_rank in send_dsts:
            if comm.recv(source=dst_rank, tag=_TAG_REDIST_NACK):
                batch = sends[dst_rank]
                resend_pending.append(
                    comm.isend(
                        (_batch_crcs(batch), batch),
                        dst_rank,
                        _TAG_REDIST_RESEND,
                    )
                )
        for src_rank in recv_sources:
            if src_rank in bad:
                got[src_rank] = comm.recv(
                    source=src_rank, tag=_TAG_REDIST_RESEND
                )
        for req in nack_pending + resend_pending:
            req.wait()


def redistribute(
    src: DistMatrix,
    dst_dist: Distribution,
    transpose: bool = False,
    phase: str = "redist",
    conjugate: bool = False,
    verify: bool = False,
) -> DistMatrix:
    """Convert ``src`` to ``dst_dist`` (optionally (conjugate-)transposing).

    Collective over ``src.comm``; both distributions must span the same
    communicator size.  ``conjugate`` applies elementwise conjugation
    during reassembly (combined with ``transpose`` this implements the
    BLAS 'C' op; alone it is the rarely-used 'R').  ``verify`` wraps
    every cross-rank batch in a CRC envelope with nack/resend
    correction (see the module docstring); without it a batch is a
    :class:`~repro.mpi.datatypes.Hop` of private copies, priced as the
    pickle of its ``[(Rect, ndarray)]`` list and handed over.  Returns
    the converted :class:`DistMatrix`.
    """
    comm: Comm = src.comm
    if dst_dist.nranks != comm.size:
        raise ValueError(f"destination spans {dst_dist.nranks} ranks, communicator has {comm.size}")
    me = comm.rank
    table = overlap_table(src.dist, dst_dist, transpose)

    with comm.phase(phase):
        # Like MPI_Neighbor_alltoallv, only pairs with actual overlap
        # exchange messages.  Both sides read the neighbourhood off the
        # same table of the (globally known) distributions, so no
        # handshaking and no empty messages are needed — a
        # native-to-native conversion sends nothing at all.
        src_tiles = src.tiles
        sends, pending = {}, []
        for dst_rank, rows in groupby(table.send_rows(me), itemgetter(0)):
            if dst_rank != me and not verify:  # posted at once: this rank keeps no copy
                pending.append(comm.isend(_hop(src_tiles, list(rows)), dst_rank, _TAG_REDIST))
                continue
            keep = np.asanyarray if dst_rank == me else np.ascontiguousarray  # own: the views
            sends[dst_rank] = [(Rect(r0, r1, c0, c1), keep(src_tiles[t][ro : ro + h, co : co + w]))
                               for _d, r0, r1, c0, c1, t, ro, co, h, w, _i in rows]
        recv_sources = table.sources(me)

        send_dsts = [d for d in sends if d != me]  # verify keeps them for resends
        for dst_rank in send_dsts:
            batch = sends[dst_rank]
            pending.append(comm.isend((_batch_crcs(batch), batch), dst_rank, _TAG_REDIST))
        received = [sends[me]] if me in sends else []
        if not verify:
            for src_rank in recv_sources:
                received.append(comm.recv(source=src_rank, tag=_TAG_REDIST).blocks)
            for req in pending:
                req.wait()
        else:
            got: dict[int, tuple[list[int], list]] = {}
            for src_rank in recv_sources:
                got[src_rank] = comm.recv(source=src_rank, tag=_TAG_REDIST)
            for req in pending:
                req.wait()
            _verify_batches(comm, phase, sends, send_dsts, recv_sources, got)
            received.extend(got[s][1] for s in recv_sources)

        # A tile takes the dtype of the data that fills it: a rank that
        # owned nothing has no dtype of its own to offer.
        dtypes = {data.dtype for batch in received for _rect, data in batch}
        if len(dtypes) > 1:
            raise ValueError(f"rank {me}: pieces of mixed dtypes "
                             f"{sorted(map(str, dtypes))} in one redistribution")
        dtype = dtypes.pop() if dtypes else src.dtype
        my_rects = dst_dist.owned_rects(me)
        tiles = [np.zeros(r.shape, dtype=dtype) for r in my_rects]
        # Destination tiles coexist with the received pieces until
        # reassembly finishes; charge that window to redist.tiles.
        staged = sum(t.nbytes for t in tiles) + sum(
            data.nbytes for batch in received for _rect, data in batch
        )
        with comm.mem("redist.tiles", staged):
            # Read only now (a rank parked mid-exchange holds no list per piece),
            # grouped by source in this order: a batch's rows end at ``end`` iff
            # it holds as many pieces, and zip(batch, lands) takes no row past it.
            rows = table.recv_rows(me)
            lands, end, last = iter(rows), 0, len(rows) - 1
            for src_rank, batch in zip(([me] if me in sends else []) + recv_sources, received):
                end += len(batch)
                if rows[end - 1][0] != src_rank or (end <= last and rows[end][0] == src_rank):
                    raise ValueError(
                        f"rank {me}: {len(batch)} pieces from rank {src_rank}, "
                        f"the layouts call for {sum(row[0] == src_rank for row in rows)}"
                    )
                for (rect, data), (_s, r0, r1, c0, c1, t, ro, co, h, w) in zip(batch, lands):
                    if rect.r0 != r0 or rect.r1 != r1 or rect.c0 != c0 or rect.c1 != c1:
                        raise ValueError(
                            f"rank {me}: received piece {rect} from rank {src_rank} "
                            f"where the layouts call for {Rect(r0, r1, c0, c1)}"
                        )
                    payload = data.T if transpose else data
                    tiles[t][ro : ro + h, co : co + w] = np.conj(payload) if conjugate else payload
            # An overlap that pays for a hole in the same rect, found with the table.
            hole = table.holed_tile(me)
            if hole is not None:
                raise ValueError(
                    f"rank {me}: redistribution left holes in local tile {my_rects[hole]}"
                )
    return DistMatrix(comm, dst_dist, tiles, dtype=dtype)
