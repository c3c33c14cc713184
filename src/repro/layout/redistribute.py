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

import numpy as np

from ..mpi.comm import Comm
from ..mpi.datatypes import INTERNAL_TAG_BASE, MAX, Form, Hop, measure_form
from .blocks import Rect
from .distributions import Distribution
from .matrix import DistMatrix
from .overlap import Piece, overlap_table

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


def _hop(tiles: list[np.ndarray], cuts: list[Piece]) -> Hop:
    """One batch for another rank: each piece ``(rect, copy of its cut)``,
    sized as ``(rect, np.ascontiguousarray(cut))`` — what a sender that
    pickled its batch sent — adds to a pickled list as a later piece:
    its :class:`~repro.mpi.datatypes.Form`'s base, the pickled widths of
    its six ints and its buffer (``hop_bytes`` adds what the first piece
    writes and the frames).  A piece whose tile is not an exact,
    writeable ndarray of the batch's one dtype object (an unpickled array
    brings a dtype object of its own, written out in full), or of a
    dtype that is not a native builtin numeric one, is sized ``None``, so
    the batch is priced by pickling its list into a byte counter; its
    copy pickles as that cut did (an exact ndarray, read-only where the
    cut was a contiguous view of a read-only tile)."""
    dtype = tiles[cuts[0][1]].dtype
    form = _piece_form(dtype) if dtype.metadata is None else None
    base = None if form is None else form.base + 9  # BYTEARRAY8
    blocks, sizes = [], []
    for rect, t, rs, cs, ints in cuts:
        tile = tiles[t]
        cut = tile[rs, cs]
        if base is not None and type(tile) is np.ndarray and tile.flags.writeable \
                and tile.dtype is dtype:
            data = cut.copy()
            sizes.append(base + ints + data.nbytes)
        else:
            data = np.array(cut, order="C")
            if not tile.flags.writeable and cut.flags.c_contiguous:
                data.flags.writeable = False
            sizes.append(None)
        blocks.append((rect, data))
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
        raise ValueError(
            f"destination spans {dst_dist.nranks} ranks, communicator has {comm.size}"
        )
    me = comm.rank
    table = overlap_table(src.dist, dst_dist, transpose)

    with comm.phase(phase):
        # Like MPI_Neighbor_alltoallv, only pairs with actual overlap
        # exchange messages.  Both sides read the neighbourhood off the
        # same table of the (globally known) distributions, so no
        # handshaking and no empty messages are needed — a
        # native-to-native conversion sends nothing at all.
        src_tiles = src.tiles
        sends = {}
        for dst_rank, cuts in table.sends(me):
            if dst_rank == me:  # never leaves: the tiles' own views
                sends[me] = [(rect, src_tiles[t][rs, cs]) for rect, t, rs, cs, _i in cuts]
            elif verify:
                sends[dst_rank] = [
                    (rect, np.ascontiguousarray(src_tiles[t][rs, cs]))
                    for rect, t, rs, cs, _i in cuts
                ]
            else:
                sends[dst_rank] = _hop(src_tiles, cuts)
        recv_sources = table.sources(me)

        send_dsts = [d for d in sends if d != me]
        pending = []
        for dst_rank in send_dsts:
            batch = sends[dst_rank]
            payload = (_batch_crcs(batch), batch) if verify else batch
            pending.append(comm.isend(payload, dst_rank, _TAG_REDIST))
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
            raise ValueError(
                f"rank {me}: pieces of mixed dtypes "
                f"{sorted(map(str, dtypes))} in one redistribution"
            )
        dtype = dtypes.pop() if dtypes else src.dtype
        my_rects = dst_dist.owned_rects(me)
        tiles = [np.zeros(r.shape, dtype=dtype) for r in my_rects]
        # Destination tiles coexist with the received pieces until
        # reassembly finishes; charge that window to redist.tiles.
        staged = sum(t.nbytes for t in tiles) + sum(
            data.nbytes for batch in received for _rect, data in batch
        )
        with comm.mem("redist.tiles", staged):
            # The table's area sums cannot see a hole that an overlap
            # elsewhere in the same rect pays for; the mask can.
            filled = [np.zeros(r.shape, dtype=bool) for r in my_rects]
            for (src_rank, lands), batch in zip(table.recvs(me), received):
                if len(batch) != len(lands):
                    raise ValueError(
                        f"rank {me}: {len(batch)} pieces from rank {src_rank}, "
                        f"the layouts call for {len(lands)}"
                    )
                for (rect, t, rs, cs, _i), (got_rect, data) in zip(lands, batch):
                    if got_rect != rect:
                        raise ValueError(
                            f"rank {me}: received piece {got_rect} from rank "
                            f"{src_rank} where the layouts call for {rect}"
                        )
                    payload = data.T if transpose else data
                    tiles[t][rs, cs] = np.conj(payload) if conjugate else payload
                    filled[t][rs, cs] = True
            for rect, mask in zip(my_rects, filled):
                if not mask.all():
                    raise ValueError(
                        f"rank {me}: redistribution left holes in local tile {rect}"
                    )
    return DistMatrix(comm, dst_dist, tiles, dtype=dtype)
