"""Generic any-to-any matrix redistribution (Algorithm 1, steps 4 and 8).

CA3DMM (like COSMA and CARMA) has library-native partitionings, so user
matrices must be converted on entry and exit.  The paper implements this
with block pack/unpack plus ``MPI_Neighbor_alltoallv`` and explicitly does
not optimize it further; we do the same: every rank intersects its owned
rectangles with every destination rank's needed rectangles, exchanges the
pieces with one alltoall, and reassembles.

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

import numpy as np

from ..mpi.comm import Comm
from ..mpi.datatypes import INTERNAL_TAG_BASE, MAX
from .blocks import Rect
from .distributions import Distribution
from .matrix import DistMatrix

_TAG_REDIST = INTERNAL_TAG_BASE + 401
_TAG_REDIST_NACK = INTERNAL_TAG_BASE + 402
_TAG_REDIST_RESEND = INTERNAL_TAG_BASE + 403

#: Resend rounds allowed before a persistent corruption becomes typed.
MAX_RESEND_ROUNDS = 2


def _batch_crcs(batch: list[tuple[Rect, np.ndarray]]) -> list[int]:
    return [zlib.crc32(data.tobytes()) for _rect, data in batch]


def _batch_bad(envelope: list[int], batch: list[tuple[Rect, np.ndarray]]) -> bool:
    if len(envelope) != len(batch):
        return True
    return any(
        zlib.crc32(np.ascontiguousarray(data).tobytes()) != crc
        for crc, (_rect, data) in zip(envelope, batch)
    )


def _plan_sends(
    my_rects: list[Rect],
    my_tiles: list[np.ndarray],
    dst_dist: Distribution,
    transpose: bool,
) -> dict[int, list[tuple[Rect, np.ndarray]]]:
    """The (src-coord rect, data) pieces to send, by destination rank:
    only destinations that get something, in ascending order."""
    out: dict[int, list[tuple[Rect, np.ndarray]]] = {}
    if not my_rects:
        return out
    # Vectorized destination prefilter: a destination is a candidate
    # only if one of its wanted rects (taken in source coordinates)
    # meets the bounding box of what this rank holds.  The bbox test
    # over the flat rect index replaces an O(P) Python scan per source
    # rank — the difference between minutes and seconds at 1024 ranks.
    # np.unique keeps destinations ascending, so the send plan (and
    # every message ordering downstream) is unchanged.
    br0 = min(r.r0 for r in my_rects)
    br1 = max(r.r1 for r in my_rects)
    bc0 = min(r.c0 for r in my_rects)
    bc1 = max(r.c1 for r in my_rects)
    ranks, w_r0, w_r1, w_c0, w_c1 = dst_dist.rect_index()
    if transpose:
        w_r0, w_r1, w_c0, w_c1 = w_c0, w_c1, w_r0, w_r1
    hit = (w_r0 < br1) & (w_r1 > br0) & (w_c0 < bc1) & (w_c1 > bc0)
    for dst_rank in np.unique(ranks[hit]):
        dst_rank = int(dst_rank)
        batch = []
        for want in dst_dist.owned_rects(dst_rank):
            want_src = want.transposed() if transpose else want
            for mine, tile in zip(my_rects, my_tiles):
                piece = mine.intersect(want_src)
                if piece.is_empty():
                    continue
                rs, cs = mine.local_slice(piece)
                batch.append((piece, np.ascontiguousarray(tile[rs, cs])))
        if batch:
            out[dst_rank] = batch
    return out


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
    correction (see the module docstring); the ``verify=False`` wire
    format is byte-for-byte what it always was.  Returns the converted
    :class:`DistMatrix`.
    """
    comm: Comm = src.comm
    if dst_dist.nranks != comm.size:
        raise ValueError(
            f"destination spans {dst_dist.nranks} ranks, communicator has {comm.size}"
        )
    sm, sn = src.shape
    dm, dn = dst_dist.shape
    if (transpose and (dm, dn) != (sn, sm)) or (not transpose and (dm, dn) != (sm, sn)):
        raise ValueError(
            f"shape mismatch: src {src.shape}, dst {dst_dist.shape}, transpose={transpose}"
        )

    with comm.phase(phase):
        sends = _plan_sends(src.owned_rects, src.tiles, dst_dist, transpose)

        # Like MPI_Neighbor_alltoallv, only pairs with actual overlap
        # exchange messages.  Both sides derive the neighbourhood from
        # the (globally known) distributions, so no handshaking and no
        # empty messages are needed — a native-to-native conversion
        # sends nothing at all.
        my_needs = [
            (w.transposed() if transpose else w)
            for w in dst_dist.owned_rects(comm.rank)
        ]
        recv_sources = []
        if my_needs:
            # Same vectorized bbox prefilter as _plan_sends, applied to
            # the receive side: only sources whose holdings can touch
            # this rank's needs get the exact (pairwise) overlap check.
            nr0 = min(w.r0 for w in my_needs)
            nr1 = max(w.r1 for w in my_needs)
            nc0 = min(w.c0 for w in my_needs)
            nc1 = max(w.c1 for w in my_needs)
            ranks, o_r0, o_r1, o_c0, o_c1 = src.dist.rect_index()
            hit = (o_r0 < nr1) & (o_r1 > nr0) & (o_c0 < nc1) & (o_c1 > nc0)
            for src_rank in np.unique(ranks[hit]):
                src_rank = int(src_rank)
                if src_rank == comm.rank:
                    continue
                overlap = any(
                    not owned.intersect(need).is_empty()
                    for owned in src.dist.owned_rects(src_rank)
                    for need in my_needs
                )
                if overlap:
                    recv_sources.append(src_rank)

        me = comm.rank
        send_dsts = [d for d in sends if d != me]
        pending = []
        for dst_rank in send_dsts:
            batch = sends[dst_rank]
            payload = (_batch_crcs(batch), batch) if verify else batch
            pending.append(comm.isend(payload, dst_rank, _TAG_REDIST))
        if not verify:
            received = [sends.get(me, [])]
            for src_rank in recv_sources:
                received.append(comm.recv(source=src_rank, tag=_TAG_REDIST))
            for req in pending:
                req.wait()
        else:
            got: dict[int, tuple[list[int], list]] = {}
            for src_rank in recv_sources:
                got[src_rank] = comm.recv(source=src_rank, tag=_TAG_REDIST)
            for req in pending:
                req.wait()
            _verify_batches(comm, phase, sends, send_dsts, recv_sources, got)
            received = [sends.get(me, [])]
            received.extend(got[s][1] for s in recv_sources)

        my_rects = dst_dist.owned_rects(comm.rank)
        tiles = [np.zeros(r.shape, dtype=src.dtype) for r in my_rects]
        # Destination tiles coexist with the received pieces until
        # reassembly finishes; charge that window to redist.tiles.
        staged = sum(t.nbytes for t in tiles) + sum(
            data.nbytes for batch in received for _rect, data in batch
        )
        with comm.mem("redist.tiles", staged):
            filled = [np.zeros(r.shape, dtype=bool) for r in my_rects]
            for batch in received:
                for src_rect, data in batch:
                    dst_rect = src_rect.transposed() if transpose else src_rect
                    payload = data.T if transpose else data
                    if conjugate:
                        payload = np.conj(payload)
                    placed = False
                    for rect, tile, mask in zip(my_rects, tiles, filled):
                        piece = rect.intersect(dst_rect)
                        if piece.is_empty():
                            continue
                        rs, cs = rect.local_slice(piece)
                        prs, pcs = dst_rect.local_slice(piece)
                        tile[rs, cs] = payload[prs, pcs]
                        mask[rs, cs] = True
                        placed = True
                    assert placed, "received a piece no local rect wants"
            for mask in filled:
                assert mask.all(), "redistribution left holes in a local tile"
    return DistMatrix(comm, dst_dist, tiles)
