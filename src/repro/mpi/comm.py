"""Communicators for the virtual MPI runtime.

A :class:`Comm` is a view of a subset of world ranks with its own context
id (so traffic in different communicators can never match) and local rank
numbering.  The API intentionally mirrors mpi4py's lowercase, object-mode
methods — ``send``/``recv`` move numpy arrays or arbitrary picklable
objects — because that is the idiom the algorithms in this package are
written in.

SPMD discipline: collective calls (including :meth:`split` and
:meth:`dup`) must be invoked by every member rank in the same order.
The runtime does not police call ordering; a violation typically shows
up as a :class:`~repro.mpi.errors.DeadlockError`.
"""

from __future__ import annotations

import contextlib
import numbers
from typing import Any, Iterator, Sequence

import numpy as np

from . import collectives as _coll
from .datatypes import ANY_SOURCE, ANY_TAG, Op, SUM, Status, payload_pack
from .errors import BufferError_, CommError, RankError, TagError
from .request import RecvRequest, Request, SendRequest
from .transport import Transport


class Comm:
    """A communicator over a subset of the world's ranks."""

    def __init__(self, transport: Transport, ctx: int, group: Sequence[int], world_rank: int):
        self._transport = transport
        self._ctx = ctx
        self._group = tuple(group)
        self._world_rank = world_rank
        try:
            self._rank = self._group.index(world_rank)
        except ValueError:  # pragma: no cover - constructor misuse
            raise CommError(f"world rank {world_rank} not in group {group}")
        self._w2l: dict[int, int] | None = None  # built by the first _to_local
        self._split_seq = 0
        self._agree_seq = 0
        self._shrink_seq = 0

    # ------------------------------------------------------------ basics -- #
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._group)

    @property
    def world_rank(self) -> int:
        """This process's rank in the world communicator."""
        return self._world_rank

    @property
    def group(self) -> tuple[int, ...]:
        """World ranks of the members, indexed by local rank."""
        return self._group

    @property
    def transport(self) -> Transport:
        return self._transport

    @property
    def machine(self):
        return self._transport.machine

    def _to_world(self, local: int) -> int:
        if local == ANY_SOURCE:
            return ANY_SOURCE
        if not 0 <= local < len(self._group):
            raise RankError(f"rank {local} out of range for size {self.size}")
        return self._group[local]

    def _to_local(self, world: int) -> int:
        w2l = self._w2l
        if w2l is None:
            w2l = self._w2l = {w: l for l, w in enumerate(self._group)}
        return w2l[world]

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag != ANY_TAG and tag < 0:
            raise TagError(f"invalid tag {tag}")

    def _send_target(self, dest: int, tag: int) -> int:
        """World rank of ``dest``, for a send with ``tag``.  Wildcards are
        for receives: ``ANY_SOURCE`` is not a destination (it would park
        the message in a mailbox nobody owns and wake the wrong rank) and
        ``ANY_TAG`` is not a tag a message can carry.  Refused here, on
        the calling rank, before anything is packed, posted or counted."""
        if tag < 0:
            raise TagError(
                "cannot send with ANY_TAG" if tag == ANY_TAG else f"invalid tag {tag}"
            )
        if not 0 <= dest < len(self._group):
            raise RankError(f"cannot send to rank {dest}: out of range for size {self.size}")
        return self._group[dest]

    # --------------------------------------------------------------- p2p -- #
    def send(self, value: Any, dest: int, tag: int = 0) -> None:
        """Blocking eager send of an array or picklable object.

        An array arrives as a copy, any other object as an unpickled
        copy; a value nobody can change (``None``, a number, a string, a
        tuple of such) arrives as the sender's own object.  All three
        cost the wire the same as before: the array's bytes, or the
        length of the pickle."""
        dest_world = self._send_target(dest, tag)
        stored, nbytes, handed = payload_pack(value)
        self._transport.post_send(
            self._ctx,
            self._world_rank,
            dest_world,
            tag,
            stored,
            nbytes,
            handed,
            advance_sender=True,
        )

    def isend(self, value: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; the buffer is copied, reusable immediately."""
        dest_world = self._send_target(dest, tag)
        stored, nbytes, handed = payload_pack(value)
        arrival, seq = self._transport.post_send(
            self._ctx,
            self._world_rank,
            dest_world,
            tag,
            stored,
            nbytes,
            handed,
            advance_sender=False,
        )
        return SendRequest(
            self._transport, self._world_rank, arrival,
            nbytes=nbytes, peer=dest_world, seq=seq,
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
        buf: np.ndarray | None = None,
    ) -> Any:
        """Blocking receive; returns the payload.

        If ``buf`` is given, array payloads are copied into it (shape is
        ignored; sizes must match) and ``buf`` is returned.

        Under a fault plan (:mod:`repro.mpi.faults`) a receive whose
        matching message was dropped retries per the plan's
        :class:`~repro.mpi.faults.RetryPolicy` (simulated timeout +
        geometric backoff, counted on the rank's trace) and raises
        :class:`~repro.mpi.errors.RecvTimeoutError` when the budget is
        exhausted.  Collectives and :meth:`sendrecv` inherit the same
        semantics — every blocking receive goes through the transport's
        ``match_recv``.
        """
        self._check_tag(tag)
        msg, st = self._transport.match_recv(
            self._ctx, self._world_rank, self._to_world(source), tag
        )
        value = msg.unpack()
        if status is not None:
            status.source = self._to_local(st.source)
            status.tag = st.tag
            status.nbytes = st.nbytes
        if buf is not None:
            arr = np.asarray(value)
            if buf.size != arr.size:
                raise BufferError_(
                    f"recv buffer size {buf.size} != message size {arr.size}"
                )
            buf.reshape(-1)[:] = arr.reshape(-1)
            return buf
        return value

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, buf: np.ndarray | None = None
    ) -> RecvRequest:
        """Nonblocking receive; matching happens at ``wait`` time."""
        self._check_tag(tag)
        return RecvRequest(
            self._transport,
            self._ctx,
            self._world_rank,
            self._to_world(source),
            tag,
            buf,
            self._to_local,
        )

    def sendrecv(
        self,
        sendvalue: Any,
        dest: int,
        recvsource: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Full-duplex exchange: send and receive concurrently.

        Simulated time: the outgoing transfer and the incoming transfer
        overlap; the call completes at the later of the two.
        """
        dest_world = self._send_target(dest, sendtag)
        self._check_tag(recvtag)
        source_world = self._to_world(recvsource)
        stored, nbytes, handed = payload_pack(sendvalue)
        arrival_out, seq_out = self._transport.post_send(
            self._ctx,
            self._world_rank,
            dest_world,
            sendtag,
            stored,
            nbytes,
            handed,
            advance_sender=False,
        )
        msg, _st = self._transport.match_recv(
            self._ctx, self._world_rank, source_world, recvtag
        )
        # Outgoing side also occupies this rank until arrival_out.
        self._transport.raise_clock(
            self._world_rank, arrival_out,
            event_kind="send", nbytes=nbytes, peer=dest_world, seq=seq_out,
        )
        return msg.unpack()

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Nonblocking probe; Status (with local source) or None."""
        st = self._transport.probe(
            self._ctx, self._world_rank, self._to_world(source), tag
        )
        if st is None:
            return None
        return Status(source=self._to_local(st.source), tag=st.tag, nbytes=st.nbytes)

    # ------------------------------------------------------- collectives -- #
    def barrier(self) -> None:
        _coll.barrier(self)

    def bcast(self, value: Any, root: int = 0) -> Any:
        return _coll.bcast(self, value, root)

    def reduce(self, value: Any, op: Op = SUM, root: int = 0) -> Any:
        return _coll.reduce(self, value, op, root)

    def allreduce(self, value: Any, op: Op = SUM) -> Any:
        return _coll.allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        return _coll.gather(self, value, root)

    def allgather(self, value: Any) -> list[Any]:
        return _coll.allgather(self, value)

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        return _coll.scatter(self, values, root)

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        return _coll.alltoall(self, values)

    def reduce_scatter(self, blocks: Sequence[np.ndarray], op: Op = SUM) -> np.ndarray:
        return _coll.reduce_scatter(self, blocks, op)

    # ------------------------------------------- nonblocking collectives -- #
    def ibcast(self, value: Any, root: int = 0) -> Request:
        """Nonblocking broadcast; ``wait()`` returns the value.

        Progresses on the rank's async comm engine: with
        ``machine.overlap != "none"`` the transfer time can hide under
        compute issued between post and wait; with ``"none"`` it behaves
        exactly like :meth:`bcast` followed by a free wait.
        """
        return _coll.ibcast(self, value, root)

    def iallgather(self, value: Any) -> Request:
        """Nonblocking allgather; ``wait()`` returns the gathered list."""
        return _coll.iallgather(self, value)

    def ireduce_scatter(self, blocks: Sequence[np.ndarray], op: Op = SUM) -> Request:
        """Nonblocking reduce-scatter; ``wait()`` returns this rank's block."""
        return _coll.ireduce_scatter(self, blocks, op)

    # --------------------------------------------- communicator management -- #
    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Partition the communicator by color; order members by key.

        ``color=None`` (MPI's ``MPI_UNDEFINED``) yields ``None``.
        Collective over the communicator.  A color or key that is not an
        integer is a :class:`~repro.mpi.errors.CommError` on the calling
        rank, before anything is sent.
        """
        if color is not None and not isinstance(color, numbers.Integral):
            raise CommError(
                f"split color must be an integer or None, got {type(color).__name__}"
            )
        if not isinstance(key, numbers.Integral):
            raise CommError(f"split key must be an integer, got {type(key).__name__}")
        self._split_seq += 1
        triples = _coll.allgather(self, (color, key, self._rank))
        if color is None:
            return None
        group = self._transport.split_groups(
            (self._ctx, self._split_seq), triples, self._group
        )[color]
        ctx = self._transport.context_for_key(
            (self._ctx, "split", self._split_seq, color)
        )
        return Comm(self._transport, ctx, group, self._world_rank)

    def dup(self) -> "Comm":
        """Duplicate: same group, fresh context."""
        self._split_seq += 1
        _coll.barrier(self)
        ctx = self._transport.context_for_key((self._ctx, "dup", self._split_seq))
        return Comm(self._transport, ctx, self._group, self._world_rank)

    def create_sub(self, local_ranks: Sequence[int]) -> "Comm | None":
        """Create a subcommunicator from an explicit local-rank list.

        Collective over the parent.  Ranks not listed get ``None``.
        Every rank must pass the same list.
        """
        ranks = tuple(local_ranks)
        if len(set(ranks)) != len(ranks):
            raise CommError("duplicate ranks in create_sub")
        color = 0 if self._rank in ranks else None
        key = ranks.index(self._rank) if self._rank in ranks else 0
        return self.split(color, key)

    # ------------------------------------- ULFM-style failure mitigation -- #
    def failed_ranks(self) -> tuple[int, ...]:
        """Local ranks of members the transport knows are dead.

        The ULFM ``MPIX_Comm_failure_ack``/``get_acked`` analog: purely
        local, no communication.
        """
        dead = self._transport.dead_ranks()
        return tuple(l for l, w in enumerate(self._group) if w in dead)

    def revoke(self) -> None:
        """Revoke communication (``MPIX_Comm_revoke`` analog): wake every
        rank blocked in a p2p call with
        :class:`~repro.mpi.errors.CommRevokedError` so all survivors can
        converge on :meth:`agree`.  Purely local; never blocks."""
        self._transport.revoke()

    def agree(self, flag: bool = True) -> tuple[bool, tuple[int, ...]]:
        """Fault-tolerant agreement (``MPIX_Comm_agree`` analog).

        Collective over the *surviving* members.  Returns the same
        ``(all_ok, survivors)`` on every survivor: ``all_ok`` is true
        only when every member is alive and voted ``flag=True``;
        ``survivors`` is a consistent snapshot of the live members'
        *world* ranks, suitable for :meth:`shrink`.  Works while the
        world is revoked, and completing it lifts the revocation.
        """
        self._agree_seq += 1
        key = (self._ctx, "agree", self._agree_seq)
        return self._transport.agree(key, self._group, self._world_rank, flag)

    def shrink(self, survivors: Sequence[int] | None = None) -> "Comm":
        """A new communicator over the surviving members
        (``MPIX_Comm_shrink`` analog), preserving relative rank order.

        ``survivors`` (world ranks, e.g. straight from :meth:`agree`)
        pins the member snapshot so every caller builds the identical
        communicator even if more ranks die meanwhile; omitted, the
        transport's current dead set is consulted.  Must be called by
        every survivor; the caller must be one of them.
        """
        if survivors is not None:
            group = tuple(survivors)
        else:
            dead = self._transport.dead_ranks()
            group = tuple(w for w in self._group if w not in dead)
        if self._world_rank not in group:
            raise CommError(
                f"world rank {self._world_rank} not among survivors {group}"
            )
        self._shrink_seq += 1
        ctx = self._transport.context_for_key(
            (self._ctx, "shrink", self._shrink_seq, group)
        )
        return Comm(self._transport, ctx, group, self._world_rank)

    # ------------------------------------------------- simulated compute -- #
    def compute(self, flops: float) -> None:
        """Advance this rank's simulated clock by a compute interval."""
        self._transport.advance(
            self._world_rank, self._transport.machine.compute_time(flops), "compute"
        )

    def gemm_tick(self, m: int, n: int, k: int, itemsize: int = 8) -> None:
        """Charge simulated time for a local ``m x k @ k x n`` GEMM.

        In GPU mode this includes PCIe staging of the operands/result.
        """
        stage = (m * k + k * n + m * n) * itemsize
        dt = self._transport.machine.gemm_time(m, n, k, stage_bytes=stage)
        self._transport.advance(self._world_rank, dt, "compute")

    @contextlib.contextmanager
    def phase(self, name: str, **attrs) -> Iterator[None]:
        """Attribute enclosed traffic/time to a named phase (for breakdowns).

        When tracing is on (``record_events=True``) the phase also opens
        a :class:`~repro.obs.tracer.Span` carrying ``attrs`` plus the
        byte/message deltas measured over the region.
        """
        self._transport.push_phase(self._world_rank, name, attrs=attrs or None)
        try:
            yield
        finally:
            self._transport.pop_phase(self._world_rank)

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "user", **attrs) -> Iterator[None]:
        """Open a tracer span (no phase-stat redirection) over the region.

        A no-op unless the run was started with ``record_events=True``.
        Unlike :meth:`phase`, traffic counters keep charging the current
        phase; the span only records the interval and its deltas.
        """
        tr, rank = self._transport.tracer, self._world_rank
        sid = None if tr is None else tr.begin(rank, name, self.now(), cat, attrs)
        try:
            yield
        finally:
            if sid is not None:
                tr.end(rank, sid, self.now())

    def note_live_bytes(self, nbytes: int) -> None:
        """Report current live matrix bytes for peak-memory tracking.

        Self-reported (analytic) estimate; measured footprint goes
        through the memtrace API (:meth:`mem` / :meth:`mem_alloc` /
        :meth:`mem_free`).
        """
        self._transport.note_live_bytes(self._world_rank, nbytes)

    # ---------------------------------------------------------- memtrace -- #
    def mem_alloc(self, purpose: str, nbytes: int) -> None:
        """Charge tracked resident bytes to a tagged allocation span.

        ``purpose`` labels what the bytes are (``tile.a``,
        ``replicate.buf``, ``cannon.dblbuf``, ``abft.checksum``,
        ``ckpt.staging``, ...).  Every charge must be matched by a
        :meth:`mem_free` of the same purpose before the rank exits, or
        deliberately left live (output tiles) — the balance shows up in
        the rank trace's ``mem_live``.
        """
        self._transport.mem(self._world_rank, purpose, nbytes, "alloc")

    def mem_free(self, purpose: str, nbytes: int) -> None:
        """Release tracked resident bytes charged with :meth:`mem_alloc`."""
        self._transport.mem(self._world_rank, purpose, nbytes, "free")

    @contextlib.contextmanager
    def mem(self, purpose: str, nbytes: int) -> Iterator[None]:
        """Tagged allocation span: alloc on entry, free on exit.

        The bracketed bytes count toward this rank's resident watermark
        and the ``purpose``/phase high-water marks for the duration of
        the block (use for scratch whose lifetime is the block; use the
        explicit pair for buffers with non-lexical lifetimes).
        """
        self._transport.mem(self._world_rank, purpose, nbytes, "alloc")
        try:
            yield
        finally:
            self._transport.mem(self._world_rank, purpose, nbytes, "free")

    def now(self) -> float:
        """This rank's simulated clock, in seconds."""
        return self._transport.now(self._world_rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comm(rank={self._rank}, size={self.size}, ctx={self._ctx})"
