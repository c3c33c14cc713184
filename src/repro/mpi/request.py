"""Nonblocking request handles.

The virtual runtime copies payloads eagerly, so an ``isend`` buffer is
reusable the moment the call returns; what :meth:`Request.wait` models is
the *simulated* completion time.  A send request completes at
``issue_clock + α + β·n`` (overlappable with compute: if the rank's clock
has already passed that point, waiting is free).  A receive request
completes at the matched message's arrival time.  A collective request
(:class:`CollRequest`, returned by ``ibcast``/``iallgather``/
``ireduce_scatter``) completes when the rank's async comm engine drains
the collective's transfers; its ``wait`` charges only the uncovered
remainder ``max(0, t_complete - clock)``.

Matching for ``irecv`` happens at :meth:`wait` time (or at
:meth:`RecvRequest.resolve`, which :func:`wait_all`/:func:`wait_any` use
to learn completion times before charging any clock).  That is a
simplification relative to MPI (where posted receives participate in
matching immediately), but it is indistinguishable for the
deterministic, loss-free algorithms in this package and keeps the
transport simple.

Draining discipline: :func:`wait_all` first *resolves* every request in
list order (matching receives without touching the receiver's clock,
so per-pair FIFO order is preserved deterministically) and then charges
completions in ascending ``(completion_time, list index)`` order.  The
final clock is the max completion time either way, but arrival-ordered
charging never credits an early arrival with a later one's wait — the
historical list-order drain charged the whole wait to whichever request
happened to be first.  :func:`wait_any` returns the earliest-completing
request, leaving the rest matched but uncharged.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .datatypes import Status
from .errors import BufferError_


class Request:
    """Base request; concrete behaviour provided by subclasses."""

    def wait(self) -> Any:
        raise NotImplementedError

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check; ``(done, value_or_None)``.

        Never advances the caller's clock: a poll answers "done at the
        current virtual time?" and returns ``(False, None)`` otherwise.
        """
        raise NotImplementedError

    # -- draining protocol (wait_all / wait_any) ----------------------- #
    def resolve(self) -> None:
        """Learn the completion time without advancing any clock."""
        raise NotImplementedError

    @property
    def completion_time(self) -> float:
        """Simulated completion time; valid after :meth:`resolve`."""
        raise NotImplementedError

    def charge(self) -> Any:
        """Apply the completion to the owner's clock; returns the value."""
        raise NotImplementedError


class SendRequest(Request):
    def __init__(
        self,
        transport,
        world_rank: int,
        t_complete: float,
        nbytes: int = 0,
        peer: int = -1,
        seq: int = -1,
    ):
        self._transport = transport
        self._world_rank = world_rank
        self._t_complete = t_complete
        self._nbytes = nbytes
        self._peer = peer
        self._seq = seq
        self._done = False

    def resolve(self) -> None:
        pass  # the completion time was fixed at post

    @property
    def completion_time(self) -> float:
        return self._t_complete

    def charge(self) -> None:
        if not self._done:
            self._transport.raise_clock(
                self._world_rank, self._t_complete,
                event_kind="send", nbytes=self._nbytes, peer=self._peer,
                seq=self._seq,
            )
            self._done = True
        return None

    def wait(self) -> None:
        self.charge()

    def test(self) -> tuple[bool, Any]:
        # Eager copies make the buffer immediately reusable, but the
        # *simulated* transfer is done only once the rank's clock has
        # passed t_complete.  Polling must not jump time forward.
        if self._done:
            return True, None
        if self._transport.now(self._world_rank) >= self._t_complete:
            # Fully covered already: completing charges nothing.
            self.charge()
            return True, None
        return False, None


class RecvRequest(Request):
    def __init__(
        self,
        transport,
        ctx: int,
        dst_world: int,
        src_world: int,
        tag: int,
        buf: np.ndarray | None,
        to_local: Callable[[int], int],
    ):
        self._transport = transport
        self._ctx = ctx
        self._dst_world = dst_world
        self._src_world = src_world
        self._tag = tag
        self._buf = buf
        self._to_local = to_local
        self._done = False
        self._value: Any = None
        self._msg = None
        self._mstatus = None
        self.status = Status()

    def _finish(self, msg, status) -> Any:
        value = msg.unpack()
        self.status = Status(
            source=self._to_local(status.source), tag=status.tag, nbytes=status.nbytes
        )
        if self._buf is not None:
            arr = np.asarray(value)
            if self._buf.size != arr.size:
                raise BufferError_(
                    f"irecv buffer size {self._buf.size} != message size {arr.size}"
                )
            self._buf.reshape(-1)[:] = arr.reshape(-1)
            value = self._buf
        self._done = True
        self._value = value
        return value

    def resolve(self) -> None:
        """Match the message (blocking in real time, not virtual time)
        without raising the receiver's clock."""
        if self._done or self._msg is not None:
            return
        self._msg, self._mstatus = self._transport.match_recv(
            self._ctx, self._dst_world, self._src_world, self._tag,
            advance_receiver=False,
        )

    @property
    def completion_time(self) -> float:
        if self._msg is None:
            raise RuntimeError("completion_time before resolve()")
        return self._msg.arrival

    def charge(self) -> Any:
        if self._done:
            return self._value
        if self._msg is None:
            raise RuntimeError("charge() before resolve()")
        self._transport.raise_clock(
            self._dst_world, self._msg.arrival,
            event_kind="recv", nbytes=self._mstatus.nbytes,
            peer=self._msg.src_world, seq=self._msg.seq,
        )
        return self._finish(self._msg, self._mstatus)

    def wait(self) -> Any:
        if self._done:
            return self._value
        if self._msg is not None:
            return self.charge()
        msg, status = self._transport.match_recv(
            self._ctx, self._dst_world, self._src_world, self._tag
        )
        return self._finish(msg, status)

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, self._value
        st = self._transport.probe(self._ctx, self._dst_world, self._src_world, self._tag)
        if st is None:
            return False, None
        return True, self.wait()


class CollRequest(Request):
    """A nonblocking collective in flight on the async comm engine.

    The collective's data movement already happened at post time (the
    whole algorithm ran on the rank's comm timeline); what remains is
    the time accounting: :meth:`wait` charges the uncovered remainder
    ``max(0, t_complete - clock)`` to the rank and books the covered
    part as hidden communication (``PhaseStats.comm_covered_time``).
    """

    def __init__(self, transport, world_rank: int, t_start: float,
                 t_complete: float, value: Any):
        self._transport = transport
        self._world_rank = world_rank
        self._t_start = t_start
        self._t_complete = t_complete
        self._value = value
        self._done = False

    def resolve(self) -> None:
        pass  # completion time fixed when the engine drained the algorithm

    @property
    def completion_time(self) -> float:
        return self._t_complete

    def charge(self) -> Any:
        if not self._done:
            self._transport.async_wait(
                self._world_rank, self._t_start, self._t_complete
            )
            self._done = True
        return self._value

    def wait(self) -> Any:
        return self.charge()

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, self._value
        if self._transport.now(self._world_rank) >= self._t_complete:
            return True, self.charge()
        return False, None


def wait_all(requests: list[Request]) -> list[Any]:
    """Wait on every request; values returned in request order.

    Resolves every request first (matching receives in list order,
    without clock movement), then charges completions in ascending
    ``(completion_time, index)`` order so an early arrival is never
    billed a later arrival's wait.  Deterministic in virtual time.
    """
    for r in requests:
        r.resolve()
    order = sorted(
        range(len(requests)), key=lambda i: (requests[i].completion_time, i)
    )
    out: list[Any] = [None] * len(requests)
    for i in order:
        out[i] = requests[i].charge()
    return out


def wait_any(requests: list[Request]) -> tuple[int, Any]:
    """Complete the earliest-finishing request; ``(index, value)``.

    The other requests stay matched but uncharged — their ``wait()``
    (or a later :func:`wait_all`) settles them.
    """
    if not requests:
        raise ValueError("wait_any on an empty request list")
    for r in requests:
        r.resolve()
    idx = min(
        range(len(requests)), key=lambda i: (requests[i].completion_time, i)
    )
    return idx, requests[idx].charge()
