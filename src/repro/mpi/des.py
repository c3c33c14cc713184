"""Discrete-event scheduler that executes the ranks of a virtual MPI world.

This module keeps the rank *programs* exactly as they are — arbitrary
Python calling deep into the engines — but takes scheduling away from
the OS.  Each rank still owns a thread (its stack is where the program's
state lives), yet **at most one rank thread runs at any instant**: a
rank runs until it must block inside the transport, parks on its private
baton — a raw lock used as a binary semaphore, released by whoever
dispatches the rank — and hands the world to the runnable rank with the
*lowest virtual clock*.  The result is a single-threaded
discrete-event simulation in all but mechanism:

* event ordering is a pure function of the virtual clocks and each
  rank's program order — replays are byte-identical by construction,
  down to the raw ``events`` / ``msglog`` / ``memlog`` lists;
* a blocked world is recognised *structurally* (nothing runnable, not
  everything finished) and reported as
  :class:`~repro.mpi.errors.DeadlockError` immediately;
* wakeups are precise — a send readies exactly its receiver — so a
  1024-rank ``pdgemm`` simulation completes in seconds.

**Whoever owns the world holds the world lock.**  A strand takes it
when it is dispatched (after its baton) and drops it when it parks,
poll-yields or finishes; the driver takes it to sample or to act.  So
every read and write of transport, tracer and scheduler state happens
under that one lock, acquired once per scheduling slice, and nothing
outside this module ever takes a lock to touch the world.

Scheduling state machine:
``new → ready → running → {blocked, polling, finished}``; ``blocked``
ranks are readied by the transport's wake hooks (message posted to
them, agree vote recorded, world aborted, rank killed), ``polling``
ranks (a probe that found nothing) sit in a FIFO that is drained only
when the ready heap is empty, so a spin-probing rank cannot starve
ranks that have real work.  The ready heap is keyed
``(virtual clock, push order, rank)`` — the min-clock rank runs next,
which is exactly the event-heap order of a classical DES.

The driver thread only acts when no rank is runnable: it either
unsticks a revoked-and-quiescent world or declares a structural
deadlock.  The one wall-clock rule left is for pure probe-polling
livelocks, where ranks stay runnable but the world makes no virtual
progress for ``deadlock_timeout`` seconds.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from .errors import AbortError, DeadlockError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .transport import Transport

#: Scheduler states a rank strand moves through.
_NEW, _READY, _RUNNING, _BLOCKED, _POLLING, _FINISHED = (
    "new", "ready", "running", "blocked", "polling", "finished",
)


class DesScheduler:
    """Cooperative rank scheduler driving one transport's world.

    Every :class:`~repro.mpi.transport.Transport` owns one; it is idle
    until :func:`run_des` starts the strands.  The transport calls the
    ``wake_*`` hooks and ``park`` / ``poll_yield`` as the running strand,
    which owns the world from its dispatch to its park, so a
    park-then-wake can never be lost.
    """

    def __init__(self, transport: "Transport"):
        self.transport = transport
        self.nprocs = nprocs = transport.nprocs
        #: one baton per strand, held while it is parked and released by
        #: whoever dispatches it (a second dispatch is ``release``'s error).
        self._batons = [threading.Lock() for _ in range(nprocs)]
        for baton in self._batons:
            baton.acquire()
        #: the world lock: held by the running strand for its whole
        #: slice, by the driver while it samples or acts.
        self._world = threading.Lock()
        self._state = [_NEW] * nprocs
        #: why a blocked rank is parked: ``"recv"`` or ``"agree"``.
        self._why: list[str | None] = [None] * nprocs
        #: min-heap of (virtual clock at push, push counter, rank).
        self._ready: list[tuple[float, int, int]] = []
        self._push_counter = 0
        #: probe-miss yields, drained only when the ready heap is empty.
        self._polling: deque[int] = deque()
        self._running: int | None = None
        self._running_from_poll = False
        self._poll_resumes = 0
        self._finished_count = 0
        #: strands parked in an agree (``wake_agree`` scans iff > 0)
        self._agree_parked = 0
        #: set whenever no rank is runnable — the driver's turn to act.
        self.driver_evt = threading.Event()

    # ------------------------------------------------------- dispatching -- #
    def _pop_runnable(self) -> int | None:
        """Next rank to run: min-clock ready rank, else the oldest poller."""
        while self._ready:
            _, _, r = heapq.heappop(self._ready)
            if self._state[r] == _READY:
                self._running_from_poll = False
                return r
        while self._polling:
            r = self._polling.popleft()
            if self._state[r] == _POLLING:
                self._poll_resumes += 1
                self._running_from_poll = True
                return r
        return None

    def _dispatch(self) -> None:
        """Hand the world to the next runnable rank (or to the driver)."""
        r = self._pop_runnable()
        if r is None:
            self.driver_evt.set()
        else:
            self.dispatch_rank(r)

    def dispatch_rank(self, rank: int) -> None:
        """Resume a specific runnable rank: hand it its baton."""
        self._running = rank
        self._state[rank] = _RUNNING
        self._batons[rank].release()

    def make_ready(self, rank: int) -> None:
        if self._state[rank] in (_BLOCKED, _NEW):
            self._state[rank] = _READY
            if self._why[rank] == "agree":
                self._agree_parked -= 1
            self._why[rank] = None
            heapq.heappush(
                self._ready,
                (self.transport.ranks[rank].clock, self._push_counter, rank),
            )
            self._push_counter += 1

    # ------------------------------------------------------------ parking -- #
    def _own_world(self, rank: int) -> None:
        """Sleep until dispatched, then own the world for the slice."""
        self._batons[rank].acquire()
        self._world.acquire()

    def _handoff(self, rank: int) -> None:
        """Give up the world and sleep until dispatched again.

        The world lock is dropped only *after* the next rank (or the
        driver) has been chosen and signalled, so there is no window in
        which nobody owns the world.  A rank re-dispatched before it
        reaches its baton finds it free and just sails through.
        """
        self._running = None
        self._dispatch()
        self._world.release()
        self._own_world(rank)

    def park(self, rank: int, why: str) -> None:
        """Block ``rank`` until a wake hook readies it (recv/agree wait).

        Only the running strand may park.  A caller nobody dispatched (a
        plain thread on a transport :func:`run_des` is not driving) has
        no one to hand the world to and no one to wake it, so it gets
        the typed error instead of sleeping forever.
        """
        if self._running != rank:
            raise DeadlockError(
                {rank: self.transport.ranks[rank].waiting_on or "blocked"}
            )
        self._state[rank] = _BLOCKED
        self._why[rank] = why
        if why == "agree":
            self._agree_parked += 1
        self._handoff(rank)

    def poll_yield(self, rank: int) -> None:
        """Cooperative yield from a probe miss: stay runnable, go last.

        A caller nobody dispatched has no one to yield to and returns.
        """
        if self._running != rank:
            return
        self._state[rank] = _POLLING
        self._polling.append(rank)
        self._handoff(rank)

    # --------------------------------------------------------- wake hooks -- #
    def wake_recv(self, rank: int) -> None:
        """A message was posted (or dropped-and-held) for ``rank``."""
        if self._state[rank] == _BLOCKED and self._why[rank] == "recv":
            self.make_ready(rank)

    def wake_agree(self) -> None:
        """An agree vote/result or a finish changed the rendezvous state."""
        if not self._agree_parked:
            return
        for r in range(self.nprocs):
            if self._state[r] == _BLOCKED and self._why[r] == "agree":
                self.make_ready(r)

    def wake_all(self) -> None:
        """World-changing event (abort, kill): every blocked rank re-checks."""
        for r in range(self.nprocs):
            if self._state[r] == _BLOCKED:
                self.make_ready(r)

    # ------------------------------------------------------------ strands -- #
    def strand_main(self, rank: int, body: Callable[[int], None]) -> None:
        """Thread target for one rank strand."""
        self._own_world(rank)
        try:
            body(rank)
        finally:
            self._state[rank] = _FINISHED
            self._why[rank] = None
            self._finished_count += 1
            self._running = None
            self._dispatch()
            self._world.release()


def run_des(
    transport: "Transport",
    rank_body: Callable[[int], None],
    deadlock_timeout: float = 30.0,
) -> None:
    """Drive ``rank_body`` on every rank under the DES scheduler.

    Returns when every rank strand has finished; raises
    :class:`DeadlockError` (after aborting and draining the world) when
    the world blocks structurally or spins in a pure probe-poll loop
    with no virtual progress for ``deadlock_timeout`` wall seconds.
    """
    sched = transport.scheduler
    nprocs = transport.nprocs
    threads = [
        threading.Thread(
            target=sched.strand_main,
            args=(r, rank_body),
            name=f"vmpi-des-{r}",
            daemon=True,
        )
        for r in range(nprocs)
    ]
    for t in threads:
        t.start()
    with sched._world:
        for r in range(nprocs):
            sched.make_ready(r)
        sched._dispatch()

    poll = 0.05
    stall = 0.0
    last_progress = -1
    last_spins = -1
    deadlock: DeadlockError | None = None

    while True:
        if sched.driver_evt.wait(timeout=poll):
            sched.driver_evt.clear()
        pending_blocked: dict[int, str] | None = None
        with sched._world:
            if sched._finished_count == nprocs:
                break
            if sched._running is None:
                if (
                    transport.aborted is None
                    and transport.revoked
                    and transport._quiescent()
                ):
                    # Revocation unstick: every parked receiver re-checks;
                    # a deliverable message still wins, the rest unwind
                    # with CommRevokedError at their park clocks.
                    for rr in range(nprocs):
                        sched.wake_recv(rr)
                r = sched._pop_runnable()
                if r is not None:
                    # Nobody dispatches the ranks the driver readies — the
                    # unstick above, or the abort below on an earlier pass
                    # (the post-abort drain): resume the first of them.
                    sched.dispatch_rank(r)
                    stall = 0.0
                    continue
                if transport.aborted is not None:
                    # Post-abort the world must drain on its own; nothing
                    # runnable with unfinished strands is a scheduler bug.
                    raise RuntimeError(
                        "DES scheduler wedged after abort: "
                        f"states={sched._state!r}"
                    )
                if deadlock is None:
                    pending_blocked = {
                        rr: transport.ranks[rr].waiting_on or "blocked"
                        for rr in range(nprocs)
                        if sched._state[rr] == _BLOCKED
                    }
            else:
                # A rank is running: the only pathology reachable from
                # here is a probe-poll livelock (runnable pollers, no
                # virtual progress).  Long organic computes are exempt:
                # they are not poll resumes, so `spins` stays flat and
                # the stall counter resets.
                progress = transport.progress
                spins = sched._poll_resumes
                pure_polling = (
                    not sched._ready
                    and sched._running_from_poll
                    and all(
                        sched._state[rr] in (_POLLING, _BLOCKED, _FINISHED)
                        or rr == sched._running
                        for rr in range(nprocs)
                    )
                )
                if (
                    progress != last_progress
                    or spins == last_spins
                    or not pure_polling
                ):
                    stall = 0.0
                elif deadlock is None:
                    stall += poll
                    if stall >= deadlock_timeout:
                        pending_blocked = {
                            rr: (
                                transport.ranks[rr].waiting_on
                                or "polling (probe loop)"
                            )
                            for rr in range(nprocs)
                            if sched._state[rr] in (_POLLING, _BLOCKED)
                            or rr == sched._running
                        }
                last_progress = progress
                last_spins = spins
            if pending_blocked is not None:
                deadlock = DeadlockError(pending_blocked)
                # Wake everything, let the strands unwind with AbortError,
                # then re-raise the typed deadlock on the driver once the
                # world has drained.
                transport.abort(AbortError(-1, deadlock))

    for t in threads:
        t.join(timeout=5.0)
    if deadlock is not None:
        raise deadlock
