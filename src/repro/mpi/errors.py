"""Exception types for the virtual MPI runtime.

The virtual runtime mirrors the error behaviour of a hosted MPI: misuse of
the API (bad ranks, mismatched buffers) raises immediately on the calling
rank, while a global stall (every live rank blocked with no message able to
satisfy any of them) is detected structurally by the scheduler and surfaced
as a :class:`DeadlockError` on the driver thread.
"""

from __future__ import annotations


class VMpiError(Exception):
    """Base class for all virtual-MPI errors."""


class RankError(VMpiError):
    """An operation referenced a rank outside the communicator."""


class TagError(VMpiError):
    """An operation used an invalid tag value."""


class BufferError_(VMpiError):
    """A receive buffer did not match the incoming message."""


class CommError(VMpiError):
    """A communicator was used incorrectly (e.g. after being freed)."""


class DeadlockError(VMpiError):
    """No rank is runnable and not every rank has finished.

    Carries the set of blocked ranks and what each was waiting for, which
    is usually enough to spot a mismatched send/recv pair.
    """

    def __init__(self, blocked: dict[int, str]):
        self.blocked = dict(blocked)
        detail = ", ".join(f"rank {r}: {w}" for r, w in sorted(blocked.items()))
        super().__init__(f"virtual MPI deadlock; blocked ranks: {detail}")


class AbortError(VMpiError):
    """Raised inside ranks when another rank has failed and the job aborts."""

    def __init__(self, origin_rank: int, cause: BaseException | None = None):
        self.origin_rank = origin_rank
        self.cause = cause
        super().__init__(
            f"virtual MPI job aborted (first failure on rank {origin_rank})"
        )


class RecvTimeoutError(VMpiError, TimeoutError):
    """A receive exhausted its fault-plan retry budget on a dropped message.

    Raised on the *receiving* rank when a message the transport knows
    was dropped (fault injection) has timed out more times than the
    plan's :class:`~repro.mpi.faults.RetryPolicy` allows; the runtime
    then aborts every other live rank with :class:`AbortError`.  Never
    raised without an active fault plan — organic stalls remain the
    scheduler's :class:`DeadlockError`.
    """

    def __init__(
        self,
        rank: int,
        src: int,
        tag: int,
        attempts: int,
        waited_s: float,
    ):
        self.rank = rank
        self.src = src
        self.tag = tag
        self.attempts = attempts
        self.waited_s = waited_s
        super().__init__(
            f"rank {rank} recv from {src} (tag {tag}) timed out after "
            f"{attempts} attempt(s), {waited_s:.6g}s simulated wait; "
            f"retry budget exhausted"
        )


class InjectedAbortError(VMpiError):
    """A scripted fatal fault (``RankFault(abort=True)``) fired on a rank."""

    def __init__(self, rank: int, phase: str, occurrence: int):
        self.rank = rank
        self.phase = phase
        self.occurrence = occurrence
        super().__init__(
            f"injected abort on rank {rank} at entry #{occurrence} "
            f"of phase {phase!r}"
        )


class RankKilledError(VMpiError):
    """An injected permanent failure (``RankFault(kill=True)``) fired.

    Unlike :class:`InjectedAbortError`, a kill does *not* abort the
    world: the rank is marked dead on the transport and its thread
    simply ends.  Survivors that touch the dead rank see
    :class:`RankFailedError` (ULFM's ``MPI_ERR_PROC_FAILED`` analog)
    and may recover via ``Comm.revoke``/``agree``/``shrink``
    (see :mod:`repro.ft`).
    """

    def __init__(self, rank: int, phase: str, occurrence: int):
        self.rank = rank
        self.phase = phase
        self.occurrence = occurrence
        super().__init__(
            f"injected permanent failure of rank {rank} at entry "
            f"#{occurrence} of phase {phase!r}"
        )


class RankFailedError(VMpiError):
    """An operation touched a rank the transport knows is dead.

    The ULFM ``MPI_ERR_PROC_FAILED`` analog: raised on the *calling*
    rank when it sends to, or waits on a receive from, a rank killed by
    a ``RankFault(kill=True)`` rule.  Without a recovery driver this
    propagates like any rank error and aborts the world; with one
    (:func:`repro.ft.resilient_multiply`) it triggers
    revoke-agree-shrink recovery instead.
    """

    def __init__(self, rank: int, failed: int, op: str = "recv"):
        self.rank = rank
        self.failed = failed
        self.op = op
        super().__init__(
            f"rank {rank} {op} involving failed rank {failed}"
        )


class CommRevokedError(VMpiError):
    """Communication was revoked pending survivor agreement.

    The ULFM ``MPI_ERR_REVOKED`` analog: after a failure is detected,
    the first detector revokes the world (``Comm.revoke``) so every
    rank still blocked in — or about to enter — a communication call
    unblocks with this error and can join the recovery protocol.  The
    revocation is cleared when a ``Comm.agree`` completes.
    """

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(
            f"communication revoked (observed on rank {rank}); "
            f"join agreement to recover"
        )
