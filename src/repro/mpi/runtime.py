"""SPMD launcher for the virtual MPI world.

:func:`run_spmd` plays the role of ``mpiexec``: it hands every rank a
world :class:`~repro.mpi.comm.Comm`, runs the user's rank function, and
collects per-rank return values plus the transport's traffic traces.

Ranks execute under the discrete-event scheduler (:mod:`repro.mpi.des`):
at most one rank runs at a time, chosen by virtual clock, and a world
with nothing runnable is reported as
:class:`~repro.mpi.errors.DeadlockError` at once.  Runs are
replay-deterministic by construction and scale to thousands of ranks.
Rank ``r`` of every world runs on the same pooled OS thread, so a
process can run world after world without starting a thread or growing
its heap; ``threading.local`` values outlive a world, ``contextvars``
do not.

Failure handling mirrors a batch MPI job: the first rank to raise
aborts the world (all blocked ranks are woken with
:class:`~repro.mpi.errors.AbortError`) and the original exception is
re-raised on the driver thread.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..args import amount, count
from ..machine.model import MachineModel
from ..obs.tracer import Span, Tracer
from .comm import Comm
from .des import run_des
from .errors import AbortError, RankKilledError
from .faults import FaultPlan
from .transport import RankTrace, Transport

#: Context id of the world communicator.
WORLD_CTX = 0

@dataclass
class SpmdResult:
    """Everything the driver gets back from an SPMD run."""

    results: list[Any]  #: per-rank return values of the rank function
    traces: list[RankTrace]  #: per-rank traffic/clock traces
    transport: Transport  #: the (now idle) transport, for inspection

    @property
    def time(self) -> float:
        """Simulated makespan: the maximum rank clock."""
        return max((t.time for t in self.traces), default=0.0)

    @property
    def tracer(self) -> Tracer:
        """What the run recorded (``events``, ``msglog``, ``memlog``,
        spans): its tracer, or an empty one without ``record_events``."""
        tracer = self.transport.tracer
        return tracer if tracer is not None else Tracer()

    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    @property
    def metrics(self):
        """Lazily-built :class:`~repro.obs.metrics.RunMetrics` snapshot."""
        cached = getattr(self, "_metrics_cache", None)
        if cached is None:
            from ..obs.metrics import snapshot_run

            cached = self._metrics_cache = snapshot_run(self)
        return cached

    @property
    def failed_ranks(self) -> list[int]:
        """World ranks killed by injected permanent failures, sorted."""
        return sorted(self.transport.dead_ranks())

    @property
    def live_traces(self) -> list[RankTrace]:
        """Traces of surviving ranks only (dead ranks' clocks stopped at
        the kill point and would skew overlap/imbalance numbers)."""
        dead = self.transport.dead_ranks()
        if not dead:
            return self.traces
        return [t for t in self.traces if t.rank not in dead]

    @property
    def max_bytes_sent(self) -> int:
        """The paper's Q metric (in bytes): max over ranks of bytes sent."""
        return max((t.bytes_sent for t in self.traces), default=0)

    @property
    def max_msgs_sent(self) -> int:
        """The paper's L metric: max over ranks of messages sent."""
        return max((t.msgs_sent for t in self.traces), default=0)

    @property
    def total_bytes(self) -> int:
        return sum(t.bytes_sent for t in self.traces)


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    machine: MachineModel | None = None,
    deadlock_timeout: float = 30.0,
    record_events: bool = False,
    faults: FaultPlan | None = None,
    backend: str | None = None,
) -> SpmdResult:
    """Run ``fn(comm, *args)`` on ``nprocs`` virtual ranks.

    Parameters
    ----------
    nprocs:
        World size: a count (docs/API.md, "Argument contract"), checked
        with ``deadlock_timeout`` before any rank starts.
    backend:
        Compatibility keyword from when there were two schedulers; it
        selects nothing.  ``None`` and ``"des"`` are accepted, anything
        else raises :class:`ValueError`.
    fn:
        The per-rank entry point; called as ``fn(comm, *args)`` on every
        rank.  Its return value is collected into ``results[rank]``.
    args:
        Extra positional arguments, identical on every rank.
    machine:
        Cost model; defaults to :class:`~repro.machine.model.MachineModel`.
    deadlock_timeout:
        Wall-clock seconds a pure probe-polling loop may spin without
        virtual progress before the run is aborted as deadlocked: an
        amount > 0.  Blocked worlds are detected structurally and
        do not wait for it.
    record_events:
        Build the world's :class:`~repro.obs.tracer.Tracer`
        (``result.tracer``): per-rank simulated-time intervals, one
        record per message, the memory timeline and spans — what
        timeline rendering, the critical path and the exporters read.
    faults:
        Optional deterministic :class:`~repro.mpi.faults.FaultPlan` the
        transport consults to perturb messages and ranks
        (:mod:`repro.mpi.faults`).  A rank that exhausts its retry
        budget (:class:`~repro.mpi.errors.RecvTimeoutError`) or hits a
        scripted abort (:class:`~repro.mpi.errors.InjectedAbortError`)
        fails the job exactly like an organic rank error: every live
        rank is woken with :class:`~repro.mpi.errors.AbortError` and the
        typed original is re-raised (chained) on the driver thread.

        A permanent kill (``RankFault(kill=True)``) is different: the
        killed rank's strand just ends (its result stays ``None``), its
        thread goes back to the pool, and the world keeps running.  Survivors that touch the dead rank see
        :class:`~repro.mpi.errors.RankFailedError`, which — absent a
        recovery driver (:func:`repro.ft.resilient_multiply`) — aborts
        the world like any other rank error.
    """
    nprocs = count("nprocs", nprocs)
    deadlock_timeout = amount("deadlock_timeout", deadlock_timeout, positive=True)
    if backend not in (None, "des"):
        raise ValueError(
            f"backend={backend!r}: the DES scheduler is the only way to run "
            "ranks since PR 13 (the threads runner was deleted); omit the "
            "keyword"
        )
    transport = Transport(nprocs, machine, record_events=record_events, faults=faults)
    results: list[Any] = [None] * nprocs
    errors: list[tuple[int, BaseException, str]] = []

    # One group tuple shared by every rank: ``Comm`` copies any other
    # sequence, O(P) per rank and P^2 words per world.
    world = tuple(range(nprocs))

    def rank_body(rank: int) -> None:
        comm = Comm(transport, WORLD_CTX, world, rank)
        try:
            results[rank] = fn(comm, *args)
        except AbortError:
            # Secondary casualty of another rank's failure: its spans
            # died with it, so reclaim them from the leak table.
            transport.release_rank_memory(rank)
        except RankKilledError:
            # Injected permanent death: the rank ends, the world keeps
            # going, and whatever it held allocated is gone with it.
            transport.release_rank_memory(rank)
        except BaseException as exc:  # noqa: BLE001 - must not die silently
            errors.append((rank, exc, traceback.format_exc()))
            transport.release_rank_memory(rank)
            transport.abort(AbortError(rank, exc))
        finally:
            # Tell the transport this rank can never post again, so the
            # revocation quiescence check stops waiting on it.
            transport.mark_finished(rank)

    run_des(transport, rank_body, deadlock_timeout=deadlock_timeout)

    if errors:
        errors.sort(key=lambda e: e[0])
        rank, exc, tb = errors[0]
        raise RuntimeError(
            f"rank {rank} failed in SPMD run:\n{tb}"
        ) from exc

    return SpmdResult(results=results, traces=transport.traces(), transport=transport)

