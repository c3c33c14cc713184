"""When to checkpoint: every N calls, every T virtual seconds, or both.

``due`` must be called by every rank of the pipeline communicator in
lockstep: the call-count trigger is decided from replicated arguments
(purely local), but the time trigger needs one collective — an
``allreduce(MAX)`` of the ranks' simulated clocks — so that every rank
reaches the same verdict even though their virtual clocks differ.
Deciding from the *local* clock would let ranks disagree about whether a
checkpoint is due, which deadlocks the ensuing barrier; this is the same
class of bug as the wall-clock failure detection fixed in the ft layer
(docs/RECOVERY.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import args
from ..mpi.comm import Comm
from ..mpi.datatypes import MAX


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint cadence for :func:`repro.ckpt.run_pipeline`.

    Parameters
    ----------
    every_calls:
        Checkpoint after every N pipeline steps (``1`` = after each
        step).  ``None`` or ``0`` disables the call-count trigger.
    every_virtual_s:
        Checkpoint when at least this much *simulated* time (> 0) has
        passed since the last checkpoint.  ``None`` disables the time
        trigger.
        This is a collective trigger (one small allreduce per step).
    full_interval:
        Force every Nth published checkpoint to be a full snapshot
        instead of a dirty-matrix delta.  ``0`` (the default) writes a
        full snapshot only where correctness demands one: the first
        checkpoint of a chain and the first after a communicator
        change — every other checkpoint stores just the matrices the
        intervening steps touched.
    """

    every_calls: int | None = 1
    every_virtual_s: float | None = None
    full_interval: int = 0

    def __post_init__(self) -> None:
        if self.every_calls is not None:
            object.__setattr__(self, "every_calls", args.count("every_calls", self.every_calls, 0))
        object.__setattr__(self, "every_virtual_s",
                           args.cap("every_virtual_s", self.every_virtual_s, positive=True))
        object.__setattr__(self, "full_interval",
                           args.count("full_interval", self.full_interval, 0))

    def global_now(self, comm: Comm) -> float:
        """The world's virtual time: max of the members' clocks."""
        return float(comm.allreduce(np.array([comm.now()]), MAX)[0])

    def due(self, step_index: int, comm: Comm, t_last: float = 0.0) -> bool:
        """Is a checkpoint due after completing ``step_index``?

        Collective over ``comm`` when the time trigger is enabled; every
        rank must call it with the same ``step_index`` and ``t_last``.
        """
        if self.every_calls and (step_index + 1) % self.every_calls == 0:
            return True
        if self.every_virtual_s is not None:
            return self.global_now(comm) - t_last >= self.every_virtual_s
        return False
