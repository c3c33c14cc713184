"""Checkpoint/restart for multi-call CA3DMM pipelines.

The ft layer (:mod:`repro.ft`) recovers *one* multiplication: buddy
backups resurrect the operands, partial-result reuse salvages the
surviving k-groups.  Real consumers, though, run *pipelines* — SCF
loops, purification sequences, subspace iterations — where a failure in
call 7 of 40 must not force recomputing calls 1-6.  This module adds the
missing layer: snapshot the pipeline's carried state to a
:class:`~repro.ckpt.store.CheckpointStore` on a
:class:`~repro.ckpt.policy.CheckpointPolicy` cadence, and on failure
shrink the world and resume from the newest manifest instead of from
scratch.

Two failure paths compose with the ft layer:

* **Escaped failure** (non-resilient step, or a resilient step that ran
  out of in-call recovery budget and re-raised): the error unwinds into
  :func:`run_pipeline`, which revokes, agrees on the survivors, shrinks,
  and calls :func:`restart` — the grid is re-planned for the surviving
  process count and the restored tiles are redistributed through the
  ``Explicit`` layout machinery on the next engine call.
* **In-call recovery** (a resilient step healed itself): the step
  returns its outputs on a *shrunk* communicator.  The pipeline detects
  the communicator change and rebases the carried state (matrices the
  step did not return) from the newest checkpoint onto the new
  communicator, keeping the step's freshly computed outputs.

A checkpoint only exists once its manifest is published, and the
manifest is written by rank 0 *after* a barrier proves every rank's
tiles landed — so a kill mid-checkpoint leaves the previous checkpoint
as the restart point, never a torn one.

Checkpoints are *incremental*: the pipeline tracks which matrices each
step touched and, once a full snapshot anchors the chain, later
checkpoints store only the dirty matrices.  Dirty tiles are snapshotted
into a write-behind buffer the moment the step that produced them
completes — on the virtual clock, charged to the ``ckpt.writebehind``
memtrace purpose so the eq. (11) footprint gate stays exact — and the
barrier+manifest protocol is retained only as the cheap commit point
that drains the buffer.  A delta manifest still describes every carried
matrix; per-matrix ``stored_in`` pointers name the checkpoint whose
payloads back the unchanged ones, so restart replays from any mix of
full and delta manifests without walking the chain.  A communicator
change (restart or in-call recovery) always forces the next checkpoint
full: stored payloads and manifest rect lists therefore always agree on
the rank count.

Checkpoint ids are minted from the *virtual* clock (allreduce-MAX of
the member clocks), so identical faulted runs produce byte-identical
checkpoint histories — the determinism contract of docs/RECOVERY.md
extends through this layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..ft.errors import UnrecoverableError
from ..layout.blocks import Rect
from ..layout.distributions import Explicit
from ..layout.matrix import DistMatrix
from ..mpi.comm import Comm
from ..mpi.errors import CommRevokedError, RankFailedError, RankKilledError
from .manifest import build_manifest, validate_manifest
from .policy import CheckpointPolicy
from .store import CheckpointError, CheckpointStore

#: Pipeline state: named distributed matrices carried between steps.
State = dict[str, DistMatrix]


@dataclass(frozen=True)
class PipelineStep:
    """One call of a multi-call pipeline.

    ``fn(comm, state) -> updates`` computes on the current communicator
    and returns a dict of the matrices it produced *or changed*; the
    pipeline merges the updates into the carried state.  Steps must
    return every matrix they modify — the checkpoint layer assumes
    anything not returned is unchanged since the last checkpoint.

    ``flops`` (the step's useful arithmetic) feeds the
    ``reused_flops`` accounting: work a restart did *not* redo because a
    checkpoint preserved it.
    """

    name: str
    fn: Callable[[Comm, State], State]
    flops: float = 0.0


@dataclass
class PipelineResult:
    """What :func:`run_pipeline` hands back."""

    state: State  #: final carried state (on ``comm``)
    comm: Comm  #: the communicator the pipeline finished on
    restarts: int = 0  #: pipeline-level restarts (not in-call recoveries)
    checkpoints: list[str] = field(default_factory=list)  #: published ckpt ids


class _WriteBehind:
    """Per-rank write-behind buffer for incremental checkpoints.

    ``stage`` snapshots a dirty matrix's tiles the moment the step that
    produced them completes — on the virtual clock, not at commit time —
    and charges the copies to the ``ckpt.writebehind`` memtrace purpose
    so the eq. (11) footprint gate sees them for exactly as long as they
    are resident.  :func:`save_checkpoint` later flushes the snapshots
    to the store and ``drain``s the buffer once the commit barrier
    proves them durable.  ``forget`` abandons the buffer *without*
    releasing the charge — the transport already auto-freed this rank's
    open spans when it was killed, so freeing again would double-count.
    """

    def __init__(self) -> None:
        self._staged: dict[str, tuple[int, list[tuple[Rect, np.ndarray]]]] = {}

    def stage(self, comm: Comm, name: str, mat: DistMatrix) -> None:
        self.discard(comm, name)
        copied = [
            (rect, np.array(tile, copy=True))
            for rect, tile in zip(mat.owned_rects, mat.tiles)
        ]
        nbytes = sum(t.nbytes for _r, t in copied)
        comm.mem_alloc("ckpt.writebehind", nbytes)
        self._staged[name] = (nbytes, copied)

    def has(self, name: str) -> bool:
        return name in self._staged

    def tiles(self, name: str, mat: DistMatrix) -> list[tuple[Rect, np.ndarray]]:
        """The snapshot to persist for ``name`` (live tiles if unstaged)."""
        if name in self._staged:
            return self._staged[name][1]
        return list(zip(mat.owned_rects, mat.tiles))

    def discard(self, comm: Comm, name: str) -> None:
        entry = self._staged.pop(name, None)
        if entry is not None:
            comm.mem_free("ckpt.writebehind", entry[0])

    def drain(self, comm: Comm) -> None:
        for name in list(self._staged):
            self.discard(comm, name)

    def forget(self) -> None:
        self._staged.clear()


def save_checkpoint(
    comm: Comm,
    store: CheckpointStore,
    step: int,
    step_name: str,
    state: State,
    *,
    kind: str = "full",
    dirty: set[str] | None = None,
    homes: dict[str, str] | None = None,
    writebehind: _WriteBehind | None = None,
) -> tuple[str, float]:
    """Checkpoint ``state`` to ``store``; collective over ``comm``.

    Returns ``(ckpt_id, t_virtual)``.  The id embeds the world's virtual
    time so the store's key space is replay-deterministic.  The manifest
    is published by rank 0 only after a barrier proves every rank's
    tiles landed; a failure before that leaves no trace of this
    checkpoint.

    ``kind="delta"`` persists only the matrices in ``dirty``; the rest
    are manifested with ``stored_in`` pointers into ``homes`` (the map
    from matrix name to the checkpoint id whose payloads still back
    it).  Dirty tiles come from the ``writebehind`` buffer when one is
    supplied — the snapshots taken when the producing step finished —
    and the buffer is drained only after the durability barrier, so the
    ``ckpt.writebehind`` charge covers the bytes' whole residency.
    """
    t = CheckpointPolicy().global_now(comm)
    ckpt_id = f"step{step:04d}-t{t:.9f}"
    written = sorted(state) if kind == "full" else sorted(dirty or ())
    with comm.span("ckpt_save", cat="ckpt", step=step, ckpt_id=ckpt_id,
                   kind=kind, matrices=len(written)):
        if kind == "full" and writebehind is not None:
            # A full snapshot rewrites everything synchronously; any
            # staged deltas are superseded before they ever flush.
            writebehind.drain(comm)
        staged_names = [
            n for n in written
            if writebehind is not None and writebehind.has(n)
        ]
        # The store copies every tile on the way in; synchronous staging
        # copies live until the tiles are durable (the barrier below).
        # Write-behind snapshots are already charged (ckpt.writebehind).
        staging = sum(
            t.nbytes for name in written if name not in staged_names
            for t in state[name].tiles
        )
        with comm.mem("ckpt.staging", staging):
            for name in written:
                mat = state[name]
                tiles = (
                    writebehind.tiles(name, mat) if writebehind is not None
                    else list(zip(mat.owned_rects, mat.tiles))
                )
                store.put_tiles(ckpt_id, name, comm.rank, tiles)
            comm.barrier()  # all tiles durable before the manifest publishes
        if writebehind is not None:
            writebehind.drain(comm)  # durable: release the staged snapshots
        if comm.rank == 0:
            store.put_manifest(build_manifest(
                ckpt_id, step, step_name, t, comm.size, state,
                kind=kind,
                stored_in={
                    name: (homes or {}).get(name, ckpt_id)
                    for name in state if name not in written
                },
            ))
        comm.barrier()  # manifest visible before anyone races ahead
    return ckpt_id, t


def restart(
    comm: Comm,
    store: CheckpointStore,
    manifest: dict | None = None,
) -> tuple[State, int]:
    """Rebuild pipeline state from a checkpoint onto ``comm``.

    ``comm`` may have a *different* (typically smaller) size than the
    world that wrote the checkpoint: each old rank ``r``'s tiles are
    dealt round-robin to new rank ``r % comm.size`` via an ``Explicit``
    distribution, and the next engine call redistributes them into its
    planned layout — no resize-aware store format needed.

    Delta manifests restore transparently: each matrix's payload is
    fetched from its ``stored_in`` checkpoint (its own id when absent),
    so a full+delta chain replays from the newest manifest alone.

    Returns ``(state, next_step)`` where ``next_step`` is the index of
    the first step that still has to run.
    """
    man = manifest if manifest is not None else store.latest_manifest()
    if man is None:
        raise CheckpointError("restart requested but the store holds no "
                              "checkpoint manifest")
    validate_manifest(man)
    old_n = int(man["nranks"])
    with comm.span("ckpt_restore", cat="ckpt", ckpt_id=man["ckpt_id"],
                   old_nranks=old_n, new_nranks=comm.size):
        state: State = {}
        for name in sorted(man["matrices"]):
            info = man["matrices"][name]
            mapping: dict[int, list[Rect]] = {}
            for new_rank in range(comm.size):
                rects: list[Rect] = []
                for old in range(new_rank, old_n, comm.size):
                    rects.extend(
                        Rect(*r) for r in info["rects"].get(str(old), [])
                    )
                mapping[new_rank] = rects
            home = info.get("stored_in", man["ckpt_id"])
            tiles = []
            for old in range(comm.rank, old_n, comm.size):
                tiles.extend(
                    tile for _rect, tile
                    in store.get_tiles(home, name, old)
                )
            # Restored tiles are store-made copies; charge the read-back
            # staging window until the matrix takes ownership.
            with comm.mem("ckpt.staging", sum(t.nbytes for t in tiles)):
                dist = Explicit.from_mapping(
                    (int(info["shape"][0]), int(info["shape"][1])),
                    comm.size, mapping,
                )
                state[name] = DistMatrix(comm, dist, tiles, dtype=info["dtype"])
    return state, int(man["step"]) + 1


def _rebase(
    new_comm: Comm,
    store: CheckpointStore | None,
    state: State,
    updates: State,
) -> State:
    """Re-home the carried state after an in-call recovery shrank the comm.

    The step's ``updates`` already live on ``new_comm``; every carried
    matrix the step did not return is reloaded from the newest
    checkpoint (its tiles survive in the store even though some of their
    old owners are dead).
    """
    carried = [name for name in state if name not in updates]
    out: State = {}
    if carried:
        if store is None or store.latest_manifest() is None:
            raise CheckpointError(
                "a step recovered onto a shrunk communicator but no "
                "checkpoint holds the carried state "
                f"{carried}; run the pipeline with a store and a policy "
                "that checkpoints every call"
            )
        restored, _next = restart(new_comm, store)
        missing = [name for name in carried if name not in restored]
        if missing:
            raise CheckpointError(
                f"carried state {missing} is not in the latest checkpoint"
            )
        out = {name: restored[name] for name in carried}
    out.update(updates)
    return out


def run_pipeline(
    comm: Comm,
    steps: list[PipelineStep],
    init: Callable[[Comm], State],
    *,
    store: CheckpointStore | None = None,
    policy: CheckpointPolicy | None = None,
    max_restarts: int = 2,
    resume: bool = False,
) -> PipelineResult:
    """Run ``steps`` with checkpoint/restart; collective over ``comm``.

    ``init(comm)`` builds the initial state (step 0's inputs).  With a
    ``store`` and ``policy``, completed steps are checkpointed on the
    policy's cadence; a failure that escapes a step shrinks the world
    and resumes from the newest checkpoint (or from ``init`` if none was
    published yet).  ``resume=True`` starts from the store's newest
    checkpoint instead of ``init`` — the cross-run restart path, e.g.
    with a :class:`~repro.ckpt.store.DirStore` from a previous process.

    The first checkpoint of a chain — and the first after any
    communicator change — is a full snapshot; later ones are deltas
    holding only the matrices the intervening steps returned, staged
    through the write-behind buffer (module docstring).  The policy's
    ``full_interval`` can force periodic re-anchoring.

    Raises :class:`~repro.ft.errors.UnrecoverableError` when the restart
    budget is exhausted or a failure hits a single-rank communicator.
    """
    cur = comm
    restarts = 0
    ckpt_ids: list[str] = []
    t_last = 0.0
    wb = _WriteBehind()
    dirty: set[str] = set()  # matrices touched since the last checkpoint
    homes: dict[str, str] = {}  # matrix -> ckpt id backing its payload
    force_full = True
    since_full = 0
    if resume and store is not None and store.latest_manifest() is not None:
        state, i = restart(cur, store)
    else:
        state, i = init(cur), 0
    while i < len(steps):
        step = steps[i]
        try:
            with cur.phase("ckpt_step", step=i, step_name=step.name):
                updates = step.fn(cur, state)
            # A resilient step may have healed an in-call failure by
            # shrinking the communicator under us; its outputs then live
            # on the new comm and the carried state must follow.
            new_comm = next(
                (
                    mat.comm for mat in updates.values()
                    if getattr(mat, "comm", cur) is not cur
                ),
                None,
            )
            if new_comm is not None:
                # Staged snapshots belong to the old world; the next
                # checkpoint is a full snapshot on the new one.
                wb.drain(cur)
                state = _rebase(new_comm, store, state, updates)
                cur = new_comm
                dirty.clear()
                homes.clear()
                force_full = True
            else:
                state = {**state, **updates}
                if store is not None and policy is not None:
                    for name in sorted(updates):
                        wb.stage(cur, name, state[name])
                    dirty |= set(updates)
            done = i
            i += 1
            if (
                store is not None
                and policy is not None
                and policy.due(done, cur, t_last)
            ):
                full = (
                    force_full
                    or dirty >= set(state)
                    or (
                        policy.full_interval > 0
                        and since_full + 1 >= policy.full_interval
                    )
                )
                cid, t_last = save_checkpoint(
                    cur, store, done, step.name, state,
                    kind="full" if full else "delta",
                    dirty=dirty, homes=homes, writebehind=wb,
                )
                for name in state if full else dirty:
                    homes[name] = cid
                dirty.clear()
                force_full = False
                since_full = 0 if full else since_full + 1
                ckpt_ids.append(cid)
        except UnrecoverableError:
            raise
        except RankKilledError:
            # The transport auto-freed this rank's open memtrace spans
            # (ckpt.writebehind included) at the kill; freeing again
            # would double-count, so the buffer is abandoned, not
            # drained.
            wb.forget()
            if cur.size == 1:
                raise UnrecoverableError(
                    "rank killed on a single-rank communicator: nobody "
                    "is left to restart the pipeline",
                    recoveries=restarts,
                ) from None
            raise  # this rank is dead; survivors handle the restart
        except (RankFailedError, CommRevokedError):
            wb.drain(cur)  # survivors release their staged snapshots
            cur.revoke()
            _all_ok, survivors = cur.agree(False)
            restarts += 1
            if restarts > max_restarts:
                raise UnrecoverableError(
                    f"pipeline restart budget exhausted "
                    f"(max_restarts={max_restarts})",
                    recoveries=restarts,
                ) from None
            with cur.span("ckpt_restart", cat="ckpt", attempt=restarts,
                          survivors=len(survivors)):
                new_comm = cur.shrink(survivors)
                if new_comm.rank == 0:
                    new_comm.transport.add_ft(
                        new_comm.world_rank, recoveries=1,
                    )
                if store is not None and store.latest_manifest() is not None:
                    state, i = restart(new_comm, store)
                    if new_comm.rank == 0:
                        preserved = sum(s.flops for s in steps[:i])
                        if preserved:
                            new_comm.transport.add_ft(
                                new_comm.world_rank,
                                reused_flops=preserved,
                            )
                else:
                    state, i = init(new_comm), 0
                cur = new_comm
                dirty.clear()
                homes.clear()
                force_full = True
                since_full = 0
    wb.drain(cur)  # a trailing un-checkpointed step leaves staged bytes
    return PipelineResult(
        state=state, comm=cur, restarts=restarts, checkpoints=ckpt_ids,
    )
