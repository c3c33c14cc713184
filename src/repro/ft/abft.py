"""Huang-Abraham checksums for the CA3DMM pipeline (ABFT).

Algorithm-based fault tolerance protects the numerically dominant step
of CA3DMM — Cannon's algorithm — against silent payload corruption
(the ``corrupt`` link rules of :mod:`repro.mpi.faults`, or a flaky
interconnect in the real world), and the same checksums travel through
the surrounding stages.  Everything this does to a multiply is here, in
:class:`AbftGuard`; :class:`~repro.core.ca3dmm.Ca3dmm` holds one when
``abft=`` asked for it (``None`` otherwise, like ``transport.injector``)
and hands it each step — the engine itself has no checksum arithmetic:

* operands are augmented *before* replication when the plan replicates
  (:meth:`AbftGuard.augment`), so the allgather is covered by the
  operand's own border (:meth:`AbftGuard.replicate`);
* the bordered Cannon result is verified and, if corrupted, recomputed
  (:meth:`AbftGuard.verified_bordered`);
* one border is carried *through* the k-reduction — a sum of
  checksummed partials is itself checksummed — and every strip is
  verified after the reduce-scatter (:meth:`AbftGuard.reduce`);
* steps 4 and 8 get a CRC envelope in :mod:`repro.layout.redistribute`
  (``verify=True``).

The three verified stages share **one** detect -> vote -> retry loop
(:meth:`AbftGuard._until_clean`).  Each rank augments its unskewed
operand blocks before the skew:

* A gets a *checksum row* appended: ``[A; 1ᵀA]`` — shape ``(r+1, k)``,
* B gets a *checksum column* appended: ``[B, B·1]`` — shape ``(k, c+1)``.

Augmentation is linear and per-block, so it commutes with everything
Cannon does: blocks in one grid row keep a consistent row count, blocks
in one grid column a consistent column count, and the inner k-extents
are unchanged.  The group then computes, with **no change to the Cannon
kernel**,

    Σ_t [A_t; 1ᵀA_t] [B_t, B_t·1]  =  [ C,   C·1 ]
                                      [ 1ᵀC, 1ᵀC·1 ]

i.e. the partial C block bordered by its own row/column/total
checksums.  :func:`block_checksum_errors` recomputes the borders from
the body and flags rows/columns whose sums disagree — locating the
corruption.  A corrupted *message* poisons a full row (A payload) or
column (B payload) of C, which is beyond single-element correction, so
the response is collective: every rank of the Cannon group re-runs the
stage from its retained unskewed blocks, bounded by
:class:`AbftPolicy.max_recomputes`.  One-shot ``corrupt_at`` hits are
consumed by the first (corrupted) pass, so the re-run is clean and the
final C is bit-identical to an unfaulted run.

The detection vote is an ``allreduce(MAX)`` of a Python int — a payload
containing no float arrays, so the corruption machinery (which flips
elements of inexact-dtype arrays, whether sent raw or inside pickled
containers) has nothing to flip: the agreement is incorruptible by
construction, not by exemption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import args
from ..core.reduce_c import reduce_over_k, reduce_scratch
from ..core.replicate import replicate_block
from ..mpi.comm import Comm
from ..mpi.datatypes import MAX
from .errors import CorruptionError


@dataclass(frozen=True)
class AbftPolicy:
    """Tolerance and budget of the checksum verification."""

    #: Checksum residuals above ``rel_tol * max(1, |C_f|_max)`` count as
    #: corruption.  Injected flips change an element by ``1 + |v|``,
    #: orders of magnitude above float64 summation roundoff.
    rel_tol: float = 1e-8
    #: Cannon-stage recomputations allowed before :class:`CorruptionError`.
    max_recomputes: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "rel_tol", args.amount("rel_tol", self.rel_tol, positive=True))
        object.__setattr__(self, "max_recomputes",
                           args.count("max_recomputes", self.max_recomputes, 0))


def augment_a(a: np.ndarray) -> np.ndarray:
    """Append the checksum row: ``[A; 1ᵀA]``, shape ``(r+1, k)``."""
    return np.vstack([a, a.sum(axis=0, keepdims=True)])


def augment_b(b: np.ndarray) -> np.ndarray:
    """Append the checksum column: ``[B, B·1]``, shape ``(k, c+1)``."""
    return np.hstack([b, b.sum(axis=1, keepdims=True)])


def block_checksum_errors(
    c_f: np.ndarray, rel_tol: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row/column indices of the body whose checksums disagree.

    ``c_f`` is the bordered ``(r+1, c+1)`` block.  Returns
    ``(bad_rows, bad_cols)``; both empty means the block verifies.  A
    mismatch only in the corner total is reported as ``((-1,), (-1,))``
    — it cannot be located further, but a recompute clears it.
    """
    body = c_f[:-1, :-1]
    scale = float(np.abs(c_f).max()) if c_f.size else 0.0
    tol = rel_tol * max(1.0, scale)
    bad_cols = np.flatnonzero(np.abs(body.sum(axis=0) - c_f[-1, :-1]) > tol)
    bad_rows = np.flatnonzero(np.abs(body.sum(axis=1) - c_f[:-1, -1]) > tol)
    if not bad_rows.size and not bad_cols.size:
        if abs(body.sum() - c_f[-1, -1]) > tol:
            return (-1,), (-1,)
    return tuple(int(i) for i in bad_rows), tuple(int(i) for i in bad_cols)


def operand_checksum_errors(
    op_f: np.ndarray, row_checksum: bool, rel_tol: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where a block's one carried border disagrees, as ``(bad_rows, bad_cols)``.

    ``op_f`` carries a checksum *row* of per-column sums when
    ``row_checksum`` — an augmented A, ``[A; 1ᵀA]``, or a column strip of
    the reduced C — and a checksum *column* of per-row sums otherwise
    (``[B, B·1]``, a row strip).  A row of sums locates bad columns, a
    column of sums bad rows.  Verifying the border against the body
    detects corruption of the block itself — a flipped element in a
    replicate allgather round, or in the reduce-scatter exchange (the
    reduction is linear, so a clean strip's border still matches).
    """
    scale = float(np.abs(op_f).max()) if op_f.size else 0.0
    tol = rel_tol * max(1.0, scale)
    if row_checksum:
        bad = np.flatnonzero(np.abs(op_f[:-1, :].sum(axis=0) - op_f[-1, :]) > tol)
        return (), tuple(int(i) for i in bad)
    bad = np.flatnonzero(np.abs(op_f[:, :-1].sum(axis=1) - op_f[:, -1]) > tol)
    return tuple(int(i) for i in bad), ()


class AbftGuard:
    """Everything ABFT does to one rank's multiplies, in one object.

    :class:`~repro.core.ca3dmm.Ca3dmm` builds one when ``abft=`` asked
    for protection and holds ``None`` otherwise; at each step of
    Algorithm 1 the engine asks whether it has one and, if so, calls
    the method below that stands in for the step's plain function
    (``docs/RECOVERY.md`` has the table).  The sub-communicators are
    the engine's and arrive per call, as they do for
    :func:`~repro.core.replicate.replicate_block` and
    :func:`~repro.core.reduce_c.reduce_partial_c`.
    """

    def __init__(self, comm: Comm, policy: "AbftPolicy | bool" = True):
        self.comm = comm  #: the world comm (counters, spans, memtrace)
        #: ``True`` is the default policy, as everywhere ``abft=`` is taken
        self.policy = AbftPolicy() if policy is True else policy

    def _until_clean(self, vote: Comm, phase: str, value, errors, redo):
        """The one detect -> vote -> retry loop every guarded stage runs.

        ``errors(value)`` is this rank's ``(bad_rows, bad_cols)``; the
        ``allreduce(MAX)`` over ``vote`` makes detection anywhere
        everyone's, so the whole group goes back into ``redo(round,
        bad_rows, bad_cols)`` — a communicating stage — together.  A
        one-shot corruption is consumed by the pass it hit, so the re-run
        is clean; ``max_recomputes`` bounds the rounds and the round
        after the last raises :class:`CorruptionError` naming ``phase``.
        """
        me = self.comm.world_rank
        rounds = 0
        while True:
            bad_rows, bad_cols = errors(value)
            bad = bool(bad_rows or bad_cols)
            if bad:
                self.comm.transport.add_ft(me, detected=1, phase=phase)
            any_bad = vote.allreduce(int(bad), op=MAX) if vote.size > 1 else bad
            if not any_bad:
                return value
            rounds += 1
            if rounds > self.policy.max_recomputes:
                raise CorruptionError(me, rounds - 1, bad_rows, bad_cols, phase=phase)
            value = redo(rounds, bad_rows, bad_cols)

    def augment(self, a: np.ndarray, b: np.ndarray, dtype, hold):
        """``([A; 1ᵀA], [B, B·1])`` in the product's ``dtype``; the two
        borders are charged to an ``abft.checksum`` span through the
        engine's ``hold(purpose, nbytes)``, which frees it with the
        operand tiles.  The engine calls this before step 5 when the
        plan replicates (``c > 1``: the border commutes bit-identically
        with the allgather concatenation, so the replicated operand
        arrives carrying its own checksums) and at Cannon entry
        otherwise."""
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        a_f, b_f = augment_a(a), augment_b(b)
        hold("abft.checksum", a_f.nbytes + b_f.nbytes - a.nbytes - b.nbytes)
        return a_f, b_f

    def replicate(self, replica_comm: Comm, piece: np.ndarray, axis: int) -> np.ndarray:
        """Step 5 on an augmented piece: :func:`replicate_block`, the
        border of the result verified on every replica (A is gathered
        along ``axis=1`` under its checksum row, B along ``axis=0``
        under its checksum column); a mismatch anywhere sends the group
        back into the allgather from their retained local pieces."""
        def gather(*_):
            return replicate_block(replica_comm, piece, axis=axis)

        return self._until_clean(
            replica_comm, "replicate", gather(),
            lambda full: operand_checksum_errors(full, axis == 1, self.policy.rel_tol),
            gather,
        )

    def verified_bordered(
        self,
        group_comm: Comm,
        c_f: np.ndarray,
        recompute: Callable[[], np.ndarray],
        flops: float,
        keep: Callable[[np.ndarray], None] | None = None,
    ) -> np.ndarray:
        """Step 6's result, verified: the bordered block once its
        checksums agree on every rank of the Cannon group.

        Detection anywhere forces the whole group back into
        ``recompute()`` — the (communicating) Cannon stage on the
        retained unskewed blocks — so the re-run's shifts stay matched;
        each re-run charges ``flops`` to ``recomputed_flops``.  ``keep``
        (the engine's ``on_partial`` hook) is handed the verified body,
        borders stripped; the return keeps them on so the k-reduction
        can re-verify after further linear combination.
        """
        def rerun(rounds, bad_rows, bad_cols):
            with self.comm.span(
                "abft_recompute", cat="ft", round=rounds,
                bad_rows=len(bad_rows), bad_cols=len(bad_cols),
            ):
                # The recomputed bordered block coexists with the
                # corrupted one until the loop rebinds; charge that
                # second copy to the checksum span.
                with self.comm.mem("abft.checksum", c_f.nbytes):
                    fresh = recompute()
            self.comm.transport.add_ft(self.comm.world_rank, recomputed_flops=flops)
            return fresh

        c_f = self._until_clean(
            group_comm, "cannon", c_f,
            lambda blk: block_checksum_errors(blk, self.policy.rel_tol), rerun,
        )
        if keep is not None:
            keep(np.ascontiguousarray(c_f[:-1, :-1]))
        return c_f

    def reduce(self, kred_comm: Comm, c_f: np.ndarray, by_cols: bool) -> np.ndarray:
        """Step 7 on the verified bordered block; returns the stripped strip.

        *One* border is carried through the reduce-scatter — the
        checksum row when splitting by columns, the checksum column when
        splitting by rows; the other would land on a single member and
        is dropped.  Each rank re-verifies its reduced strip, and a
        mismatch anywhere sends the k-group back into the exchange from
        their retained clean blocks.
        """
        if kred_comm.size == 1:
            return np.ascontiguousarray(c_f[:-1, :-1])
        work = c_f[:, :-1] if by_cols else c_f[:-1, :]

        def exchange(*_):
            return reduce_over_k(kred_comm, work, by_cols)

        with reduce_scratch(kred_comm, work, by_cols):
            strip = self._until_clean(
                kred_comm, "reduce", exchange(),
                lambda s: operand_checksum_errors(s, by_cols, self.policy.rel_tol),
                exchange,
            )
        return np.ascontiguousarray(strip[:-1, :] if by_cols else strip[:, :-1])
