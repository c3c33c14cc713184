"""ULFM-style shrink-replan-redistribute recovery for CA3DMM.

:func:`resilient_multiply` wraps the :class:`~repro.core.ca3dmm.Ca3dmm`
engine in the classic ULFM recovery loop.  Before each attempt every
rank backs up its input tiles to a *buddy* (the next rank around the
ring), so the inputs survive any single failure — and any wider failure
pattern that never takes out a rank and its buddy together.  Then:

1. **run** — the attempt executes normally; a rank killed by a
   ``RankFault(kill=True)`` rule dies silently, and the first survivor
   to touch it gets :class:`~repro.mpi.errors.RankFailedError`
   (``MPI_ERR_PROC_FAILED``).
2. **revoke** — the detector revokes the world
   (:meth:`~repro.mpi.comm.Comm.revoke`).  Revocation is
   quiescence-gated (see :meth:`~repro.mpi.transport.Transport.revoke`):
   survivors keep draining deliverable messages and are unwound with
   :class:`~repro.mpi.errors.CommRevokedError` (``MPI_ERR_REVOKED``)
   only once nothing can make progress, so the virtual clock at which
   each survivor observes the failure is replay-deterministic.
3. **agree** — all survivors join :meth:`~repro.mpi.comm.Comm.agree`
   (``MPIX_Comm_agree``) and learn a consistent verdict plus survivor
   snapshot.  Success returns the result; failure proceeds to:
4. **shrink + re-plan + redistribute** —
   :meth:`~repro.mpi.comm.Comm.shrink` builds the survivor
   communicator; the CA3DMM grid optimizer re-solves eq. (4)-(7) for
   the new process count (the optimizer works for *any* P, which is
   what makes this recovery style viable); and the surviving input
   tiles — each dead rank's restored from its buddy — are re-expressed
   as an :class:`~repro.layout.distributions.Explicit` layout over the
   survivors.  The next attempt's engine redistributes them to its new
   native layout through the ordinary machinery.

**Partial-result reuse.**  A failed attempt is not a total loss: every
surviving active rank whose Cannon stage completed retains its verified
partial C block (the engine's ``on_partial`` hook fires after the ABFT
guard, before the k-group reduce-scatter).  After the shrink, the
survivors agree — one allgather — on exactly which ``(ik, i, j)`` cells
were retained.  K-task groups that survived *complete* (all ``pm x pn``
blocks of that k-slice) are reused wholesale: the missing k-slices are
multiplied as one compacted sub-problem and the retained group
contributions are redistributed and summed in.  Groups that survived
only *partially* are salvaged per cell: the rows that miss the same set
of column blocks are recomputed as one compacted sub-multiply (those
rows, those columns, k-slice ``ik`` of the inputs), and the retained
cells of the group ride along unrecomputed — so a multi-kill round
redoes only the work that actually died, in one multiply per distinct
missing-column set.  The round charges an exact
``reused_flops``-vs-``recomputed_flops`` metrics pair (they sum to
``2mnk`` by construction).  If the reuse attempt itself fails, the
retained partials are dropped and recovery falls back to a full
recompute — reuse is a one-shot optimization, never a correctness
dependency.

The loop is bounded by ``max_recoveries``; exhausting it — or losing a
rank together with its buddy — raises a typed
:class:`~repro.ft.errors.UnrecoverableError`.

Note the recovered C is produced by a *different* grid (P' ranks), so
partial sums accumulate in a different order: the result matches the
clean run to numerical roundoff, not bit-for-bit (the ABFT path, which
re-runs the identical schedule, is bit-identical; see
``docs/RECOVERY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from ..core.ca3dmm import Ca3dmm
from ..core.plan import Ca3dmmPlan, shared_plan
from ..core.steps import norm_op, problem_dims
from ..grid.optimizer import DEFAULT_L, GridSpec
from ..layout.blocks import Rect
from ..layout.distributions import Distribution, Explicit
from ..layout.matrix import DistMatrix
from ..layout.redistribute import redistribute
from ..mpi.comm import Comm
from ..mpi.datatypes import INTERNAL_TAG_BASE
from ..mpi.errors import CommRevokedError, RankFailedError, RankKilledError
from .abft import AbftPolicy
from .errors import FtError, UnrecoverableError

_TAG_BACKUP = INTERNAL_TAG_BASE + 501


def _exchange_backups(comm: Comm, mats: tuple[DistMatrix, ...]):
    """Ring backup: my tiles go to rank+1; rank-1's tiles come to me.

    Returns the left neighbour's ``[(rect, tile), ...]`` list per
    matrix, or None on a single-rank communicator.
    """
    if comm.size == 1:
        return None
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    payload = [list(zip(m.owned_rects, m.tiles)) for m in mats]
    with comm.span("ft_backup", cat="ft"):
        return comm.sendrecv(payload, right, left, _TAG_BACKUP, _TAG_BACKUP)


@lru_cache(maxsize=64)
def _survivor_layout(
    old_dist: Distribution,
    old_group: tuple[int, ...],
    survivors: tuple[int, ...],
    recoveries: int,
) -> tuple[Explicit, Mapping[int, int], tuple[int, ...]]:
    """The post-shrink layout, looked up by value: every survivor derives
    it identically, so the ranks of a round share one.

    Returns ``(dist, buddy_of, dead)`` where ``dist`` maps new local
    ranks to their old rects plus any dead left-neighbour's rects,
    ``buddy_of`` maps each dead world rank to the world rank holding
    its backup, and ``dead`` lists the casualties in old-rank order
    (both read-only: the ranks share them).
    """
    alive = set(survivors)
    dead = [w for w in old_group if w not in alive]
    w2old = {w: i for i, w in enumerate(old_group)}
    size = len(old_group)
    buddy_of: dict[int, int] = {}
    for d in dead:
        buddy = old_group[(w2old[d] + 1) % size]
        if buddy not in alive:
            raise UnrecoverableError(
                f"rank {d} and its backup buddy {buddy} both failed",
                recoveries=recoveries,
            )
        buddy_of[d] = buddy
    mapping = {}
    for new_local, w in enumerate(survivors):
        rects = list(old_dist.owned_rects(w2old[w]))
        for d in dead:
            if buddy_of[d] == w:
                rects.extend(old_dist.owned_rects(w2old[d]))
        mapping[new_local] = rects
    dist = Explicit.from_mapping(old_dist.shape, len(survivors), mapping)
    return dist, MappingProxyType(buddy_of), tuple(dead)


def _recover_matrix(
    new_comm: Comm,
    old_mat: DistMatrix,
    backup,
    old_group: tuple[int, ...],
    survivors: tuple[int, ...],
    recoveries: int,
) -> DistMatrix:
    """Rebuild one input matrix over the shrunk communicator."""
    dist, buddy_of, dead = _survivor_layout(
        old_mat.dist, old_group, survivors, recoveries
    )
    me = new_comm.world_rank
    tiles = list(old_mat.tiles)
    for d in dead:
        if buddy_of[d] != me:
            continue
        # d is my left neighbour on the old ring; the backup I hold is
        # exactly its (rect, tile) list, already in rect order.  The
        # rects must match the dead rank's slots in the *current*
        # layout identically — a stale backup from an earlier attempt
        # with a different layout would pass a bare length check and
        # silently corrupt the restored matrix.
        expected = old_mat.dist.owned_rects(old_group.index(d))
        if backup is None or len(backup) != len(expected):
            raise UnrecoverableError(
                f"backup for failed rank {d} is missing or incomplete "
                f"(rank died before the backup exchange finished)",
                recoveries=recoveries,
            )
        got_rects = [rect for rect, _tile in backup]
        if got_rects != expected:
            raise UnrecoverableError(
                f"backup for failed rank {d} is stale: it covers rects "
                f"{got_rects} but the current layout assigns {expected} "
                f"(backup from a prior attempt with a different layout)",
                recoveries=recoveries,
            )
        tiles.extend(tile for _rect, tile in backup)
    return DistMatrix(new_comm, dist, tiles, dtype=old_mat.dtype)


def _resolve_c_dist(c_dist, comm: Comm):
    if c_dist is None:
        return None
    if callable(c_dist):
        return c_dist(comm)
    if c_dist.nranks != comm.size:
        raise FtError(
            f"c_dist spans {c_dist.nranks} ranks but the communicator "
            f"now has {comm.size}; pass a callable c_dist (comm -> "
            f"Distribution) so the output layout can follow recovery"
        )
    return c_dist


# ------------------------------------------------------ partial reuse -- #
@dataclass
class _ReusePlan:
    """Everything the reuse attempt needs, derived identically everywhere.

    ``plan`` is the *failed* attempt's plan (its k-ranges and C blocks
    name what was retained); ``coords`` maps each new local rank to the
    ``(ik, i, j)`` coordinates of the partial it retained; ``mine`` is
    this rank's retained (verified, unscaled) partial body, if any.
    ``reusable`` lists k-groups retained *complete*; ``partial`` maps
    each incompletely-retained k-group to the frozen set of ``(i, j)``
    cells that survived (per-cell salvage).
    """

    plan: Ca3dmmPlan
    coords: dict[int, tuple[int, int, int]]
    mine: np.ndarray | None
    reusable: frozenset[int]
    partial: dict[int, frozenset[tuple[int, int]]]

    @property
    def k_reused(self) -> int:
        return sum(
            self.plan.k_range(ik)[1] - self.plan.k_range(ik)[0]
            for ik in self.reusable
        )

    def reused_flops(self) -> float:
        """Exact flops the retained cells save (2·|cell|·k per cell)."""
        plan = self.plan
        f = 2.0 * plan.m * plan.n * self.k_reused
        for ik, cells in self.partial.items():
            k0, k1 = plan.k_range(ik)
            for i, j in cells:
                blk = plan.c_block(i, j)
                f += 2.0 * (blk.r1 - blk.r0) * (blk.c1 - blk.c0) * (k1 - k0)
        return f

    def recomputed_flops(self) -> float:
        """Exact flops the reuse round redoes; sums with reused to 2mnk."""
        plan = self.plan
        return 2.0 * plan.m * plan.n * plan.k - self.reused_flops()


def _gather_reuse(
    new_comm: Comm, old_plan: Ca3dmmPlan, mine
) -> _ReusePlan | None:
    """Agree (one allgather) on exactly which ``(ik, i, j)`` cells survived.

    ``mine`` is this rank's retained ``(ik, i, j, body)`` from the
    failed attempt, or None.  K-groups with *all* ``pm x pn`` blocks
    retained are reused wholesale; groups with some blocks retained are
    salvaged per cell.  Returns None only when nothing at all was
    retained (full recompute).
    """
    payload = None if mine is None else (mine[0], mine[1], mine[2])
    coords_list = new_comm.allgather(payload)
    coords = {r: c for r, c in enumerate(coords_list) if c is not None}
    needed = {(i, j) for i in range(old_plan.pm) for j in range(old_plan.pn)}
    reusable = set()
    partial: dict[int, frozenset[tuple[int, int]]] = {}
    for ik in range(old_plan.pk):
        got = {(i, j) for rik, i, j in coords.values() if rik == ik}
        if got == needed:
            reusable.add(ik)
        elif got:
            partial[ik] = frozenset(got)
    if not reusable and not partial:
        return None
    return _ReusePlan(
        plan=old_plan,
        coords=coords,
        mine=None if mine is None else mine[3],
        reusable=frozenset(reusable),
        partial=partial,
    )


def _k_pieces(rect: Rect, k_ranges, axis: int, inverse: bool = False):
    """``(lo, hi, rect')`` per range of ``k_ranges`` that ``rect`` meets
    along ``axis`` (0 = rows, 1 = cols): the span it cuts from a tile of
    ``rect``, and where the piece lands once the ranges are laid end to
    end, renumbering coordinates monotonically.  ``inverse`` reads
    ``rect`` in the laid-end-to-end coordinates and returns each piece to
    the range it came from (a rect that straddles two ranges is split)."""
    lo, hi = (rect.r0, rect.r1) if axis == 0 else (rect.c0, rect.c1)
    off = 0
    for k0, k1 in k_ranges:
        src, dst = (off, k0) if inverse else (k0, off)
        s0, s1 = max(lo, src), min(hi, src + k1 - k0)
        if s0 < s1:
            n0, n1 = s0 - src + dst, s1 - src + dst
            yield s0 - lo, s1 - lo, (
                Rect(n0, n1, rect.c0, rect.c1) if axis == 0
                else Rect(rect.r0, rect.r1, n0, n1)
            )
        off += k1 - k0


def _expand(rect: Rect, row_ranges, col_ranges):
    """``(rows, cols, rect')`` per piece of a compacted ``rect``: the
    slices that cut it from the rect's tile and where each lands."""
    for r0, r1, row_piece in _k_pieces(rect, row_ranges, 0, inverse=True):
        for c0, c1, piece in _k_pieces(row_piece, col_ranges, 1, inverse=True):
            yield slice(r0, r1), slice(c0, c1), piece


def _missing_sets(plan: Ca3dmmPlan, cells) -> list[tuple[list[int], tuple[int, ...]]]:
    """A partial group's missing ``(i, j)`` blocks as ``(rows, cols)``
    sets: each row's missing columns, the rows that miss the same columns
    gathered, in the order of their first row."""
    by_cols: dict[tuple[int, ...], list[int]] = {}
    for i in range(plan.pm):
        cols = tuple(j for j in range(plan.pn) if (i, j) not in cells)
        if cols:
            by_cols.setdefault(cols, []).append(i)
    return [(rows, cols) for cols, rows in by_cols.items()]


@lru_cache(maxsize=64)
def _compacted_layout(dist: Distribution, k_ranges: tuple, axis: int) -> Explicit:
    """``dist`` sliced to the concatenation of ``k_ranges`` along ``axis``.

    A pure function of the old layout, looked up by value: the ranks of a
    round share one :class:`Explicit`, which feeds the engine's ordinary
    redistribution directly.
    """
    mapping = {
        rank: [
            piece
            for rect in dist.owned_rects(rank)
            for _lo, _hi, piece in _k_pieces(rect, k_ranges, axis)
        ]
        for rank in range(dist.nranks)
    }
    total = sum(k1 - k0 for k0, k1 in k_ranges)
    shape = (total, dist.shape[1]) if axis == 0 else (dist.shape[0], total)
    return Explicit.from_mapping(shape, dist.nranks, mapping)


@lru_cache(maxsize=64)
def _expanded_layout(
    dist: Distribution, row_ranges: tuple, col_ranges: tuple
) -> tuple[tuple[Rect, ...], ...]:
    """Every rank's rects of the compacted ``dist`` returned to the
    coordinates of ``row_ranges`` x ``col_ranges`` (:func:`_expand`),
    looked up by value: the ranks of a round share one."""
    return tuple(
        tuple(
            piece
            for rect in dist.owned_rects(rank)
            for _r, _c, piece in _expand(rect, row_ranges, col_ranges)
        )
        for rank in range(dist.nranks)
    )


def _compact_k(mat: DistMatrix, k_ranges, axis: int) -> DistMatrix:
    """Slice a DistMatrix to the concatenation of ``k_ranges`` along
    ``axis`` (0 = rows, 1 = cols): the shared :func:`_compacted_layout`,
    and this rank's own tiles cut to it."""
    k_ranges = tuple(map(tuple, k_ranges))
    my_tiles = [
        np.ascontiguousarray(tile[lo:hi, :] if axis == 0 else tile[:, lo:hi])
        for rect, tile in zip(mat.owned_rects, mat.tiles)
        for lo, hi, _piece in _k_pieces(rect, k_ranges, axis)
    ]
    dist = _compacted_layout(mat.dist, k_ranges, axis)
    return DistMatrix(mat.comm, dist, my_tiles, dtype=mat.dtype)


def _reuse_multiply(
    cur_comm: Comm,
    cur_a: DistMatrix,
    cur_b: DistMatrix,
    reuse: _ReusePlan,
    *,
    c_dist,
    transa,
    transb,
    ta: bool,
    tb: bool,
    alpha: float,
    l: float,
    shifts_per_gemm: int,
    abft_policy: AbftPolicy | None,
) -> DistMatrix:
    """Recompute only the truly missing ``(i, j, k)`` cells; fold in the rest.

    K-slices with *nothing* retained are multiplied together as one
    compacted sub-problem (``m x n x k_miss``) on the shrunk grid.  Every
    retained k-group — complete ones first, then partial ones, each in
    ascending order — is expressed as an :class:`Explicit` block layout
    over its holders, redistributed to the output layout, and summed in.
    A *partially* retained group is first completed: its rows that miss
    the same set of column blocks form one compacted sub-multiply (those
    rows of A, those columns of B, k-slice ``ik``), so a group costs one
    multiply per distinct missing-column set, not one per lost cell, and
    each product's rects are mapped back to ``(m, n)`` with the inverse
    of :func:`_k_pieces`.  The computed blocks plus the retained cells
    tile the group's full ``(m, n)`` contribution (a complete group has
    no missing cell).  Retained bodies and recomputed products are unscaled; ``alpha`` is
    applied at the final accumulation.
    """
    plan_old = reuse.plan
    m, n = plan_old.m, plan_old.n
    verify = abft_policy is not None
    missing = sorted(
        ik for ik in range(plan_old.pk)
        if ik not in reuse.reusable and ik not in reuse.partial
    )
    k_ranges = [plan_old.k_range(ik) for ik in missing]
    k_miss = sum(k1 - k0 for k0, k1 in k_ranges)
    needed = {(i, j) for i in range(plan_old.pm) for j in range(plan_old.pn)}
    dtype = np.promote_types(cur_a.dtype, cur_b.dtype)
    with cur_comm.span(
        "ft_reuse", cat="ft",
        reused_groups=len(reuse.reusable),
        partial_groups=len(reuse.partial),
        k_reused=reuse.k_reused,
        k_recomputed=k_miss,
    ):
        if k_miss:
            a_sub = _compact_k(cur_a, k_ranges, axis=0 if ta else 1)
            b_sub = _compact_k(cur_b, k_ranges, axis=1 if tb else 0)
            engine = Ca3dmm(
                cur_comm, m, n, k_miss,
                grid=None, l=l, shifts_per_gemm=shifts_per_gemm,
                abft=abft_policy,
            )
            final_dist = _resolve_c_dist(c_dist, cur_comm)
            if final_dist is None:
                final_dist = engine.plan.c_dist
            c = engine.multiply(
                a_sub, b_sub, c_dist=final_dist,
                transa=transa, transb=transb, alpha=alpha,
            )
        else:
            # Everything survived (whole or per-cell): nothing to batch,
            # only to combine.
            final_dist = _resolve_c_dist(c_dist, cur_comm)
            if final_dist is None:
                final_dist = shared_plan(
                    m, n, plan_old.k, cur_comm.size, l=l
                ).c_dist
            c = DistMatrix.zeros(cur_comm, final_dist, dtype=dtype)

        def _accumulate(part: DistMatrix) -> DistMatrix:
            got = redistribute(part, final_dist, phase="redist",
                               verify=verify)
            return DistMatrix(
                cur_comm, final_dist,
                [
                    t + alpha * g.astype(t.dtype, copy=False)
                    for t, g in zip(c.tiles, got.tiles)
                ],
                dtype=c.dtype,
            )

        groups = [(ik, needed) for ik in sorted(reuse.reusable)]
        for ik, cells in groups + sorted(reuse.partial.items()):
            k0, k1 = plan_old.k_range(ik)
            mapping = {r: [] for r in range(cur_comm.size)}
            my_tiles: list[np.ndarray] = []
            for r, (rik, i, j) in sorted(reuse.coords.items()):
                # A zero-area cell (pm > m or pn > n) holds nothing to fold in.
                if rik != ik or plan_old.c_block(i, j).is_empty():
                    continue
                mapping[r].append(plan_old.c_block(i, j))
                if r == cur_comm.rank and reuse.mine is not None:
                    my_tiles.append(np.ascontiguousarray(reuse.mine))
            for rows, cols in _missing_sets(plan_old, cells):
                row_ranges = tuple(plan_old.m_range(i) for i in rows)
                col_ranges = tuple(plan_old.n_range(j) for j in cols)
                mm = sum(r1 - r0 for r0, r1 in row_ranges)
                nn = sum(c1 - c0 for c0, c1 in col_ranges)
                if not mm or not nn:  # every block of the set is empty
                    continue
                # Compact the inputs to these (rows, cols, k-slice): first
                # along k, then along the blocks' own dimension.
                a_set = _compact_k(
                    _compact_k(cur_a, [(k0, k1)], axis=0 if ta else 1),
                    row_ranges, axis=1 if ta else 0,
                )
                b_set = _compact_k(
                    _compact_k(cur_b, [(k0, k1)], axis=1 if tb else 0),
                    col_ranges, axis=0 if tb else 1,
                )
                set_engine = Ca3dmm(
                    cur_comm, mm, nn, k1 - k0,
                    grid=None, l=l, shifts_per_gemm=shifts_per_gemm,
                    abft=abft_policy,
                )
                c_set = set_engine.multiply(
                    a_set, b_set, transa=transa, transb=transb, alpha=1.0,
                )
                # Return the compacted result to (m, n) coordinates and
                # graft its rects into the group's layout.
                for r, pieces in enumerate(
                    _expanded_layout(c_set.dist, row_ranges, col_ranges)
                ):
                    mapping[r].extend(pieces)
                my_tiles.extend(
                    tile[rs, cs]
                    for rect, tile in zip(c_set.owned_rects, c_set.tiles)
                    for rs, cs, _piece in _expand(rect, row_ranges, col_ranges)
                )
            dist_ik = Explicit.from_mapping((m, n), cur_comm.size, mapping)
            c = _accumulate(DistMatrix(cur_comm, dist_ik, my_tiles, dtype=dtype))
    return c


def _fill_salvage_report(
    report: list, plan: Ca3dmmPlan, reuse: _ReusePlan | None
) -> None:
    """Per-(ik, i, j) cell table of what a recovery round reused vs redid.

    Derived from the agreed reuse plan, so every rank fills an identical
    table.  ``reuse=None`` means a full recompute.
    """
    report.clear()
    for ik in range(plan.pk):
        k0, k1 = plan.k_range(ik)
        for j in range(plan.pn):
            for i in range(plan.pm):
                blk = plan.c_block(i, j)
                reused = reuse is not None and (
                    ik in reuse.reusable
                    or (i, j) in reuse.partial.get(ik, frozenset())
                )
                report.append({
                    "ik": ik,
                    "i": i,
                    "j": j,
                    "rect": (blk.r0, blk.r1, blk.c0, blk.c1),
                    "flops": 2.0 * (blk.r1 - blk.r0) * (blk.c1 - blk.c0)
                    * (k1 - k0),
                    "status": "reused" if reused else "recomputed",
                })


def resilient_multiply(
    comm: Comm,
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | Callable[[Comm], Distribution] | None = None,
    transa: bool | str = False,
    transb: bool | str = False,
    alpha: float = 1.0,
    grid: GridSpec | None = None,
    l: float = DEFAULT_L,
    shifts_per_gemm: int = 1,
    abft: bool | AbftPolicy = False,
    max_recoveries: int = 1,
    salvage_report: list | None = None,
) -> DistMatrix:
    """``C = alpha * op(A) x op(B)``, surviving rank deaths and corruption.

    Drop-in for the fault-free engines, with three differences:

    * ``c_dist`` may be a *callable* ``comm -> Distribution`` so the
      requested output layout can be rebuilt for the survivor count
      (a plain Distribution works only while no rank dies).
    * ``abft=True`` (or an :class:`AbftPolicy`) turns on checksum
      protection of the Cannon stage.
    * the returned matrix lives on the *final* communicator —
      ``result.comm`` is the shrunk comm after any recovery, and killed
      ranks never return at all.

    A recovery round reuses surviving per-``(i, j)`` partials when it
    can (see the module docstring): `reused_flops` counts the work
    saved and `recomputed_flops` the work redone (global flops, charged
    once per round by the lowest surviving rank; the pair sums to
    ``2mnk`` exactly for a single-round recovery).  ``salvage_report``,
    when given a list, is cleared and filled — identically on every
    surviving rank — with one row per ``(ik, i, j)`` cell of the failed
    plan (``{"ik", "i", "j", "rect", "flops", "status"}``, status
    ``reused`` or ``recomputed``) describing what the recovery round
    salvaged; it stays empty when no recovery happens.

    ``max_recoveries`` bounds the shrink-replan-redistribute rounds;
    one more failure raises :class:`UnrecoverableError` on every
    survivor (aborting the world, as an unhandled error does).  A kill
    on a single-rank communicator is *immediately* unrecoverable — no
    survivor holds a backup and nobody is left to agree — and raises
    the same typed error instead of an untyped abort.
    """
    ta, _ = norm_op(transa)
    tb, _ = norm_op(transb)
    m, n, k = problem_dims(a, b, transa, transb)
    abft_policy: AbftPolicy | None
    if abft is True:
        abft_policy = AbftPolicy()
    elif isinstance(abft, AbftPolicy):
        abft_policy = abft
    else:
        abft_policy = None

    cur_comm, cur_a, cur_b = comm, a, b
    cur_grid = grid
    recoveries = 0
    reuse: _ReusePlan | None = None
    while True:
        backups = None
        c: DistMatrix | None = None
        ok = True
        attempt_plan: Ca3dmmPlan | None = None
        retained: list = [None]  # this attempt's (ik, i, j, body), if any
        try:
            # The ``ft_attempt`` phase is entered as the attempt's very
            # first action — nothing before it can raise — so its entry
            # count is a deterministic per-attempt anchor for
            # ``RankFault`` rules (a kill keyed on it dies *before* the
            # backup exchange, i.e. with its current tiles unprotected).
            with cur_comm.phase("ft_attempt", attempt=recoveries + 1):
                backups = _exchange_backups(cur_comm, (cur_a, cur_b))
                if reuse is not None:
                    c = _reuse_multiply(
                        cur_comm, cur_a, cur_b, reuse,
                        c_dist=c_dist, transa=transa, transb=transb,
                        ta=ta, tb=tb, alpha=alpha, l=l,
                        shifts_per_gemm=shifts_per_gemm,
                        abft_policy=abft_policy,
                    )
                else:
                    # The plan is a pure local computation, identical on
                    # every rank (one shared instance, the engine's), so
                    # each survivor can later name what the failed
                    # attempt retained.
                    attempt_plan = shared_plan(
                        m, n, k, cur_comm.size, grid=cur_grid, l=l
                    )

                    def _keep(role, body, _plan=attempt_plan, _cell=retained):
                        blk = _plan.c_block(role.i, role.j)
                        if body.shape == blk.shape:
                            _cell[0] = (role.ik, role.i, role.j, body.copy())

                    engine = Ca3dmm(
                        cur_comm, m, n, k,
                        grid=cur_grid, l=l,
                        shifts_per_gemm=shifts_per_gemm,
                        abft=abft_policy,
                    )
                    c = engine.multiply(
                        cur_a, cur_b,
                        c_dist=_resolve_c_dist(c_dist, cur_comm),
                        transa=transa, transb=transb, alpha=alpha,
                        on_partial=_keep,
                    )
        except RankKilledError:
            if cur_comm.size == 1:
                raise UnrecoverableError(
                    "rank killed on a single-rank communicator: no "
                    "survivor holds a backup and nobody is left to agree",
                    recoveries=recoveries,
                ) from None
            raise  # multi-rank: the thread ends silently, world continues
        except (RankFailedError, CommRevokedError):
            cur_comm.revoke()
            ok = False
        all_ok, survivors = cur_comm.agree(ok)
        if all_ok:
            return c  # type: ignore[return-value]  (all voted ok => c is set)
        recoveries += 1
        cur_comm.transport.add_ft(cur_comm.world_rank, recoveries=1)
        if recoveries > max_recoveries:
            raise UnrecoverableError(
                f"recovery budget max_recoveries={max_recoveries} exhausted",
                recoveries=recoveries,
            )
        with cur_comm.span(
            "ft_recover", cat="ft",
            attempt=recoveries, survivors=len(survivors),
        ):
            old_group = cur_comm.group
            new_comm = cur_comm.shrink(survivors)
            cur_a = _recover_matrix(
                new_comm, cur_a, backups[0] if backups else None,
                old_group, survivors, recoveries,
            )
            cur_b = _recover_matrix(
                new_comm, cur_b, backups[1] if backups else None,
                old_group, survivors, recoveries,
            )
            if reuse is None and attempt_plan is not None:
                reuse = _gather_reuse(new_comm, attempt_plan, retained[0])
                if salvage_report is not None:
                    _fill_salvage_report(salvage_report, attempt_plan, reuse)
            else:
                # The reuse attempt itself failed: drop the retained
                # partials and fall back to a full recompute.
                reuse = None
                if salvage_report is not None and attempt_plan is not None:
                    _fill_salvage_report(salvage_report, attempt_plan, None)
            # Charge the round's reuse/recompute balance (global flops,
            # once per round, on the lowest surviving rank).
            if new_comm.rank == 0:
                if reuse is not None:
                    new_comm.transport.add_ft(
                        new_comm.world_rank,
                        recomputed_flops=reuse.recomputed_flops(),
                        reused_flops=reuse.reused_flops(),
                    )
                else:
                    new_comm.transport.add_ft(
                        new_comm.world_rank,
                        recomputed_flops=2.0 * m * n * k,
                    )
            cur_comm = new_comm
            cur_grid = None  # re-run the grid optimizer for P' ranks
