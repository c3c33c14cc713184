"""CA3DMM end-to-end — Algorithm 1 of the paper, executed engine.

:class:`Ca3dmm` sets up the grid, subcommunicators, and native layouts
once (the paper's one-time initialization, excluded from its timings) and
can then multiply any number of matrix pairs of the planned shape — the
pattern of its motivating applications (repeated density-matrix
purification, Rayleigh-Ritz projections in SCF iterations).

The steps, phase-tagged so executed runs yield the paper's runtime
breakdown (Fig. 5):

====== ============================== =========== =====================
step   operation                      phase        paper cost
====== ============================== =========== =====================
4      redistribute A and B            ``redist``   (excluded in paper)
5      allgather-replicate A or B      ``replicate`` α⌈log2 c⌉ + β|blk|(c-1)/c
6      Cannon's algorithm              ``cannon``    α·s + 2β|blk|·s (A and B)
7      reduce-scatter partial C        ``reduce``    α(pk-1) + β|blk|(pk-1)/pk
8      redistribute C                  ``redist``   (excluded in paper)
====== ============================== =========== =====================

Idle ranks (world size > ``pm*pn*pk``) take part only in steps 4 and 8.
"""

from __future__ import annotations

import numpy as np

from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..layout.redistribute import redistribute
from ..mpi.comm import Comm
from ..mpi.datatypes import MAX
from ..mpi.topology import Cart2D
from ..grid.optimizer import DEFAULT_L, GridSpec
from .cannon import cannon_multiply
from .plan import shared_plan
from .reduce_c import reduce_partial_c
from .replicate import replicate_block
from .steps import _norm_op, problem_dims


class Ca3dmm:
    """A planned CA3DMM multiplication engine for fixed (m, n, k, P)."""

    def __init__(
        self,
        comm: Comm,
        m: int,
        n: int,
        k: int,
        grid: GridSpec | None = None,
        l: float = DEFAULT_L,
        shifts_per_gemm: int = 1,
        memory_limit_words: float | None = None,
        abft=None,
    ):
        self.comm = comm
        # Shared (memoized) plan: every rank of the run would build the
        # identical plan, and its distribution tables are O(P) each.
        self.plan = shared_plan(
            m, n, k, comm.size, grid=grid, l=l,
            memory_limit_words=memory_limit_words,
        )
        self.shifts_per_gemm = shifts_per_gemm
        # ABFT: checksum-protect the Cannon stage (docs/RECOVERY.md).
        # ``True`` means the default policy; an AbftPolicy tunes it.
        if abft:
            from ..ft.abft import AbftPolicy  # deferred: repro.ft imports us

            self.abft = AbftPolicy() if abft is True else abft
        else:
            self.abft = None
        colors = self.plan.split_colors(comm.rank)
        # One split per subgroup kind; idle ranks pass color None and
        # receive no subcommunicator (they only join redistribution).
        self.active_comm = comm.split(*colors["active"])
        self.cannon_comm = comm.split(*colors["cannon"])
        self.replica_comm = comm.split(*colors["replica"])
        self.kred_comm = comm.split(*colors["kred"])
        self.role = self.plan.role(comm.rank)

    # ------------------------------------------------------------ helpers -- #
    def _replicate_verified(
        self, piece: np.ndarray, axis: int, row_checksum: bool
    ) -> np.ndarray:
        """Replicate an *augmented* operand piece and verify its border.

        The piece arrives carrying its own Huang-Abraham checksum (the
        border commutes bit-identically with the allgather
        concatenation), so a flipped element anywhere in the replicate
        wire traffic shows up as a border mismatch on some replica.  A
        detection vote over ``replica_comm`` sends the whole group back
        into the allgather from their retained local pieces — the
        one-shot corruption is consumed, the re-run is clean — bounded
        by ``AbftPolicy.max_recomputes``.
        """
        from ..ft.abft import operand_checksum_errors
        from ..ft.errors import CorruptionError

        comm = self.comm
        rounds = 0
        while True:
            full = replicate_block(self.replica_comm, piece, axis=axis)
            bad = operand_checksum_errors(full, row_checksum, self.abft.rel_tol)
            if bad:
                comm.transport.add_ft(
                    comm.world_rank, detected=1, phase="replicate"
                )
            any_bad = self.replica_comm.allreduce(int(bool(bad)), op=MAX)
            if not any_bad:
                return full
            rounds += 1
            if rounds > self.abft.max_recomputes:
                raise CorruptionError(
                    comm.world_rank,
                    rounds - 1,
                    () if row_checksum else bad,
                    bad if row_checksum else (),
                    phase="replicate",
                )

    # ------------------------------------------------------------ multiply -- #
    def multiply(
        self,
        a: DistMatrix,
        b: DistMatrix,
        c_dist: Distribution | None = None,
        transa: bool | str = False,
        transb: bool | str = False,
        alpha: float = 1.0,
        beta: float = 0.0,
        c_in: DistMatrix | None = None,
        on_partial=None,
    ) -> DistMatrix:
        """Compute ``C = alpha * op(A) x op(B) + beta * C_in`` (full GEMM).

        ``transa``/``transb`` accept BLAS op codes 'N'/'T'/'C'
        (booleans mean 'N'/'T'); 'C' is the conjugate transpose for
        complex operands, folded into the redistribution like 'T'.

        ``a`` and ``b`` may use any distribution; they are converted to
        the library-native layouts (folding in the transposes), the
        multiplication runs, and the result is returned in the native C
        layout — or converted to ``c_dist`` if given.

        ``c_in`` (required when ``beta != 0``) is the accumulation
        operand: it is redistributed to the native C layout and folded
        in after the reduce-scatter — the trailing-matrix-update pattern
        behind the paper's "flat" problem class (``C -= A x B`` in LU /
        Cholesky / QR panel factorizations).

        ``on_partial`` (``(role, c_loc) -> None``), when given, is
        called on every active rank with its verified partial C block —
        after the ABFT guard has stripped/validated it, before the
        k-group reduce-scatter consumes it.  The fault-tolerance layer
        uses this retention hook to keep surviving k-group partials
        across a failure (partial-result reuse, docs/RECOVERY.md); the
        block is *unscaled* (``alpha`` is applied after the reduce).
        """
        plan, comm = self.plan, self.comm
        m, n, k = plan.m, plan.n, plan.k
        transa, conja = _norm_op(transa)
        transb, conjb = _norm_op(transb)
        a_shape = (k, m) if transa else (m, k)
        b_shape = (n, k) if transb else (k, n)
        if tuple(a.shape) != a_shape:
            raise ValueError(f"A has shape {a.shape}, expected {a_shape} (transa={transa})")
        if tuple(b.shape) != b_shape:
            raise ValueError(f"B has shape {b.shape}, expected {b_shape} (transb={transb})")
        if beta != 0.0 and c_in is None:
            raise ValueError("beta != 0 requires the c_in accumulation operand")
        if c_in is not None and tuple(c_in.shape) != (m, n):
            raise ValueError(f"C_in has shape {c_in.shape}, expected {(m, n)}")

        # Steps 4: user layout -> native layout (transposes folded in).
        # With ABFT on, redistribution traffic travels under a per-tile
        # CRC envelope (corrupted transfers are re-requested).
        verify = self.abft is not None
        a_nat = redistribute(a, plan.a_dist, transpose=transa, phase="redist",
                             conjugate=conja, verify=verify)
        b_nat = redistribute(b, plan.b_dist, transpose=transb, phase="redist",
                             conjugate=conjb, verify=verify)

        out_dtype = np.promote_types(a.dtype, b.dtype)
        if self.role is None:
            # Idle rank: owns nothing of native C; still participates in
            # the closing redistribution.
            c_nat = DistMatrix(comm, plan.c_dist, [])
        else:
            role = self.role
            a_piece, b_piece = a_nat.local_block(), b_nat.local_block()

            # Measured working set: tagged memtrace spans charged as the
            # engine's buffers come to life, freed together when the
            # multiply hands its result back.  The resident watermark
            # this produces is what the eq. (11) audit and the pebbling
            # bound consume (docs/OBSERVABILITY.md) — the analytic
            # estimate this replaces is recoverable as
            # ``plan.grid.memory_words(m, n, k)``.
            held: list[tuple[str, int]] = []

            def _hold(purpose: str, nbytes: int) -> None:
                comm.mem_alloc(purpose, nbytes)
                held.append((purpose, int(nbytes)))

            try:
                abft_on = self.abft is not None
                if abft_on:
                    from ..ft.abft import AbftGuard, augment_a, augment_b

                a_run, b_run = a_piece, b_piece
                # With ABFT and replication, augment *before* step 5: the
                # checksum border commutes bit-identically with the
                # allgather concatenation, so the replicated operand
                # arrives carrying its own checksums and the replicate
                # wire traffic itself is covered.
                early_aug = abft_on and plan.c > 1
                if early_aug:
                    a_run = a_run.astype(out_dtype, copy=False)
                    b_run = b_run.astype(out_dtype, copy=False)
                    pre = a_run.nbytes + b_run.nbytes
                    a_run = augment_a(a_run)
                    b_run = augment_b(b_run)
                    _hold("abft.checksum", a_run.nbytes + b_run.nbytes - pre)

                # Step 5: replicate the smaller operand across Cannon groups.
                with comm.phase("replicate", c=plan.c,
                                operand="A" if plan.replicates_a else "B"):
                    if plan.c > 1:
                        if plan.replicates_a:
                            if early_aug:
                                a_run = self._replicate_verified(
                                    a_run, axis=1, row_checksum=True
                                )
                            else:
                                a_run = replicate_block(
                                    self.replica_comm, a_run, axis=1
                                )
                        else:
                            if early_aug:
                                b_run = self._replicate_verified(
                                    b_run, axis=0, row_checksum=False
                                )
                            else:
                                b_run = replicate_block(
                                    self.replica_comm, b_run, axis=0
                                )

                a_blk = plan.a_cannon_block(role)
                b_blk = plan.b_cannon_block(role)
                border = 1 if early_aug else 0
                a_body_shape = (a_run.shape[0] - border, a_run.shape[1])
                b_body_shape = (b_run.shape[0], b_run.shape[1] - border)
                if a_body_shape != a_blk.shape:
                    raise AssertionError(
                        f"A block shape {a_body_shape} != planned {a_blk.shape}"
                    )
                if b_body_shape != b_blk.shape:
                    raise AssertionError(
                        f"B block shape {b_body_shape} != planned {b_blk.shape}"
                    )
                a_border_nbytes = border * a_run.shape[1] * a_run.itemsize
                b_border_nbytes = border * b_run.shape[0] * b_run.itemsize
                _hold("tile.a", a_run.nbytes - a_border_nbytes)
                _hold("tile.b", b_run.nbytes - b_border_nbytes)

                # Step 6: Cannon's algorithm inside the s x s group.  With
                # ABFT on, the unskewed blocks get Huang-Abraham checksum
                # borders first (already present when replication added
                # them early); the kernel itself is unchanged and the
                # bordered result is verified (and recomputed if
                # corrupted) before the reduce-scatter strips it.
                if not early_aug:
                    a_run = a_run.astype(out_dtype, copy=False)
                    b_run = b_run.astype(out_dtype, copy=False)
                guard = None
                with comm.phase("cannon", s=plan.s,
                                shifts_per_gemm=self.shifts_per_gemm,
                                abft=abft_on):
                    cart = Cart2D(self.cannon_comm, plan.s, plan.s)
                    if abft_on:
                        if not early_aug:
                            pre = a_run.nbytes + b_run.nbytes
                            a_run = augment_a(a_run)
                            b_run = augment_b(b_run)
                            _hold("abft.checksum",
                                  a_run.nbytes + b_run.nbytes - pre)
                        k0, k1 = plan.k_range(role.ik)
                        guard = AbftGuard(
                            comm=comm,
                            group_comm=self.cannon_comm,
                            policy=self.abft,
                            recompute=lambda: cannon_multiply(
                                cart, a_run, b_run,
                                shifts_per_gemm=self.shifts_per_gemm,
                            ),
                            flops=2.0 * a_run.shape[0] * b_run.shape[1] * (k1 - k0),
                        )
                    c_loc = cannon_multiply(
                        cart, a_run, b_run,
                        shifts_per_gemm=self.shifts_per_gemm,
                    )
                _hold("tile.c", c_loc.nbytes)

                # Step 7: reduce-scatter partial C blocks across k-groups.
                # Verification runs first so the retention hook only ever
                # sees a partial the ABFT guard has already vouched for;
                # the checksum border then rides *through* the reduction
                # and each reduced strip is re-verified on arrival.
                with comm.phase("reduce", pk=plan.pk):
                    if guard is not None:
                        c_loc = guard.verified_bordered(c_loc)
                        if on_partial is not None:
                            on_partial(
                                role, np.ascontiguousarray(c_loc[:-1, :-1])
                            )
                    elif on_partial is not None:
                        on_partial(role, c_loc)
                    # The operand tiles (and checksum borders) die once
                    # the partial is verified — the ABFT recompute can no
                    # longer fire — so release them before the
                    # reduce-scatter stages its scratch strip on top.
                    dead = [h for h in held
                            if h[0] in ("tile.a", "tile.b", "abft.checksum")]
                    for purpose, nbytes in dead:
                        comm.mem_free(purpose, nbytes)
                        held.remove((purpose, nbytes))
                    by_cols = plan.c_split_cols(role.i, role.j)
                    strip = reduce_partial_c(
                        self.kred_comm, c_loc, by_cols,
                        abft=guard, pre_verified=True,
                    )

                rect = plan.c_owned(comm.rank)
                if rect is None or rect.is_empty():
                    tiles = []
                else:
                    strip = np.ascontiguousarray(strip)
                    if alpha != 1.0:
                        strip = alpha * strip
                    tiles = [strip]
                c_nat = DistMatrix(comm, plan.c_dist, tiles)
            finally:
                for purpose, nbytes in held:
                    comm.mem_free(purpose, nbytes)

        # Accumulation operand: fold in beta * C_in (in the native layout,
        # where every rank holds exactly its strip).
        if beta != 0.0 and c_in is not None:
            c_prev = redistribute(c_in, plan.c_dist, phase="redist",
                                  verify=verify)
            tiles = [
                t + beta * p.astype(t.dtype, copy=False)
                for t, p in zip(c_nat.tiles, c_prev.tiles)
            ]
            c_nat = DistMatrix(comm, plan.c_dist, tiles)

        # Step 8: native layout -> user layout.
        if c_dist is None:
            return c_nat
        return redistribute(c_nat, c_dist, phase="redist", verify=verify)


def ca3dmm_matmul(
    a: DistMatrix,
    b: DistMatrix,
    c_dist: Distribution | None = None,
    transa: bool = False,
    transb: bool = False,
    grid: GridSpec | None = None,
    l: float = DEFAULT_L,
    shifts_per_gemm: int = 1,
    alpha: float = 1.0,
    beta: float = 0.0,
    c_in: DistMatrix | None = None,
) -> DistMatrix:
    """One-shot ``C = alpha * op(A) x op(B) + beta * C_in`` with CA3DMM."""
    m, n, k = problem_dims(a, b, transa, transb)
    engine = Ca3dmm(a.comm, m, n, k, grid=grid, l=l, shifts_per_gemm=shifts_per_gemm)
    return engine.multiply(
        a, b, c_dist=c_dist, transa=transa, transb=transb,
        alpha=alpha, beta=beta, c_in=c_in,
    )
