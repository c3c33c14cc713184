"""CA3DMM end-to-end — Algorithm 1 of the paper, executed engine.

:class:`Ca3dmm` sets up the grid, subcommunicators, and native layouts
once (the paper's one-time initialization, excluded from its timings) and
can then multiply any number of matrix pairs of the planned shape — the
pattern of its motivating applications (repeated density-matrix
purification, Rayleigh-Ritz projections in SCF iterations).  It makes
its Cannon, replica and k-reduction groups — the table the shared plan
holds — with one :meth:`~repro.mpi.comm.Comm.create_groups`: one context
agreement over its communicator (none when every group is one rank, ``s``,
``c`` and ``pk`` all 1), and a group of one rank made locally.

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

:meth:`Ca3dmm.multiply` is those five steps and nothing else: steps 4 and
8 are :func:`~repro.core.steps.enter` and :func:`~repro.core.steps.leave`
— the ones every schedule in :mod:`repro.baselines` goes through — steps
5 to 7 the three step functions, and the memory spans of its buffers
live in :class:`_Held`.  What checksum protection adds to each step
lives in :mod:`repro.ft` (the table in docs/RECOVERY.md): the engine
holds that one object, or ``None``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import args
from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from ..mpi.comm import Comm
from ..mpi.datatypes import freeze
from ..mpi.topology import Cart2D
from ..grid.optimizer import DEFAULT_L, GridSpec
from .cannon import cannon_multiply
from .plan import shared_plan
from .reduce_c import reduce_partial_c
from .replicate import replicate_block
from .steps import enter, leave, problem_dims


class _Held:
    """The memtrace spans one multiply has open, oldest first.

    The engine's buffers come to life one by one and die in two batches
    (the operand tiles once the partial C is final, the rest when the
    multiply hands its result back), so their spans are not lexical:
    they are charged here as they are allocated and freed in allocation
    order.  The resident watermark this produces is what the eq. (11)
    audit and the pebbling bound consume (docs/OBSERVABILITY.md); the
    analytic estimate it replaced is ``plan.grid.memory_words(m, n, k)``.
    """

    def __init__(self, comm: Comm):
        self.comm = comm
        self.spans: list[tuple[str, int]] = []

    def hold(self, purpose: str, nbytes: int) -> None:
        self.comm.mem_alloc(purpose, nbytes)
        self.spans.append((purpose, int(nbytes)))

    def release(self, keep: tuple[str, ...] = ()) -> None:
        for span in [s for s in self.spans if s[0] not in keep]:
            self.comm.mem_free(*span)
            self.spans.remove(span)

    def __enter__(self) -> "_Held":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


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
        self.shifts_per_gemm = args.count("shifts_per_gemm", shifts_per_gemm)
        # Shared (memoized) plan: every rank of the run would build the
        # identical plan, and its distribution tables are O(P) each.
        self.plan = shared_plan(
            m, n, k, comm.size, grid=grid, l=l,
            memory_limit_words=memory_limit_words,
        )
        # Checksum protection (docs/RECOVERY.md) is one object, built
        # only when asked for; every step below asks whether it is there.
        self.guard = None
        if abft:
            from ..ft.abft import AbftGuard  # deferred: repro.ft imports us

            self.guard = AbftGuard(comm, abft)
        plan = self.plan
        # All three kinds of group from the plan's table in one context
        # agreement (none when every group is one rank, and a group of
        # one is made locally); idle ranks get no subcommunicator (they
        # only join redistribution).
        self.cannon_comm, self.replica_comm, self.kred_comm = comm.create_groups(
            plan.groups(comm.rank), plan.largest_group
        )
        self.role = plan.role(comm.rank)

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
        called on every active rank with its partial C block — verified
        first, its checksums stripped, when protection is on — before the
        k-group reduce-scatter consumes it.  The fault-tolerance layer uses this
        retention hook to keep surviving k-group partials across a
        failure (partial-result reuse, docs/RECOVERY.md); the block is
        *unscaled* (``alpha`` is applied after the reduce).
        """
        plan, comm, role = self.plan, self.comm, self.role
        guard, verify = self.guard, self.guard is not None
        dims = problem_dims(a, b, transa, transb)
        if dims != (plan.m, plan.n, plan.k):
            raise ValueError(f"engine planned for {(plan.m, plan.n, plan.k)}, call needs {dims}")
        if beta != 0.0 and c_in is None:
            raise ValueError("beta != 0 requires the c_in accumulation operand")
        if c_in is not None and tuple(c_in.shape) != (plan.m, plan.n):
            raise ValueError(f"C_in has shape {c_in.shape}, expected {(plan.m, plan.n)}")
        out_dtype = np.promote_types(a.dtype, b.dtype)
        keep = None if on_partial is None else partial(on_partial, role)

        # Step 4: user layout -> native layout (op codes folded in; a
        # protected run's conversions travel under a per-tile CRC).
        native = (plan.a_dist, plan.b_dist, plan.c_dist)
        a_run, b_run = enter(a, b, native, transa, transb, verify=verify)

        strip = np.zeros((0, 0), out_dtype)  # an idle rank's share: it joins steps 4 and 8 only
        with _Held(comm) as held:
            if role is not None:
                # Checksums commute with the allgather, so a plan that
                # replicates adds them first and step 5 carries its own.
                if verify and plan.c > 1:
                    a_run, b_run = guard.augment(a_run, b_run, out_dtype, held.hold)

                # Step 5: replicate the smaller operand (its piece frozen: no hop copies it).
                with comm.phase("replicate", c=plan.c,
                                operand="A" if plan.replicates_a else "B"):
                    if plan.c > 1:
                        replicate = guard.replicate if verify else replicate_block
                        if plan.replicates_a:
                            a_run = replicate(self.replica_comm, freeze(a_run), axis=1)
                        else:
                            b_run = replicate(self.replica_comm, freeze(b_run), axis=0)
                a_blk, b_blk = plan.a_cannon_block(role), plan.b_cannon_block(role)
                if (a_run.shape[1], b_run.shape[0]) != (a_blk.cols, b_blk.rows):
                    raise AssertionError(
                        f"Cannon blocks span {a_run.shape[1]} and {b_run.shape[0]} of k, "
                        f"planned {a_blk.cols} and {b_blk.rows}"
                    )
                held.hold("tile.a", a_blk.area * a_run.itemsize)
                held.hold("tile.b", b_blk.area * b_run.itemsize)

                # Step 6: Cannon's algorithm inside the s x s group (the
                # same kernel whether or not the blocks carry checksums).
                a_run = a_run.astype(out_dtype, copy=False)
                b_run = b_run.astype(out_dtype, copy=False)
                with comm.phase("cannon", s=plan.s,
                                shifts_per_gemm=self.shifts_per_gemm, abft=verify):
                    cart = Cart2D(self.cannon_comm, plan.s, plan.s)
                    if verify and plan.c == 1:
                        a_run, b_run = guard.augment(a_run, b_run, out_dtype, held.hold)
                    # This rank allocated both blocks and nobody writes them:
                    # frozen, they travel every shift without a copy.
                    cannon = partial(cannon_multiply, cart, freeze(a_run), freeze(b_run),
                                     shifts_per_gemm=self.shifts_per_gemm)
                    c_loc = cannon()
                held.hold("tile.c", c_loc.nbytes)

                # Step 7: reduce-scatter partial C blocks across k-groups.
                # The hook only ever sees a final partial: a protected one
                # is verified (and Cannon re-run if it must be) first.
                with comm.phase("reduce", pk=plan.pk):
                    if verify:
                        k0, k1 = plan.k_range(role.ik)
                        c_loc = guard.verified_bordered(
                            self.cannon_comm, c_loc, cannon, 2.0 * c_loc.size * (k1 - k0), keep
                        )
                    elif keep is not None:
                        keep(c_loc)
                    # The operand tiles die here — nothing can ask for a
                    # re-run any more — before the reduce-scatter stages
                    # its scratch strip on top.
                    held.release(keep=("tile.c",))
                    del a_run, b_run, cannon
                    by_cols = plan.c_split_cols(role.i, role.j)
                    strip = reduce_partial_c(self.kred_comm, c_loc, by_cols, abft=guard)
                    del c_loc  # the partial dies here, not after step 8's conversion
        if alpha != 1.0:
            strip = alpha * np.ascontiguousarray(strip)

        # Step 8: fold in beta * C_in; native layout -> user layout.
        return leave(comm, plan.c_dist, strip, c_dist, beta=beta, c_in=c_in, verify=verify)


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
