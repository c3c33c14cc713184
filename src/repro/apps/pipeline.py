"""A multi-call matmul pipeline: the checkpoint/restart demo workload.

The paper's consumers never multiply once: purification, CholeskyQR,
and subspace iteration all chain dozens of PGEMMs whose outputs feed the
next call.  ``matmul_chain`` distills that shape to its essence — a
fixed operand ``A`` carried across the whole run and an iterate ``X``
rewritten by every call::

    X_{t+1} = A    @ X_t    (t even;  A is m x k, X_t is k x n)
    X_{t+1} = A^T  @ X_t    (t odd;   X_t is m x n)

so the iterate alternates between (m, n) and (k, n) and every call costs
``2*m*n*k`` flops.  Each step runs through
:func:`~repro.ft.resilient_multiply` (in-call recovery with
partial-result reuse) or the plain engine, under
:func:`~repro.ckpt.run_pipeline` (checkpoint/restart between calls) —
the workload behind the ``repro checkpoint`` CLI and the
checkpoint-smoke CI job.
"""

from __future__ import annotations

import numpy as np

from ..ckpt import CheckpointPolicy, CheckpointStore, PipelineResult, PipelineStep, run_pipeline
from ..core.ca3dmm import Ca3dmm
from ..ft.recovery import resilient_multiply
from ..layout.distributions import BlockCol1D
from ..layout.matrix import DistMatrix, dense_random
from ..mpi.comm import Comm


def _chain_operand(m: int, n: int, seed: int, dtype) -> np.ndarray:
    """One of the chain's seeded operands: the float64 :func:`dense_random`
    matrix cast to ``dtype`` (a complex chain has real operands)."""
    return dense_random(m, n, seed=seed).astype(dtype)


def matmul_chain_steps(
    m: int,
    n: int,
    k: int,
    calls: int,
    *,
    resilient: bool = True,
    max_recoveries: int = 1,
    abft: bool = False,
) -> list[PipelineStep]:
    """The chain's :class:`~repro.ckpt.PipelineStep` list.

    Step ``t`` computes ``X <- op(A) @ X`` with ``op`` alternating
    identity / transpose, so shapes stay consistent for any length.
    ``resilient=True`` routes each call through
    :func:`~repro.ft.resilient_multiply` (a kill is healed inside the
    step, exercising partial-result reuse); ``False`` uses the plain
    engine, so a kill escapes to :func:`~repro.ckpt.run_pipeline` and
    exercises the restart path instead.
    """
    steps: list[PipelineStep] = []
    for t in range(calls):
        trans = bool(t % 2)

        def fn(comm: Comm, state, _trans=trans):
            a, x = state["A"], state["X"]
            if resilient:
                y = resilient_multiply(
                    comm, a, x, transa=_trans, abft=abft,
                    max_recoveries=max_recoveries,
                )
            else:
                om, on = (k, n) if _trans else (m, n)
                engine = Ca3dmm(comm, om, on, k if not _trans else m)
                y = engine.multiply(a, x, transa=_trans)
            return {"X": y}

        steps.append(PipelineStep(name=f"call{t}", fn=fn, flops=2.0 * m * n * k))
    return steps


def matmul_chain(
    comm: Comm,
    m: int,
    n: int,
    k: int,
    *,
    calls: int = 4,
    store: CheckpointStore | None = None,
    policy: CheckpointPolicy | None = None,
    resilient: bool = True,
    max_recoveries: int = 1,
    max_restarts: int = 2,
    resume: bool = False,
    abft: bool = False,
    dtype=np.float64,
    seeds: tuple[int, int] = (7, 8),
) -> PipelineResult:
    """Run the alternating chain for ``calls`` steps under checkpointing.

    The carried state is ``{"A": m x k, "X": k x n iterate}``; both are
    seeded deterministically so :func:`matmul_chain_reference` can check
    any rank count against numpy.  Each operand is generated once per
    world (:meth:`~repro.layout.matrix.DistMatrix.from_world`), however
    many ranks and restarts slice it.  Collective over ``comm``.
    """
    dt = np.dtype(dtype)

    def init(c: Comm):
        return {
            "A": DistMatrix.from_world(
                c, BlockCol1D((m, k), c.size), _chain_operand, m, k, seeds[0], dt),
            "X": DistMatrix.from_world(
                c, BlockCol1D((k, n), c.size), _chain_operand, k, n, seeds[1], dt),
        }

    steps = matmul_chain_steps(
        m, n, k, calls,
        resilient=resilient, max_recoveries=max_recoveries, abft=abft,
    )
    return run_pipeline(
        comm, steps, init,
        store=store, policy=policy,
        max_restarts=max_restarts, resume=resume,
    )


def matmul_chain_reference(
    m: int,
    n: int,
    k: int,
    calls: int = 4,
    dtype=np.float64,
    seeds: tuple[int, int] = (7, 8),
) -> np.ndarray:
    """The chain's final iterate, computed serially with numpy."""
    a = _chain_operand(m, k, seeds[0], dtype)
    x = _chain_operand(k, n, seeds[1], dtype)
    for t in range(calls):
        x = (a.T if t % 2 else a) @ x
    return x
