"""A ScaLAPACK-flavoured PDGEMM facade over CA3DMM.

Real applications reach PGEMM through ScaLAPACK's calling convention —
op codes, scalars, and block-cyclic matrices.  This facade accepts
exactly that shape of call and runs CA3DMM underneath, converting
to/from the caller's layouts through the redistribution machinery (the
integration path the paper's Section V discusses for adopting
library-native layouts in existing codes):

    c = pdgemm("N", "T", alpha, a, b, beta, c)

Unlike the raw engine, ``pdgemm`` infers (m, n, k) from the operands
and always returns C in the same distribution as the ``c`` operand
(or, when ``c`` is None and beta is 0, in a caller-chosen ``c_dist``).
"""

from __future__ import annotations

from ..layout.distributions import Distribution
from ..layout.matrix import DistMatrix
from .ca3dmm import Ca3dmm
from .steps import problem_dims


def pdgemm(
    transa: str,
    transb: str,
    alpha: float,
    a: DistMatrix,
    b: DistMatrix,
    beta: float = 0.0,
    c: DistMatrix | None = None,
    c_dist: Distribution | None = None,
    engine: Ca3dmm | None = None,
    abft=None,
) -> DistMatrix:
    """``C = alpha * op(A) op(B) + beta * C`` in the caller's layouts.

    ``transa``/``transb`` are 'N', 'T', or 'C'.  When ``c`` is given its
    distribution defines the output layout; otherwise ``c_dist`` (or the
    library-native layout if neither is given).  ``engine`` may carry a
    pre-planned :class:`Ca3dmm` for repeated same-shape calls.
    ``abft`` (True or an :class:`~repro.ft.abft.AbftPolicy`) turns on
    checksum protection of the Cannon stage when no pre-planned engine
    is given.
    """
    m, n, k = problem_dims(a, b, transa, transb)
    if alpha != alpha or beta != beta:  # NaN (also complex NaN)
        raise ValueError(f"alpha/beta must not be NaN, got alpha={alpha}, beta={beta}")
    if beta != 0.0 and c is None:
        raise ValueError("beta != 0 requires the C operand")
    if c is not None and c_dist is not None and c_dist != c.dist:
        raise ValueError(
            "c and c_dist conflict: the C operand's distribution defines "
            "the output layout; drop c_dist or pass one equal to c.dist"
        )
    out_dist = c.dist if c is not None else c_dist
    eng = engine if engine is not None else Ca3dmm(a.comm, m, n, k, abft=abft)
    return eng.multiply(
        a, b,
        c_dist=out_dist,
        transa=transa,
        transb=transb,
        alpha=alpha,
        beta=beta,
        c_in=c if beta != 0.0 else None,
    )
