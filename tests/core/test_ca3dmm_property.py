"""Property-based end-to-end CA3DMM (hypothesis).

Random shapes, world sizes, transposes, and output layouts — every
combination must reproduce the serial product exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ca3dmm_matmul
from repro.layout import Block2D, BlockCol1D, BlockRow1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import run_spmd


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    k=st.integers(1, 40),
    p=st.integers(1, 12),
    transa=st.booleans(),
    transb=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_ca3dmm_matches_numpy(m, n, k, p, transa, transb, seed):
    a_shape = (k, m) if transa else (m, k)
    b_shape = (n, k) if transb else (k, n)

    def f(comm):
        a_mat = dense_random(*a_shape, seed=seed)
        b_mat = dense_random(*b_shape, seed=seed + 1)
        a = DistMatrix.from_global(comm, BlockCol1D(a_shape, comm.size), a_mat)
        b = DistMatrix.from_global(comm, BlockRow1D(b_shape, comm.size), b_mat)
        c = ca3dmm_matmul(a, b, transa=transa, transb=transb)
        ref = (a_mat.T if transa else a_mat) @ (b_mat.T if transb else b_mat)
        return bool(np.allclose(c.to_global(), ref, atol=1e-9 * max(m, n, k)))

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    assert all(res.results)


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(2, 30),
    n=st.integers(2, 30),
    k=st.integers(2, 30),
    p=st.integers(2, 9),
    pr=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_output_layout_roundtrip(m, n, k, p, pr, seed):
    """Any requested C layout delivers the same global values."""
    pr = min(pr, p)
    pc = max(1, p // pr)

    def f(comm):
        a = DistMatrix.random(comm, BlockCol1D((m, k), comm.size), seed=seed)
        b = DistMatrix.random(comm, BlockCol1D((k, n), comm.size), seed=seed + 1)
        c_native = ca3dmm_matmul(a, b)
        c_2d = ca3dmm_matmul(a, b, c_dist=Block2D((m, n), comm.size, pr, pc))
        return bool(np.allclose(c_native.to_global(), c_2d.to_global(), atol=1e-10))

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    assert all(res.results)


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    k=st.integers(1, 30),
    p=st.integers(1, 10),
)
def test_traffic_never_exceeds_schedule_bound(m, n, k, p):
    """Executed per-rank traffic stays within the schedule's Q plus
    collective/pickle overheads (a structural upper bound)."""
    from repro.analysis.verify import theoretical_metrics
    from repro.core import Ca3dmm
    from repro.core.plan import Ca3dmmPlan

    plan = Ca3dmmPlan(m, n, k, p)

    def f(comm):
        eng = Ca3dmm(comm, m, n, k)
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        before = comm.transport.trace(comm.world_rank).bytes_sent
        eng.multiply(a, b)
        return comm.transport.trace(comm.world_rank).bytes_sent - before

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    q_bound = theoretical_metrics(plan).q_words * 8
    overhead = 512 * (plan.s + plan.pk + plan.c)  # pickle headers etc.
    assert max(res.results) <= q_bound * 1.2 + overhead


_OPS = {"N": lambda x: x, "T": lambda x: x.T, "C": lambda x: x.conj().T}


def _small_ints(rng, shape, dtype):
    """Small (Gaussian) integers: every product and sum below is exact
    in all four dtypes, so ABFT's tolerance never sees roundoff and the
    comparison with numpy is equality."""
    mat = rng.integers(-3, 4, shape).astype(dtype)
    if np.dtype(dtype).kind == "c":
        mat = mat + 1j * rng.integers(-3, 4, shape)
    return mat.astype(dtype)


@settings(deadline=None)  # max_examples is the profile's: 100, or 2 000 under ``thorough``
@given(
    dims=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    p=st.sampled_from([1, 2, 3, 5, 7, 8, 12]),
    dtype=st.sampled_from(["float32", "float64", "complex64", "complex128"]),
    c_dtype=st.sampled_from(["float32", "float64", "complex64", "complex128"]),
    transa=st.sampled_from("NTC"),
    transb=st.sampled_from("NTC"),
    alpha=st.sampled_from([1.0, -2.0, 0.5, 2 - 1j]),
    beta=st.sampled_from([0.0, 1.0, -0.5, 1j]),
    with_c=st.booleans(),
    abft=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_pdgemm_matches_numpy(dims, p, dtype, c_dtype, transa, transb, alpha, beta,
                              with_c, abft, seed):
    """The one entry point applications use, against
    ``alpha * op(A) @ op(B) + beta * C`` — values and dtype (numpy's
    promotion, ``C`` included) — over every dtype, op code and scalar,
    with and without a C operand, checksums off and on, idle ranks and
    worlds larger than the matrices."""
    from repro.core.pdgemm import pdgemm
    from repro.layout import BlockCyclic2D

    m, n, k = dims
    rng = np.random.default_rng(seed)
    a_mat = _small_ints(rng, (k, m) if transa != "N" else (m, k), dtype)
    b_mat = _small_ints(rng, (n, k) if transb != "N" else (k, n), dtype)
    c_mat = _small_ints(rng, (m, n), c_dtype)
    if not with_c:
        beta = 0.0
    ref = alpha * (_OPS[transa](a_mat) @ _OPS[transb](b_mat))
    if beta != 0.0:
        ref = ref + beta * c_mat

    def f(comm):
        a = DistMatrix.from_global(comm, BlockCol1D(a_mat.shape, comm.size), a_mat)
        b = DistMatrix.from_global(comm, BlockRow1D(b_mat.shape, comm.size), b_mat)
        c = None
        if with_c:
            pr = 2 if comm.size > 1 else 1
            c = DistMatrix.from_global(
                comm, BlockCyclic2D((m, n), comm.size, pr, comm.size // pr, bs=2), c_mat
            )
        out = pdgemm(transa, transb, alpha, a, b, beta, c, abft=abft or None)
        return out.owned_rects, out.tiles

    res = run_spmd(p, f, machine=laptop(), deadlock_timeout=30.0)
    got = np.zeros_like(ref)
    for rects, tiles in res.results:
        for rect, tile in zip(rects, tiles):
            assert tile.dtype == ref.dtype
            got[rect.r0:rect.r1, rect.c0:rect.c1] = tile
    np.testing.assert_array_equal(got, ref)
