"""Huang–Abraham ABFT: detect, locate, and correct corrupted partials.

A seeded ``corrupt`` link rule flips elements inside Cannon shift
messages.  With ``abft=True`` the checksum rows/columns carried through
the multiplication must catch the mismatch in ``reduce_c`` and the
recompute must restore the *bit-identical* clean answer (the one-shot
``corrupt_at`` hits are consumed, so the re-run is clean and the
summation order is unchanged).  Without ABFT the same plan silently
produces a wrong C — that contrast is the whole point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Ca3dmm
from repro.ft import (
    AbftPolicy,
    CorruptionError,
    augment_a,
    augment_b,
    block_checksum_errors,
    resilient_multiply,
)
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, LinkFault, run_spmd
from tests.conftest import assert_replay_identical

M, N, K, P = 24, 20, 28, 8
REF = dense_random(M, K, seed=7) @ dense_random(K, N, seed=8)

CORRUPT = FaultPlan(seed=11, links=(LinkFault(phase="cannon", corrupt_at=(0,)),))


def _mult(abft):
    def f(comm):
        a = DistMatrix.from_global(
            comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
        )
        b = DistMatrix.from_global(
            comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
        )
        eng = Ca3dmm(comm, M, N, K, abft=abft)
        c = eng.multiply(a, b, c_dist=BlockCol1D((M, N), comm.size))
        return c.to_global()

    return f


def _run(faults=None, abft=True, fn=None, record_events=True):
    return run_spmd(
        P, fn or _mult(abft), machine=laptop(),
        record_events=record_events, faults=faults,
    )


# ------------------------------------------------------ checksum math -- #
class TestChecksumPrimitives:
    def test_augmented_product_carries_checksums(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 4))
        c_f = augment_a(a) @ augment_b(b)
        assert c_f.shape == (6, 5)
        np.testing.assert_allclose(c_f[:-1, :-1], a @ b, rtol=1e-12)
        assert block_checksum_errors(c_f, rel_tol=1e-8) == ((), ())

    def test_errors_locate_flipped_element(self):
        rng = np.random.default_rng(1)
        c_f = augment_a(rng.standard_normal((5, 7))) @ augment_b(
            rng.standard_normal((7, 4))
        )
        c_f[2, 1] += 10.0
        bad_rows, bad_cols = block_checksum_errors(c_f, rel_tol=1e-8)
        assert bad_rows == (2,)
        assert bad_cols == (1,)

    def test_corner_only_mismatch_is_reported(self):
        rng = np.random.default_rng(2)
        c_f = augment_a(rng.standard_normal((3, 3))) @ augment_b(
            rng.standard_normal((3, 3))
        )
        c_f[-1, -1] += 1.0
        assert block_checksum_errors(c_f, rel_tol=1e-8) == ((-1,), (-1,))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AbftPolicy(rel_tol=-1.0)
        with pytest.raises(ValueError):
            AbftPolicy(max_recomputes=-1)


# ---------------------------------------------------------- end to end -- #
class TestAbftEndToEnd:
    def test_corruption_without_abft_is_wrong(self):
        res = _run(faults=CORRUPT, abft=False)
        assert res.metrics.corruptions_injected >= 1
        assert res.metrics.corruptions_detected == 0
        assert not np.allclose(res.results[0], REF)

    def test_abft_detects_and_corrects_bit_identical(self):
        clean = _run(abft=True)
        faulted = _run(faults=CORRUPT, abft=True)
        assert np.array_equal(clean.results[0], faulted.results[0])
        m = faulted.metrics
        assert m.corruptions_injected >= 1
        assert m.corruptions_detected >= 1
        assert m.recomputed_flops > 0.0
        for key in ("corruptions_injected", "corruptions_detected",
                    "recomputed_flops"):
            assert key in m.to_dict()

    def test_recompute_span_recorded(self):
        faulted = _run(faults=CORRUPT, abft=True)
        assert any(s.name == "abft_recompute" for s in faulted.spans)

    def test_clean_abft_run_detects_nothing(self):
        res = _run(abft=True)
        m = res.metrics
        assert (m.corruptions_injected, m.corruptions_detected) == (0, 0)
        assert m.recomputed_flops == 0.0
        assert float(np.abs(res.results[0] - REF).max()) <= 1e-9 * max(
            1.0, float(np.abs(REF).max())
        )

    def test_deterministic_replay(self):
        first, second = (_run(faults=CORRUPT, abft=True) for _ in range(2))
        assert_replay_identical(first, second)
        assert first.metrics.corruptions_detected >= 1

    def test_persistent_corruption_exhausts_recomputes(self):
        """An unfiltered corrupt_prob=1 rule poisons the recompute
        traffic too (recomputes run under the ``reduce`` phase, so a
        ``phase="cannon"`` rule would spare them), and the guard must
        give up after max_recomputes rounds, typed."""
        plan = FaultPlan(seed=11, links=(LinkFault(corrupt_prob=1.0),))
        with pytest.raises(RuntimeError) as ei:
            _run(faults=plan, abft=True)
        assert isinstance(ei.value.__cause__, CorruptionError)

    def test_resilient_multiply_abft_path(self):
        """The recovery driver's abft=True flag reaches the engine."""

        def f(comm):
            a = DistMatrix.from_global(
                comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
            )
            b = DistMatrix.from_global(
                comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
            )
            c = resilient_multiply(
                comm, a, b,
                c_dist=lambda cm: BlockCol1D((M, N), cm.size),
                abft=True,
            )
            return c.to_global()

        res = _run(faults=CORRUPT, fn=f)
        assert res.metrics.corruptions_detected >= 1
        assert float(np.abs(res.results[0] - REF).max()) <= 1e-9 * max(
            1.0, float(np.abs(REF).max())
        )
