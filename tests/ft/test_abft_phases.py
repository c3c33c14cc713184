"""End-to-end ABFT coverage for every CA3DMM pipeline phase.

This pins the *closure* of the former coverage gap: corruption used to
be detectable only inside the Cannon shifts, while the replicate,
reduce-scatter, and closing-redistribution traffic was unguarded.  Now
a ``corrupt_phase`` link rule targeting any of the four stages must be
detected (per-phase counters), corrected, and leave the final C
**bit-identical** to the clean run — on the run and its replay, with
byte-identical ledger records.

The shape is chosen deliberately: 64x64x64 at P=16 plans a 2x4x2 grid
with c=2, the one small configuration whose schedule has traffic in
all four guarded phases (replicate, cannon, reduce, redist).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Ca3dmm
from repro.core.plan import shared_plan
from repro.ft import CorruptionError, resilient_multiply
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, LinkFault, run_spmd
from repro.obs.ledger import canonical_json, ledger_record
from tests.conftest import run_twice

M = N = K = 64
P = 16
PHASES = ("replicate", "cannon", "reduce", "redist")


def _mult(comm):
    a = DistMatrix.from_global(
        comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7)
    )
    b = DistMatrix.from_global(
        comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8)
    )
    eng = Ca3dmm(comm, M, N, K, abft=True)
    c = eng.multiply(a, b, c_dist=BlockCol1D((M, N), comm.size))
    return c.to_global()


def _one_shot(phase):
    return FaultPlan(
        seed=11, links=(LinkFault(corrupt_phase=phase, corrupt_at=(0,)),)
    )


@pytest.fixture(scope="module")
def clean():
    return run_spmd(P, _mult, machine=laptop(), record_events=True)


class TestPhaseCoverage:
    """One-shot corruption in each phase: detected, corrected, bit-identical."""

    @pytest.mark.parametrize("phase", PHASES)
    def test_detected_corrected_bit_identical_both_backends(self, clean, phase):
        # "both backends" in the id is history: it is one run plus a
        # replay now (the id is pinned by the tier-1 floor list).
        res, _ = run_twice(P, _mult, machine=laptop(), faults=_one_shot(phase))
        m = res.metrics
        assert m.corruptions_injected >= 1
        assert m.corruptions_detected >= 1
        # attribution lands in the targeted phase, and only there
        assert set(m.corruptions_injected_by_phase) == {phase}
        assert m.corruptions_injected_by_phase[phase] >= 1
        assert set(m.corruptions_detected_by_phase) == {phase}
        assert m.corruptions_detected_by_phase[phase] >= 1
        assert np.array_equal(res.results[0], clean.results[0])

    @pytest.mark.parametrize("phase", PHASES)
    def test_ledger_records_are_byte_identical(self, phase):
        """The faulted run's full provenance record — including the new
        by-phase corruption counters — replays byte-for-byte
        (run_id is the only nondeterministic field)."""
        res_a, res_b = run_twice(
            P, _mult, machine=laptop(), faults=_one_shot(phase)
        )
        plan = shared_plan(M, N, K, P)

        def rec(res):
            r = ledger_record(res, plan, f"abft.{phase}", run_id="0" * 32)
            return canonical_json(r)

        assert rec(res_a) == rec(res_b)

    def test_by_phase_counters_sum_to_totals(self, clean):
        """Per-phase counters are a partition of the scalar totals."""
        for phase in PHASES:
            res = run_spmd(
                P, _mult, machine=laptop(), record_events=True,
                faults=_one_shot(phase),
            )
            m = res.metrics
            assert sum(m.corruptions_injected_by_phase.values()) == \
                m.corruptions_injected
            assert sum(m.corruptions_detected_by_phase.values()) == \
                m.corruptions_detected

    def test_clean_run_has_empty_phase_counters(self, clean):
        m = clean.metrics
        assert m.corruptions_injected_by_phase == {}
        assert m.corruptions_detected_by_phase == {}


def test_resilient_multiply_corrects_a_replicate_flip(clean):
    """The replication step hands each allgather window over as private
    copies; a flip on the first ``replicate`` message of each link lands
    on a receiver's copy, and ``resilient_multiply(abft=True)`` detects
    it and returns the clean product, bit for bit."""

    def mult(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((M, K), comm.size), dense_random(M, K, seed=7))
        b = DistMatrix.from_global(comm, BlockCol1D((K, N), comm.size), dense_random(K, N, seed=8))
        c = resilient_multiply(comm, a, b, c_dist=BlockCol1D((M, N), comm.size), abft=True)
        return c.to_global()

    res = run_spmd(P, mult, machine=laptop(), faults=_one_shot("replicate"))
    m = res.metrics
    assert m.corruptions_injected_by_phase.get("replicate", 0) >= 1
    assert m.corruptions_detected_by_phase.get("replicate", 0) >= 1
    assert np.array_equal(res.results[0], clean.results[0])


class TestPersistentCorruptionIsTyped:
    """A ``corrupt_prob=1`` rule poisons the correction traffic too, so
    the guard for the targeted stage must give up with a typed
    :class:`CorruptionError` naming the phase.  (A cannon-only rule is
    the exception: recomputes run under the ``reduce`` phase, so they
    escape the rule and correction *succeeds* — pinned separately in
    test_abft.py.)"""

    @pytest.mark.parametrize("phase", ("replicate", "reduce", "redist"))
    def test_exhaustion_names_the_phase(self, phase):
        plan = FaultPlan(
            seed=11, links=(LinkFault(corrupt_phase=phase, corrupt_prob=1.0),)
        )
        with pytest.raises(RuntimeError) as ei:
            run_spmd(P, _mult, machine=laptop(), faults=plan)
        cause = ei.value.__cause__
        assert isinstance(cause, CorruptionError)
        assert cause.phase == phase
        assert phase in str(cause)

    def test_persistent_cannon_rule_is_still_corrected(self, clean):
        """Recomputes run under ``reduce``, so a cannon-only
        ``corrupt_prob=1`` rule cannot poison them: every round is
        caught and repaired and the result stays bit-identical."""
        plan = FaultPlan(
            seed=11,
            links=(LinkFault(corrupt_phase="cannon", corrupt_prob=1.0),),
        )
        res = run_spmd(
            P, _mult, machine=laptop(), record_events=True, faults=plan
        )
        assert res.metrics.corruptions_detected_by_phase["cannon"] >= 1
        assert np.array_equal(res.results[0], clean.results[0])
