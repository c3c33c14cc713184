"""Resilience property sweep (the ISSUE 9 acceptance criterion).

For a random (m, n, k, P), a random corruption site (replicate /
cannon / reduce / redist, or none), and a random kill schedule, the
end-to-end resilient multiplication must either

* finish with a result that matches the clean run — **bit-for-bit**
  when no rank actually died (one-shot corruption is consumed and the
  recompute replays the clean summation order), within the usual
  float tolerance when a kill forced a shrink-replan (the re-planned
  grid legitimately changes the reduction order) — or
* abort every rank with a *typed* fault-tolerance error,

and a replay must agree observably (results, traces, metrics, raw
logs) with every successful run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ft import FtError, resilient_multiply
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, LinkFault, RankFault, run_spmd
from tests.conftest import assert_replay_identical

SITES = (None, "replicate", "cannon", "reduce", "redist")


@settings(max_examples=10, deadline=None)
@given(
    m=st.integers(min_value=8, max_value=32),
    n=st.integers(min_value=8, max_value=32),
    k=st.integers(min_value=8, max_value=32),
    P=st.sampled_from([4, 8, 16]),
    site=st.sampled_from(SITES),
    kill=st.sampled_from([None, 0, 1, 2]),
)
def test_corrupt_or_kill_anywhere_is_correct_or_typed(m, n, k, P, site, kill):
    links = (
        (LinkFault(corrupt_phase=site, corrupt_at=(0,)),) if site else ()
    )
    ranks = (
        (RankFault(rank=kill, phase="cannon", occurrence=1, kill=True),)
        if kill is not None else ()
    )
    faults = (
        FaultPlan(seed=11, links=links, ranks=ranks)
        if (links or ranks) else None
    )

    def f(comm):
        a = DistMatrix.from_global(
            comm, BlockCol1D((m, k), comm.size), dense_random(m, k, seed=7)
        )
        b = DistMatrix.from_global(
            comm, BlockCol1D((k, n), comm.size), dense_random(k, n, seed=8)
        )
        c = resilient_multiply(
            comm, a, b,
            c_dist=lambda cm: BlockCol1D((m, n), cm.size),
            abft=True,
            max_recoveries=2,
        )
        return c.to_global()

    def attempt():
        try:
            return run_spmd(
                P, f, machine=laptop(), record_events=True, faults=faults,
            ), None
        except RuntimeError as exc:
            return None, exc

    res_a, err_a = attempt()
    res_b, err_b = attempt()
    assert (err_a is None) == (err_b is None)

    if err_a is not None:
        for err in (err_a, err_b):
            assert isinstance(err.__cause__, FtError)
        return

    assert_replay_identical(res_a, res_b)
    clean = run_spmd(P, f, machine=laptop())
    got = next(r for r in res_a.results if r is not None)
    ref = clean.results[0]
    if not res_a.failed_ranks:
        # corruption only: correction replays the clean summation order
        assert np.array_equal(got, ref)
        if site is not None:
            # any injected corruption was caught, never folded into C
            m_ = res_a.metrics
            assert m_.corruptions_detected_by_phase.get(site, 0) >= \
                min(1, m_.corruptions_injected_by_phase.get(site, 0))
    else:
        # a kill forced a shrink-replan: the re-planned grid changes the
        # summation order, and corruption injected into the aborted
        # attempt may be *discarded* with it rather than detected — the
        # property is that it never reaches C.
        tol = 1e-9 * max(1.0, float(np.abs(ref).max()))
        assert float(np.abs(got - ref).max()) <= tol
