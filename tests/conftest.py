"""Shared fixtures and helpers for the test suite.

Executed-engine tests run one scheduler strand per rank; most keep
world sizes modest (P <= 32) so the whole suite stays fast on one core.
``spmd`` wraps :func:`repro.mpi.run_spmd` with test-friendly defaults;
``run_twice`` is the replay oracle: the scheduler is deterministic, so
two runs of one program must agree down to the raw logs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from repro.baselines import SCHEDULES
from repro.machine.model import laptop
from repro.mpi import run_spmd

#: ``--hypothesis-profile thorough``: 2 000 examples for the properties
#: that leave ``max_examples`` to the profile (the grid-search
#: differential suite, ``tests/grid/test_search_equivalence.py``).
settings.register_profile("thorough", max_examples=2000)


@pytest.fixture
def spmd():
    """Run an SPMD function with test-friendly defaults."""

    def _run(nprocs, fn, args=(), machine=None, deadlock_timeout=20.0):
        return run_spmd(
            nprocs,
            fn,
            args=args,
            machine=machine if machine is not None else laptop(),
            deadlock_timeout=deadlock_timeout,
        )

    return _run


def assert_replay_identical(a, b):
    """Two runs of one program agree on everything observable."""
    np.testing.assert_equal(a.results, b.results)
    assert a.traces == b.traces
    assert a.metrics.to_dict() == b.metrics.to_dict()
    assert a.tracer.events == b.tracer.events
    assert a.tracer.msglog == b.tracer.msglog
    assert a.tracer.memlog == b.tracer.memlog


def run_twice(nprocs, fn, **kw):
    """``run_spmd`` twice (recording on unless told otherwise); the
    replay must be identical.  Returns both results."""
    kw.setdefault("record_events", True)
    a = run_spmd(nprocs, fn, **kw)
    b = run_spmd(nprocs, fn, **kw)
    assert_replay_identical(a, b)
    return a, b


def schedules_for(nprocs: int) -> dict:
    """``repro.baselines.SCHEDULES``, minus Cannon on a world that is not
    a square — what every sweep over the registry iterates."""
    square = math.isqrt(nprocs) ** 2 == nprocs
    return {name: fn for name, fn in SCHEDULES.items() if square or name != "cannon"}


def assert_allclose(actual, desired, rtol=1e-12, atol=1e-12):
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(20220701)
