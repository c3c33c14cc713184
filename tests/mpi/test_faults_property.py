"""Property-based tests of the fault-plan wire format (hypothesis).

A :class:`FaultPlan` travels to CI jobs and bug reports as JSON, so the
round-trip through ``to_json``/``from_json`` must be exact for *every*
representable plan — including the ``kill`` and ``corrupt_*`` fields
used by the fault-tolerance layer — not just the handful of plans the
fixed tests pin down.  Floats are drawn without NaN (a NaN field could
never compare equal) but otherwise unconstrained.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.mpi import FaultPlan, LinkFault, RankFault, RetryPolicy
from repro.mpi.faults import ANY_RANK, validate_fault_plan

COMMON = dict(max_examples=100, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
rank_or_any = st.one_of(st.just(ANY_RANK), st.integers(0, 64))
phase = st.one_of(st.none(), st.sampled_from(["replicate", "cannon", "reduce"]))
hit_indices = st.lists(st.integers(0, 1000), max_size=4).map(
    lambda xs: tuple(sorted(set(xs)))
)

link_faults = st.builds(
    LinkFault,
    src=rank_or_any,
    dst=rank_or_any,
    phase=phase,
    latency_factor=finite.map(abs),
    jitter_s=finite.map(abs),
    reorder_window=st.integers(0, 16),
    drop_at=hit_indices,
    drop_every=st.integers(0, 100),
    drop_prob=st.floats(0.0, 1.0, allow_nan=False),
    drop_repeat=st.integers(1, 8),
    corrupt_at=hit_indices,
    corrupt_prob=st.floats(0.0, 1.0, allow_nan=False),
    corrupt_elems=st.integers(1, 8),
)


@st.composite
def rank_faults(draw):
    abort, kill = draw(
        st.sampled_from([(False, False), (True, False), (False, True)])
    )
    return RankFault(
        rank=draw(st.integers(0, 64)),
        phase=draw(phase),
        occurrence=draw(st.integers(0, 16)),
        stall_s=abs(draw(finite)),
        slowdown=abs(draw(finite)),
        abort=abort,
        kill=kill,
    )


retry_policies = st.builds(
    RetryPolicy,
    timeout_s=st.floats(1e-9, 10.0, allow_nan=False),
    max_retries=st.integers(0, 64),
    backoff=st.floats(1.0, 8.0, allow_nan=False),
)

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2 ** 63 - 1),
    links=st.lists(link_faults, max_size=4).map(tuple),
    ranks=st.lists(rank_faults(), max_size=4).map(tuple),
    retry=retry_policies,
)


@settings(**COMMON)
@given(plan=fault_plans)
def test_json_round_trip_is_exact(plan):
    assert FaultPlan.from_json(plan.to_json()) == plan


@settings(**COMMON)
@given(plan=fault_plans)
def test_dict_round_trip_is_exact(plan):
    assert FaultPlan.from_dict(plan.to_dict()) == plan


@settings(**COMMON)
@given(plan=fault_plans)
def test_serialized_form_validates_against_schema(plan):
    validate_fault_plan(plan.to_dict())


@settings(**COMMON)
@given(plan=fault_plans)
def test_round_trip_is_stable(plan):
    """A second trip through JSON changes nothing (idempotence)."""
    once = FaultPlan.from_json(plan.to_json())
    assert once.to_json() == plan.to_json()


def loosely(ints):
    """An integer field's values as a constructor also accepts them: the
    integer, or the same number as a float (``3.0``)."""
    return st.one_of(ints, ints.map(float))


def sequence(items):
    """A tuple field's values as a constructor also accepts them: a list."""
    return st.one_of(st.lists(items, max_size=4), st.lists(items, max_size=4).map(tuple))


def number(floats, lo=0, hi=10 ** 6):
    """A float field's values as a constructor also accepts them: an int."""
    return st.one_of(floats, st.integers(lo, hi))


@st.composite
def loose_link_faults(draw):
    rule_phase = draw(phase)
    return LinkFault(
        src=draw(loosely(rank_or_any)),
        dst=draw(loosely(rank_or_any)),
        phase=rule_phase,
        latency_factor=draw(number(finite.map(abs))),
        jitter_s=draw(number(finite.map(abs))),
        reorder_window=draw(loosely(st.integers(0, 16))),
        drop_at=draw(sequence(loosely(st.integers(0, 1000)))),
        drop_every=draw(loosely(st.integers(0, 100))),
        drop_prob=draw(number(st.floats(0.0, 1.0), hi=1)),
        drop_repeat=draw(loosely(st.integers(1, 8))),
        corrupt_at=draw(sequence(loosely(st.integers(0, 1000)))),
        corrupt_prob=draw(number(st.floats(0.0, 1.0), hi=1)),
        corrupt_elems=draw(loosely(st.integers(1, 8))),
        corrupt_phase=draw(st.one_of(st.none(), st.just(rule_phase) if rule_phase else phase)),
    )


@st.composite
def loose_rank_faults(draw):
    abort, kill = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
    return RankFault(
        rank=draw(loosely(st.integers(0, 64))),
        phase=draw(phase),
        occurrence=draw(loosely(st.integers(0, 16))),
        stall_s=draw(number(finite.map(abs))),
        slowdown=draw(number(finite.map(abs))),
        abort=abort,
        kill=kill,
    )


loose_fault_plans = st.builds(
    FaultPlan,
    seed=loosely(st.integers(-(2 ** 53), 2 ** 53)),
    links=sequence(loose_link_faults()),
    ranks=sequence(loose_rank_faults()),
    retry=st.builds(
        RetryPolicy,
        timeout_s=number(st.floats(1e-9, 10.0), lo=1, hi=10),
        max_retries=loosely(st.integers(0, 64)),
        backoff=number(st.floats(1.0, 8.0), lo=1, hi=8),
    ),
)


@settings(**COMMON)
@given(plan=loose_fault_plans)
def test_every_accepted_plan_survives_save_and_load(plan):
    """Whatever the constructors accept — an int in a float field, an
    integral float in an int field, a list for a tuple — ``save`` →
    ``load`` gives an equal plan whose ``to_json`` is byte-identical:
    construction and the plan schema refuse the same records, and a
    record holds each number as its field's declared type."""
    with tempfile.TemporaryDirectory() as tmp:
        loaded = FaultPlan.load(plan.save(Path(tmp) / "plan.json"))
    assert loaded == plan
    assert loaded.to_json() == plan.to_json()
