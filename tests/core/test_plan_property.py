"""Property-based invariants of the CA3DMM plan (hypothesis)."""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.plan import Ca3dmmPlan

DIMS = st.integers(1, 300)
PROCS = st.integers(1, 64)
COMMON = dict(max_examples=80, deadline=None)


@settings(**COMMON)
@given(m=DIMS, n=DIMS, k=DIMS, P=PROCS)
def test_native_layouts_always_tile(m, n, k, P):
    plan = Ca3dmmPlan(m, n, k, P)
    plan.a_dist.validate()
    plan.b_dist.validate()
    plan.c_dist.validate()


@settings(**COMMON)
@given(m=DIMS, n=DIMS, k=DIMS, P=PROCS)
def test_group_structure(m, n, k, P):
    """Cannon groups have s^2 ranks, replica groups c, kred groups pk; every
    member of a group holds the same tuple, in its local rank order."""
    plan = Ca3dmmPlan(m, n, k, P)
    kinds = [defaultdict(set) for _ in range(3)]  # group -> the ranks holding it
    for rank in range(plan.nprocs):
        if rank >= plan.active:
            assert plan.groups(rank) == (None, None, None)
            continue
        for kind, group in zip(kinds, plan.groups(rank)):
            kind[group].add(rank)
    assert all(set(g) == holders for kind in kinds for g, holders in kind.items())
    cannon, replica, kred = kinds
    roles = [plan.role(r) for r in range(plan.active)]
    assert all([roles[r].u + plan.s * roles[r].v for r in g] == list(range(plan.s ** 2))
               for g in cannon)
    assert len(cannon) == plan.c * plan.pk
    assert all([roles[r].group for r in g] == list(range(plan.c)) for g in replica)
    assert all([roles[r].ik for r in g] == list(range(plan.pk)) for g in kred)
    assert len(kred) == plan.pm * plan.pn
    assert plan.largest_group == max(len(g) for kind in kinds for g in kind)


@settings(**COMMON)
@given(m=DIMS, n=DIMS, k=DIMS, P=PROCS)
def test_replicated_blocks_consistent(m, n, k, P):
    """All c members of a replica group share the same Cannon block, and
    their initial pieces tile it disjointly."""
    plan = Ca3dmmPlan(m, n, k, P)
    for ranks in {plan.groups(rank)[1] for rank in range(plan.active)}:
        roles = [plan.role(r) for r in ranks]
        blocks = {
            (plan.a_cannon_block(ro) if plan.replicates_a else plan.b_cannon_block(ro))
            for ro in roles
        }
        assert len(blocks) == 1
        blk = blocks.pop()
        pieces = [
            plan.a_owned(r) if plan.replicates_a else plan.b_owned(r) for r in ranks
        ]
        assert sum(p.area for p in pieces) == blk.area
        for i, a in enumerate(pieces):
            assert blk.contains(a)
            for b in pieces[i + 1 :]:
                assert a.intersect(b).is_empty()


@settings(**COMMON)
@given(m=DIMS, n=DIMS, k=DIMS, P=PROCS)
def test_cannon_blocks_compose_the_full_problem(m, n, k, P):
    """Per k-group, the union of all (i,t) A blocks is A's k-slice."""
    plan = Ca3dmmPlan(m, n, k, P)
    for ik in range(plan.pk):
        k0, k1 = plan.k_range(ik)
        area = sum(
            plan.a_block(ik, i, t).area
            for i in range(plan.pm)
            for t in range(plan.s)
        )
        # Each (i, t) covers m_range(i) x k_block(t); the pm x s grid
        # tiles m x (k1-k0) exactly.
        assert area == m * (k1 - k0)


@settings(**COMMON)
@given(m=DIMS, n=DIMS, k=DIMS, P=PROCS)
def test_memory_balance_of_initial_pieces(m, n, k, P):
    """Initial per-rank A+B words never exceed ~(mk+kn)/used by more than
    the ceil effects of nested balanced splits."""
    plan = Ca3dmmPlan(m, n, k, P)
    if plan.active == 0:
        return
    ideal = (m * k + k * n) / plan.active
    worst = 0
    for rank in range(plan.active):
        a = plan.a_owned(rank)
        b = plan.b_owned(rank)
        worst = max(worst, (a.area if a else 0) + (b.area if b else 0))
    # Nested ceil splits inflate each factor by at most (1 + p/dim)-ish;
    # use a generous structural bound that still catches real imbalance.
    assert worst <= 4 * ideal + 4 * (m + n + k + plan.s + plan.c)
