"""Which groups a CA3DMM engine makes, and what making them sends.

An engine talks in three kinds of group — its ``s x s`` Cannon group,
its ``c`` replicas and its ``pk`` k-reduction peers — and makes all of
them with one :meth:`repro.mpi.comm.Comm.create_groups`: one context
agreement (an ``allreduce`` of one int over the engine's communicator)
and no ``Comm.split``, or no agreement at all when every group is one
rank.  A group of one rank is made locally: a fresh one-rank
communicator with a context of its own and no message.  The parent's
split sequence moves alike on every rank, so a split the program makes
afterwards still matches on every rank.  The plans below have ``s = 1``,
``c = 1``, ``pk = 1``, idle ranks, a prime world and every kind of one
rank; each is also multiplied under both overlap modes, with checksum
protection and with a rank killed in Cannon's phase.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core.ca3dmm import Ca3dmm
from repro.core.plan import Ca3dmmPlan
from repro.ft import resilient_multiply
from repro.grid.optimizer import GridSpec
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, RankFault, collectives, run_spmd
from repro.mpi.comm import Comm
from repro.mpi.transport import Transport

#: name -> (m, n, k, grid); ``GridSpec(pm, pn, pk, P)``.
PLANS = {
    "s=1": (16, 48, 16, GridSpec(1, 4, 2, 8)),  # c = 4, pk = 2
    "c=1": (24, 24, 24, GridSpec(2, 2, 2, 8)),  # s = 2, pk = 2
    "pk=1": (16, 32, 8, GridSpec(2, 4, 1, 8)),  # s = 2, c = 2
    "idle": (24, 24, 24, GridSpec(2, 2, 4, 19)),  # ranks 16-18 idle
    "prime": (24, 20, 28, GridSpec(1, 1, 7, 7)),  # s = c = 1 on 7 ranks
    "all one": (12, 8, 16, GridSpec(1, 1, 1, 3)),  # nothing split, 2 idle
}
KINDS = ("cannon", "replica", "kred")


def group_sizes(plan: Ca3dmmPlan) -> dict[str, int]:
    return {"cannon": plan.s * plan.s, "replica": plan.c, "kred": plan.pk}


@pytest.fixture
def tallies(monkeypatch):
    """``(agreements, splits, posts, sent)``: ``allreduce`` calls (set-up's
    one is its context agreement) and ``Comm.split`` calls per world
    rank, messages posted per context and per sending world rank,
    counted for the run inside the test."""
    agreements: Counter = Counter()
    splits: Counter = Counter()
    posts: Counter = Counter()
    sent: Counter = Counter()
    split, post_send, allreduce = Comm.split, Transport.post_send, collectives.allreduce

    def counted_allreduce(comm, *args, **kw):
        agreements[comm.world_rank] += 1
        return allreduce(comm, *args, **kw)

    def counted_split(self, *args, **kw):
        splits[self.world_rank] += 1
        return split(self, *args, **kw)

    def counted_post(self, ctx, src, *args, **kw):
        posts[ctx] += 1
        sent[src] += 1
        return post_send(self, ctx, src, *args, **kw)

    monkeypatch.setattr(collectives, "allreduce", counted_allreduce)
    monkeypatch.setattr(Comm, "split", counted_split)
    monkeypatch.setattr(Transport, "post_send", counted_post)
    return agreements, splits, posts, sent


@pytest.mark.parametrize("name", list(PLANS))
def test_an_engine_agrees_once_and_never_splits(name, tallies):
    m, n, k, grid = PLANS[name]
    plan = Ca3dmmPlan(m, n, k, grid.nprocs, grid=grid)
    sizes = group_sizes(plan)
    agreements, splits, posts, sent = tallies
    ref = dense_random(m, k, 1) @ dense_random(k, n, 2)

    def body(comm):
        me = comm.world_rank
        before = agreements[me], splits[me], sent[me]
        eng = Ca3dmm(comm, m, n, k, grid=grid)
        made = agreements[me] - before[0], splits[me] - before[1], sent[me] - before[2]
        # What one context agreement sends from this rank, measured alike.
        mark = sent[me]
        assert comm.allreduce(0) == 0
        one_agreement = sent[me] - mark
        subs = {kind: getattr(eng, f"{kind}_comm") for kind in KINDS}
        # A split the program makes after the engine: odd and even ranks,
        # each group in descending rank order.
        user = comm.split(comm.rank % 2, -comm.rank)
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 1))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 2))
        c = eng.multiply(a, b).to_global()
        seen = {kind: None if sub is None else (sub.size, sub.rank, sub.group, sub._ctx)
                for kind, sub in subs.items()}
        return (made, one_agreement), seen, (user.group, user._ctx), comm._ctx, c

    res = run_spmd(grid.nprocs, body, machine=laptop())
    agrees = int(max(sizes.values()) > 1)
    for (agreed, split, messages), one_agreement in (r[0] for r in res.results):
        assert (agreed, split, messages) == (agrees, 0, agrees * one_agreement)
    # Every communicator any rank holds: one context per group of a kind
    # (its members agree on it), one group per context.
    groups: dict[int, set] = {}
    contexts: dict[tuple, set] = {}
    holders: Counter = Counter()
    for rank, (_, seen, (ugroup, uctx), wctx, c) in enumerate(res.results):
        np.testing.assert_allclose(c, ref, atol=1e-10)
        assert ugroup == tuple(r for r in reversed(range(grid.nprocs)) if r % 2 == rank % 2)
        held = {"user": (ugroup, uctx), "world": (tuple(range(grid.nprocs)), wctx)}
        held.update((kind, s[2:]) for kind, s in seen.items() if s is not None)
        for kind, (group, ctx) in held.items():
            groups.setdefault(ctx, set()).add(group)
            contexts.setdefault((kind, group), set()).add(ctx)
            holders[ctx] += 1
    assert all(len(g) == 1 for g in groups.values()), groups
    assert all(len(c) == 1 for c in contexts.values()), contexts
    solo = 0
    for rank, (_, seen, *_rest) in enumerate(res.results):
        idle = plan.role(rank) is None
        for kind, sub in seen.items():
            assert (sub is None) == idle, (rank, kind)
            if sub is not None and sizes[kind] == 1:
                size, local, group, ctx = sub
                assert (size, local, group) == (1, 0, (rank,))
                assert holders[ctx] == 1, "a one-rank communicator shares its context"
                assert posts[ctx] == 0, "a one-rank communicator sent a message"
                solo += 1
    assert solo == plan.active * sum(size == 1 for size in sizes.values())


def _operands(comm, m, n, k):
    a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 1))
    b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 2))
    return a, b


@pytest.mark.parametrize("mode", ["overlap none", "overlap full", "abft", "kill in cannon"])
@pytest.mark.parametrize("name", list(PLANS))
def test_the_product_is_right_with_groups_made_locally(name, mode):
    m, n, k, grid = PLANS[name]
    ref = dense_random(m, k, 1) @ dense_random(k, n, 2)
    machine = laptop()
    faults = None
    if mode == "overlap full":
        machine = dataclasses.replace(machine, overlap="full")
    if mode == "kill in cannon":
        faults = FaultPlan(seed=0, ranks=(
            RankFault(rank=0, phase="cannon", occurrence=1, kill=True),))

    def body(comm):
        a, b = _operands(comm, m, n, k)
        c_dist = BlockCol1D((m, n), comm.size)
        if mode == "kill in cannon":
            return resilient_multiply(
                comm, a, b, c_dist=lambda cm: BlockCol1D((m, n), cm.size), grid=grid,
            ).to_global()
        eng = Ca3dmm(comm, m, n, k, grid=grid, abft=mode == "abft")
        return eng.multiply(a, b, c_dist=c_dist).to_global()

    res = run_spmd(grid.nprocs, body, machine=machine, faults=faults)
    assert res.failed_ranks == ([0] if faults else [])
    survivors = [c for c in res.results if c is not None]
    assert len(survivors) == grid.nprocs - len(res.failed_ranks)
    for c in survivors:
        np.testing.assert_allclose(c, ref, atol=1e-10)
