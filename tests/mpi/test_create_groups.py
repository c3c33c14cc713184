"""``Comm.create_groups``: every kind of group from one context agreement.

Each rank passes its own group of each kind (parent-local ranks in their
new order) or ``None``.  The call makes one ``allreduce`` of one int over
the parent — none when every group is one rank — and no ``Comm.split``;
a group's context is the same on every member and no other group's, and
a group of one rank is made locally.  The worlds below are a power of
two, a prime and neither.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.ft import resilient_multiply
from repro.grid.optimizer import GridSpec
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import FaultPlan, RankFault, collectives, run_spmd
from repro.mpi.comm import Comm
from repro.mpi.errors import CommError, CommRevokedError, RankFailedError
from repro.mpi.transport import Transport

SIZES = (8, 7, 6)  # a power of two, a prime, neither


@pytest.fixture
def tallies(monkeypatch):
    """``(agreements, splits, sent)`` per world rank: ``allreduce`` and
    ``Comm.split`` calls and messages posted, for the run inside the test."""
    agreements: Counter = Counter()
    splits: Counter = Counter()
    sent: Counter = Counter()
    split, post_send, allreduce = Comm.split, Transport.post_send, collectives.allreduce

    def counted_allreduce(comm, *args, **kw):
        agreements[comm.world_rank] += 1
        return allreduce(comm, *args, **kw)

    def counted_split(self, *args, **kw):
        splits[self.world_rank] += 1
        return split(self, *args, **kw)

    def counted_post(self, ctx, src, *args, **kw):
        sent[src] += 1
        return post_send(self, ctx, src, *args, **kw)

    monkeypatch.setattr(collectives, "allreduce", counted_allreduce)
    monkeypatch.setattr(Comm, "split", counted_split)
    monkeypatch.setattr(Transport, "post_send", counted_post)
    return agreements, splits, sent


def kinds_of(rank: int, p: int) -> list:
    """Three kinds over ``p`` ranks: pairs (the last may be one rank), the
    classes mod 3 in descending order, and all but the last two ranks
    (which are idle for it)."""
    pair = [r for r in (rank - rank % 2, rank - rank % 2 + 1) if r < p]
    mod3 = [r for r in reversed(range(p)) if r % 3 == rank % 3]
    active = list(range(p - 2)) if rank < p - 2 else None
    return [pair, mod3, active]


def measured(tallies, comm, call):
    """``(result, (agreements, splits, messages))`` of ``call()`` on this rank."""
    counters = tallies
    me = comm.world_rank
    before = [c[me] for c in counters]
    out = call()
    return out, tuple(c[me] - b for c, b in zip(counters, before))


def one_allreduce(tallies, comm) -> int:
    """Messages this rank sends in one ``allreduce`` of an int."""
    me = comm.world_rank
    mark = tallies[2][me]
    comm.allreduce(0)
    return tallies[2][me] - mark


@pytest.mark.parametrize("p", SIZES)
def test_members_agree_on_a_context_no_other_group_has(p, tallies):
    def body(comm):
        subs, made = measured(tallies, comm, lambda: comm.create_groups(kinds_of(comm.rank, p)))
        one = one_allreduce(tallies, comm)
        seen = [None if s is None else (s.size, s.rank, s.group, s._ctx, s.allgather(comm.rank))
                for s in subs]
        return made, one, seen, comm._ctx

    res = run_spmd(p, body, machine=laptop())
    contexts: dict = {}
    for rank, (made, one, seen, world_ctx) in enumerate(res.results):
        assert made == (1, 0, one), "one agreement, no split, nothing else sent"
        for kind, (want, got) in enumerate(zip(kinds_of(rank, p), seen)):
            if want is None:
                assert got is None, "a rank without a group gets None"
                continue
            size, local, group, ctx, gathered = got
            assert (size, local, group) == (len(want), want.index(rank), tuple(want))
            assert gathered == want, "the new communicator does not talk in its order"
            assert ctx != world_ctx
            contexts.setdefault(ctx, set()).add((kind, group))
    # One context per group of a kind, the same on every member.
    assert all(len(groups) == 1 for groups in contexts.values()), contexts
    assert len(contexts) == len({g for gs in contexts.values() for g in gs})


@pytest.mark.parametrize("p", SIZES)
def test_a_user_split_after_the_call_still_agrees(p):
    def body(comm):
        comm.create_groups(kinds_of(comm.rank, p))
        comm.create_groups([[comm.rank]], largest=1)  # local: no agreement
        user = comm.split(comm.rank % 2, -comm.rank)
        return user.group, user._ctx, user.allgather(comm.rank)

    res = run_spmd(p, body, machine=laptop())
    ctx_of: dict = {}
    for rank, (group, ctx, gathered) in enumerate(res.results):
        want = tuple(r for r in reversed(range(p)) if r % 2 == rank % 2)
        assert group == want and gathered == list(want)
        assert ctx_of.setdefault(group, ctx) == ctx


@pytest.mark.parametrize("p", SIZES)
def test_groups_of_one_rank_are_made_locally(p, tallies):
    def body(comm):
        return measured(tallies, comm, lambda: comm.create_groups(
            [[comm.rank], None if comm.rank % 2 else [comm.rank]], largest=1))

    res = run_spmd(p, body, machine=laptop())
    contexts = set()
    for rank, (subs, made) in enumerate(res.results):
        assert made == (0, 0, 0), "a group of one rank sent something"
        assert subs[1] is None if rank % 2 else subs[1] is not None
        for sub in filter(None, subs):
            assert (sub.size, sub.rank, sub.group) == (1, 0, (rank,))
            contexts.add(sub._ctx)
    assert len(contexts) == sum(1 + (r % 2 == 0) for r in range(p))


@pytest.mark.parametrize("p", SIZES)
def test_create_sub_sends_only_the_agreement(p, tallies):
    listed = [p - 1, 0, 2]

    def body(comm):
        sub, made = measured(tallies, comm, lambda: comm.create_sub(listed))
        one = one_allreduce(tallies, comm)
        alone, alone_made = measured(tallies, comm, lambda: comm.create_sub([1]))
        return made, one, None if sub is None else sub.group, alone_made, alone

    res = run_spmd(p, body, machine=laptop())
    for rank, (made, one, group, alone_made, alone) in enumerate(res.results):
        assert made == (1, 0, one)
        assert group == (tuple(listed) if rank in listed else None)
        assert alone_made == (0, 0, 0), "a one-rank create_sub agreed"
        assert (alone is None) == (rank != 1)


def test_groups_of_a_sub_communicator_name_its_ranks():
    def body(comm):
        odd = comm.split(comm.rank % 2, comm.rank)  # world ranks 0,2,4,6 / 1,3,5,7
        ends = [odd.size - 1, 0]  # its last and first rank, in that order
        (sub,) = odd.create_groups([ends if odd.rank in ends else None])
        return None if sub is None else (sub.group, sub.rank)

    res = run_spmd(8, body, machine=laptop())
    assert res.results[6] == ((6, 0), 0) and res.results[0] == ((6, 0), 1)
    assert res.results[7] == ((7, 1), 0) and res.results[1] == ((7, 1), 1)
    assert res.results[2:6] == [None] * 4


@pytest.mark.parametrize("bad, why", [
    ([[0, 0]], "not distinct"),
    ([[0, 8]], "not distinct"),
    ([[-1, 0]], "not distinct"),
    ([[]], "not distinct"),
    ([[0, 1, 2]], "exceeds largest=2"),
])
def test_a_malformed_group_is_refused_before_anything_is_sent(bad, why, tallies):
    def body(comm):
        with pytest.raises(CommError, match=why):
            comm.create_groups(bad, largest=2)
        return tallies[2][comm.world_rank]

    assert run_spmd(2, body, machine=laptop()).results == [0, 0]


def test_a_rank_out_of_step_is_refused_on_every_rank():
    def body(comm):
        if comm.rank == 0:  # one more call here than anywhere else
            comm.create_groups([[0]], largest=1)
        with pytest.raises(CommError, match="out of step"):
            comm.create_groups([list(range(comm.size))])
        return True

    assert run_spmd(5, body, machine=laptop()).results == [True] * 5


@pytest.fixture
def agreement_phase(monkeypatch):
    """Run every ``create_groups`` inside a phase ``groups``, which a
    ``RankFault`` can key a kill on: the rank dies as its agreement starts."""
    create_groups = Comm.create_groups

    def in_phase(self, *args, **kw):
        with self.phase("groups"):
            return create_groups(self, *args, **kw)

    monkeypatch.setattr(Comm, "create_groups", in_phase)


@pytest.mark.parametrize("p", SIZES)
def test_a_kill_during_the_agreement_is_a_typed_error(p, agreement_phase):
    victim = p // 2
    faults = FaultPlan(seed=0, ranks=(RankFault(rank=victim, phase="groups", kill=True),))

    def body(comm):
        try:
            comm.create_groups(kinds_of(comm.rank, p))
            outcome = "made"
        except (RankFailedError, CommRevokedError) as exc:
            comm.revoke()
            outcome = type(exc).__name__
        all_ok, survivors = comm.agree(outcome == "made")
        return outcome, all_ok, survivors

    res = run_spmd(p, body, machine=laptop(), faults=faults)
    assert res.failed_ranks == [victim]
    outcomes = [r for r in res.results if r is not None]
    assert len(outcomes) == p - 1
    assert any(o != "made" for o, _, _ in outcomes), "nobody noticed the dead rank"
    survivors = tuple(r for r in range(p) if r != victim)
    assert all((ok, alive) == (False, survivors) for _, ok, alive in outcomes)


@pytest.mark.parametrize("grid", [GridSpec(2, 2, 2, 8), GridSpec(1, 1, 7, 7), GridSpec(1, 3, 2, 6)])
def test_resilient_multiply_survives_a_kill_in_the_engines_agreement(grid, agreement_phase):
    m, n, k = 12, 18, 14
    ref = dense_random(m, k, 1) @ dense_random(k, n, 2)
    faults = FaultPlan(seed=0, ranks=(RankFault(rank=1, phase="groups", kill=True),))

    def body(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 1))
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 2))
        return resilient_multiply(
            comm, a, b, c_dist=lambda cm: BlockCol1D((m, n), cm.size), grid=grid,
        ).to_global()

    res = run_spmd(grid.nprocs, body, machine=laptop(), faults=faults)
    assert res.failed_ranks == [1]
    products = [c for c in res.results if c is not None]
    assert len(products) == grid.nprocs - 1
    for c in products:
        np.testing.assert_allclose(c, ref, atol=1e-10)
