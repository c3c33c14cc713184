"""A faulted run's raw logs, pinned byte for byte against the parent.

``tests/baselines/schedule_digests.json`` pins *clean* runs through
``obs.jsonl_records``; the fault-smoke CI job and
``tests.conftest.assert_replay_identical`` compare two runs of one
commit.  Neither notices a refactor that moves what a
:class:`~repro.mpi.faults.FaultPlan` does to a run, so this file holds
one sha256 per (plan, overlap mode, recorded or not) over everything the
transport logs — ``events``, ``msglog``, ``memlog``, ``tracer.spans``,
``traces()`` — and every rank's result.  ``transport_digests.json`` was
recorded at the commit *before* the fault machinery moved out of
``mpi/transport.py`` (PR 21) with :func:`digest` below; re-record only
for a change that means to alter what a plan does (or adds a
``RankTrace`` field — its ``repr`` is digested), with::

    PYTHONPATH=src:. python -c "from tests.mpi.test_transport_identity \
import record; record()"

The operands are small integers, so products, partial sums, checksums
and ``1 + |v|`` flips are exact in float64 whatever the BLAS build.  A
run that fails digests the class and message of the rank error and the
logs up to the abort.  After the product every plan also runs a short
``gossip`` phase — a nonblocking collective, wildcard receives and
bounded ``test()`` polls — so a post inside an async region and what a
held drop hides from ``probe`` and from an ``ANY_SOURCE`` receive are
pinned too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import BlockCol1D, DistMatrix, run_spmd
from repro.core import Ca3dmm, ca3dmm_matmul
from repro.ft import resilient_multiply
from repro.machine.model import laptop
from repro.mpi import ANY_SOURCE, FaultPlan, LinkFault, RankFault, RetryPolicy, Status

DIGESTS = Path(__file__).with_name("transport_digests.json")
M, N, K, P = 24, 20, 28, 8
OVERLAPS = ("none", "partial", "full")


def _plain(comm, a, b):
    return ca3dmm_matmul(a, b)


def _abft(comm, a, b):
    return Ca3dmm(comm, M, N, K, abft=True).multiply(a, b)


def _resilient(comm, a, b):
    return resilient_multiply(comm, a, b, abft=True, max_recoveries=2)


_KILL = RankFault(rank=5, phase="cannon", kill=True)
_FLIP_ARRAY = LinkFault(phase="cannon", corrupt_at=(0,), corrupt_elems=2)
_FLIP_CONTAINER = LinkFault(corrupt_phase="redist", corrupt_at=(0, 1))

#: name -> (multiply, plan): one entry per thing a plan can do to a run.
PLANS = {
    "latency_jitter": (_plain, FaultPlan(
        seed=3, links=(LinkFault(latency_factor=2.5, jitter_s=3e-6),))),
    "reorder": (_plain, FaultPlan(seed=4, links=(LinkFault(reorder_window=3),))),
    "drop_at_repeat": (_plain, FaultPlan(
        seed=5, links=(LinkFault(phase="cannon", drop_at=(0, 1), drop_repeat=2),))),
    "drop_every": (_plain, FaultPlan(seed=6, links=(LinkFault(drop_every=3),))),
    "drop_prob": (_plain, FaultPlan(seed=7, links=(LinkFault(drop_prob=0.1, jitter_s=2e-6),))),
    "overlapping_rules": (_plain, FaultPlan(
        seed=8,
        links=(
            LinkFault(src=1, drop_at=(0, 2), latency_factor=2.0),
            LinkFault(drop_every=5, reorder_window=2, drop_repeat=2),
        ),
        retry=RetryPolicy(timeout_s=5e-4, max_retries=4, backoff=1.5),
    )),
    "retry_exhausted": (_plain, FaultPlan(
        seed=9,
        links=(LinkFault(phase="cannon", drop_at=(0,), drop_repeat=5),),
        retry=RetryPolicy(max_retries=2),
    )),
    "corrupt_array": (_plain, FaultPlan(seed=10, links=(_FLIP_ARRAY,))),
    "corrupt_array_abft": (_abft, FaultPlan(seed=10, links=(_FLIP_ARRAY,))),
    "corrupt_container": (_plain, FaultPlan(seed=11, links=(_FLIP_CONTAINER,))),
    "corrupt_container_abft": (_abft, FaultPlan(seed=11, links=(_FLIP_CONTAINER,))),
    "stall": (_plain, FaultPlan(
        seed=12, ranks=(RankFault(rank=3, phase="reduce", stall_s=1e-3),))),
    "slowdown": (_plain, FaultPlan(
        seed=13, ranks=(RankFault(rank=2, phase="cannon", slowdown=3.0),))),
    "abort": (_plain, FaultPlan(
        seed=14, ranks=(RankFault(rank=5, phase="cannon", abort=True),))),
    "kill": (_plain, FaultPlan(seed=15, ranks=(_KILL,))),
    "kill_resilient": (_resilient, FaultPlan(seed=15, ranks=(_KILL,))),
    "kill_drops_resilient": (_resilient, FaultPlan(
        seed=16, links=(LinkFault(drop_prob=0.05),), ranks=(_KILL,))),
}


def _gossip(comm):
    """An allgather on the comm engine under some compute, while every
    other rank sends rank 0 an array and two notes under one tag; rank 0
    takes the arrays from whoever arrives first and polls for each note
    — a dropped first note must hide the second."""
    with comm.phase("gossip"):
        census = comm.iallgather(np.full(2, float(comm.rank)))
        comm.compute(1e6)
        heard = []
        if comm.rank:
            comm.send(np.full(3, float(comm.rank)), 0, tag=5)
            for i in range(2):
                comm.send(("note", comm.rank, i), 0, tag=6)
        for _ in range(0 if comm.rank else comm.size - 1):
            status = Status()
            row = comm.recv(ANY_SOURCE, 5, status=status)
            for _ in range(2):
                note = comm.irecv(status.source, 6)
                polls = 0
                while polls < 3 and not note.test()[0]:
                    polls += 1
                heard.append((status.source, row.tolist(), polls, note.wait()))
        return [row.tolist() for row in census.wait()], heard


def _machine(overlap: str):
    """Two ranks to a node, so that ``partial``'s one NIC stream per rank
    has inter-node sends to serialise and the three modes differ."""
    return dataclasses.replace(laptop(), ranks_per_node=2).with_overlap(overlap)


def digest(name: str, overlap: str, recorded: bool) -> str:
    multiply, plan = PLANS[name]
    rng = np.random.default_rng(21)
    a_mat = rng.integers(-4, 5, (M, K)).astype(np.float64)
    b_mat = rng.integers(-4, 5, (K, N)).astype(np.float64)
    world = []  # the transport, kept in hand for a run that fails

    def body(comm):
        if comm.rank == 0:
            world.append(comm.transport)
        a = DistMatrix.from_global(comm, BlockCol1D((M, K), P), a_mat)
        b = DistMatrix.from_global(comm, BlockCol1D((K, N), P), b_mat)
        c = multiply(comm, a, b)
        return c.owned_rects, c.tiles, _gossip(c.comm)

    h = hashlib.sha256()
    results = []
    try:
        results = run_spmd(
            P, body, machine=_machine(overlap),
            record_events=recorded, faults=plan,
        ).results
    except RuntimeError as exc:
        h.update(f"{type(exc.__cause__).__name__}: {exc.__cause__}".encode())
    transport = world[0]
    tracer = transport.tracer  # the recorded logs; None when unrecorded
    logs = () if tracer is None else (tracer.events, tracer.msglog, tracer.memlog, tracer.spans)
    for log in (*logs, transport.traces()):
        for rec in log:
            h.update(repr(rec).encode())
    for result in results:
        if result is None:  # a killed rank returns nothing
            h.update(b"dead")
            continue
        rects, tiles, heard = result
        h.update(repr(heard).encode())
        for rect, tile in zip(rects, tiles):
            h.update(repr((tuple(rect), tile.dtype.str, tile.shape)).encode())
            h.update(np.ascontiguousarray(tile).tobytes())
    return h.hexdigest()


#: "plan/overlap/recorded|unrecorded" -> digest() arguments
CASES = {
    f"{name}/{overlap}/{'recorded' if recorded else 'unrecorded'}": (name, overlap, recorded)
    for name in PLANS
    for overlap in OVERLAPS
    for recorded in (True, False)
}


def record() -> None:
    table = {key: digest(*case) for key, case in CASES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(CASES)
    assert len(CASES) == 102  # 17 plans x 3 overlap modes x recorded or not


@pytest.mark.parametrize("key", sorted(CASES))
def test_raw_logs_and_results_are_byte_identical(key):
    assert digest(*CASES[key]) == RECORDED[key]
