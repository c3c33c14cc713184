"""``Ca3dmm.multiply``'s raw logs, pinned byte for byte against the parent.

``tests/baselines/schedule_digests.json`` pins the sixteen schedules on
plain real operands and ``tests/mpi/transport_digests.json`` what a
:class:`~repro.mpi.faults.FaultPlan` does to one 2x2x2 multiply.  Neither
sees the rest of the engine's surface, so this file holds one sha256 per
(case, overlap mode, recorded or not) — the digest of
``tests/mpi/test_transport_identity.py``: ``events``, ``msglog``,
``memlog``, ``tracer.spans``, ``traces()`` and every rank's result tiles
— over op codes on complex operands, ``alpha``, ``beta`` with a ``c_in``
in a foreign layout, a ``c_dist``, grids that replicate A, replicate B
or nothing, idle ranks, ``shifts_per_gemm=2``, an ``on_partial`` hook
(its captured blocks are digested) and ABFT: clean, one corruption in
each guarded phase, and an exhausted ``max_recomputes`` (the
:class:`~repro.ft.CorruptionError` text).  ``engine_digests.json`` was
recorded at the commit *before* steps 4, 7 and 8 of ``Ca3dmm.multiply``
moved into ``core.steps`` and ABFT into ``ft.abft`` (PR 23) with
:func:`digest` below; re-record only for a change that means to move a
message, span or ``MemEvent`` of the engine, with::

    PYTHONPATH=src:. python -c "from tests.core.test_engine_identity \
import record; record()"

The operands are small integers (Gaussian integers for the complex
cases) and the scalars too, so every product, sum, checksum and
``1 + |v|`` flip is exact whatever the BLAS build.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro import BlockCol1D, BlockCyclic2D, BlockRow1D, DistMatrix, GridSpec, run_spmd
from repro.core import Ca3dmm
from repro.ft import AbftPolicy
from repro.machine.model import laptop
from repro.mpi import FaultPlan, LinkFault

DIGESTS = Path(__file__).with_name("engine_digests.json")
OVERLAPS = ("none", "full")

#: name -> (m, n, k, P, (pm, pn, pk) or None for the planner's choice)
GRIDS = {
    "c1": (24, 20, 28, 8, (2, 2, 2)),            # c = 1, s = 2, pk = 2
    "rep_a": (16, 32, 24, 16, (2, 4, 2)),        # A replicated, c = 2, s = 2
    "rep_b": (32, 16, 24, 16, (4, 2, 2)),        # B replicated, c = 2, s = 2
    "rep_b_pk1": (30, 10, 14, 12, (6, 2, 1)),    # B replicated, c = 3, no k-reduction
    "idle_a": (18, 18, 40, 7, None),             # 1x2x3 on 7 ranks: A replicated, one idle
    "idle_b": (24, 20, 28, 7, None),             # 2x1x3 on 7 ranks: B replicated, one idle
    "s4": (20, 24, 16, 16, (4, 4, 1)),           # c = 1, s = 4: shifts_per_gemm has room
}


@dataclass(frozen=True)
class Case:
    grid: str
    dtype: str = "float64"
    transa: bool | str = "N"
    transb: bool | str = "N"
    alpha: float = 1.0
    beta: float = 0.0
    c_in: bool = False       # a block-cyclic accumulation operand
    c_dist: bool = False     # the result asked back in row bands
    shifts_per_gemm: int = 1
    hook: bool = False       # an on_partial hook; what it saw is digested
    abft: object = None
    faults: FaultPlan | None = None


def _flip(phase: str) -> FaultPlan:
    return FaultPlan(seed=11, links=(LinkFault(corrupt_phase=phase, corrupt_at=(0,)),))


def _always(*phases: str) -> FaultPlan:
    return FaultPlan(
        seed=12,
        links=tuple(LinkFault(corrupt_phase=p, corrupt_prob=1.0) for p in phases),
    )


CASES_BY_NAME: dict[str, Case] = {
    # op codes on complex operands: every pair, on the grid with all of
    # steps 5, 6 and 7 live
    **{
        f"ops_{ta}{tb}": Case("rep_a", "complex128", ta, tb, c_dist=True)
        for ta in "NTC" for tb in "NTC"
    },
    "ops_bool_tt": Case("c1", "float64", True, True),
    # scalars, accumulation, output layout
    "alpha": Case("c1", alpha=-3.0),
    "alpha_complex": Case("rep_b", "complex128", "C", "N", alpha=2 - 1j),
    "beta_foreign_c_in": Case("c1", beta=2.0, c_in=True),
    "gemm_full": Case("rep_b", "complex128", "T", "C", alpha=2.0, beta=-1.0,
                      c_in=True, c_dist=True),
    "beta_zero_c_in_ignored": Case("c1", c_in=True, c_dist=True),
    "c_dist": Case("rep_a", c_dist=True),
    # grids
    **{f"grid_{g}": Case(g) for g in GRIDS},
    "idle_full": Case("idle_a", "complex128", "C", "T", alpha=2.0, beta=3.0,
                      c_in=True, c_dist=True),
    "idle_b_full": Case("idle_b", transa="T", beta=1.0, c_in=True, c_dist=True),
    "shifts2": Case("s4", shifts_per_gemm=2),
    "shifts2_c1": Case("c1", shifts_per_gemm=2, c_dist=True),
    "hook": Case("rep_a", hook=True, alpha=2.0),
    "hook_idle": Case("idle_b", hook=True, c_dist=True),
    # ABFT, clean
    **{f"abft_clean_{g}": Case(g, abft=True, hook=True, c_dist=True) for g in GRIDS},
    "abft_clean_gemm": Case("rep_a", transa="T", transb="T", alpha=2.0, beta=-1.0,
                            c_in=True, c_dist=True, abft=True),
    "abft_clean_complex": Case("rep_b", "complex128", "C", "N", abft=True, c_dist=True),
    "abft_clean_shifts2": Case("s4", shifts_per_gemm=2, abft=AbftPolicy(rel_tol=1e-6)),
    # ABFT, one corruption in each guarded phase (A replicated, B replicated)
    **{
        f"abft_flip_{phase}_{g}": Case(g, abft=True, hook=True, beta=1.0, c_in=True,
                                       c_dist=True, faults=_flip(phase))
        for phase in ("replicate", "cannon", "reduce", "redist")
        for g in ("rep_a", "rep_b")
    },
    "abft_flip_cannon_c1": Case("c1", abft=True, faults=_flip("cannon")),
    "abft_flip_reduce_idle": Case("idle_a", abft=True, hook=True, faults=_flip("reduce")),
    "abft_flip_replicate_pk1": Case("rep_b_pk1", abft=True, faults=_flip("replicate")),
    "flip_cannon_unguarded": Case("rep_a", faults=_flip("cannon")),
    # ABFT, the budget runs out
    "abft_exhausted_replicate": Case("rep_a", abft=AbftPolicy(max_recomputes=1),
                                     faults=_always("replicate")),
    "abft_exhausted_cannon": Case("rep_b", abft=AbftPolicy(max_recomputes=1), hook=True,
                                  faults=_always("cannon", "reduce")),
    "abft_exhausted_reduce": Case("rep_a", abft=True, hook=True, faults=_always("reduce")),
    "abft_exhausted_redist": Case("c1", abft=AbftPolicy(max_recomputes=0),
                                  faults=_always("redist")),
    "abft_no_budget_cannon": Case("c1", abft=AbftPolicy(max_recomputes=0),
                                  faults=_flip("cannon")),
}


def _operand(rng, shape, dtype):
    mat = rng.integers(-4, 5, shape).astype(dtype)
    if np.dtype(dtype).kind == "c":
        mat = mat + 1j * rng.integers(-4, 5, shape)
    return mat


def digest(name: str, overlap: str, recorded: bool) -> str:
    case = CASES_BY_NAME[name]
    m, n, k, nprocs, dims = GRIDS[case.grid]
    grid = GridSpec(*dims, nprocs) if dims else None
    ta = case.transa not in (False, "N")
    tb = case.transb not in (False, "N")
    rng = np.random.default_rng(23)
    a_mat = _operand(rng, (k, m) if ta else (m, k), case.dtype)
    b_mat = _operand(rng, (n, k) if tb else (k, n), case.dtype)
    c_mat = _operand(rng, (m, n), case.dtype)
    world = []  # the transport, kept in hand for a run that fails

    def body(comm):
        if comm.rank == 0:
            world.append(comm.transport)
        a = DistMatrix.from_global(comm, BlockCol1D(a_mat.shape, nprocs), a_mat)
        b = DistMatrix.from_global(comm, BlockRow1D(b_mat.shape, nprocs), b_mat)
        c_in = None
        if case.c_in:
            c_in = DistMatrix.from_global(
                comm, BlockCyclic2D((m, n), nprocs, 2, nprocs // 2, bs=3), c_mat
            )
        seen = []
        engine = Ca3dmm(comm, m, n, k, grid=grid, abft=case.abft,
                        shifts_per_gemm=case.shifts_per_gemm)
        c = engine.multiply(
            a, b,
            c_dist=BlockRow1D((m, n), nprocs) if case.c_dist else None,
            transa=case.transa, transb=case.transb,
            alpha=case.alpha, beta=case.beta, c_in=c_in,
            on_partial=(lambda role, blk: seen.append((repr(role), blk.copy())))
            if case.hook else None,
        )
        return c.owned_rects, c.tiles, seen

    h = hashlib.sha256()
    results = []
    try:
        results = run_spmd(
            nprocs, body, machine=laptop().with_overlap(overlap),
            record_events=recorded, faults=case.faults,
        ).results
    except RuntimeError as exc:
        h.update(f"{type(exc.__cause__).__name__}: {exc.__cause__}".encode())
    transport = world[0]
    tracer = transport.tracer  # the recorded logs; None when unrecorded
    logs = () if tracer is None else (tracer.events, tracer.msglog, tracer.memlog, tracer.spans)
    for log in (*logs, transport.traces()):
        for rec in log:
            h.update(repr(rec).encode())
    for rects, tiles, seen in results:
        for role, blk in seen:
            h.update(repr((role, blk.dtype.str, blk.shape)).encode())
            h.update(np.ascontiguousarray(blk).tobytes())
        for rect, tile in zip(rects, tiles):
            h.update(repr((tuple(rect), tile.dtype.str, tile.shape)).encode())
            h.update(np.ascontiguousarray(tile).tobytes())
    return h.hexdigest()


#: "case/overlap/recorded|unrecorded" -> digest() arguments
CASES = {
    f"{name}/{overlap}/{'recorded' if recorded else 'unrecorded'}": (name, overlap, recorded)
    for name in CASES_BY_NAME
    for overlap in OVERLAPS
    for recorded in (True, False)
}


def record() -> None:
    table = {key: digest(*case) for key, case in CASES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(CASES)
    assert len(CASES) == 4 * len(CASES_BY_NAME)  # 2 overlap modes x recorded or not


@pytest.mark.parametrize("key", sorted(CASES))
def test_raw_logs_and_results_are_byte_identical(key):
    assert digest(*CASES[key]) == RECORDED[key]
