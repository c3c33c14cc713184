"""The argument contract (docs/API.md, "Argument contract") at every
entry point that takes a size, a rank count, an amount or a fraction.

Each entry point is called with one argument replaced by a probe.  A
probe the argument's rule accepts must give what the equal Python
number gives, with the same types throughout (a numpy integer comes
back as an ``int``, so documents built from it validate); any other
probe must raise a ``ValueError`` that starts ``name=value:``.  The
rules are restated here from the document rather than imported, so the
file also runs against code from before they had one home.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.baseline_costs import algo1d_cost, algo25d_cost, carma_cost, summa_cost
from repro.analysis.costs import ca3dmm_cost, cosma_cost, ctf_cost, redist_cost
from repro.analysis.verify import eq9_lower_bound, pebbling_lower_bound
from repro.baselines.algo25d import grid_25d
from repro.baselines.algo3d import cube_side
from repro.bench.harness import executed_workload
from repro.ckpt.policy import CheckpointPolicy
from repro.core.autotune import tune
from repro.core.ca3dmm import Ca3dmm
from repro.core.plan import Ca3dmmPlan
from repro.core.steps import problem_dims
from repro.ft.abft import AbftPolicy
from repro.grid.factorize import divisors, near_square_pair, perfect_square_part, prime_factors
from repro.grid.optimizer import (
    GridSpec,
    best_grids,
    ca3dmm_grid,
    cosma_grid,
    ctf_grid,
    enumerate_grids,
)
from repro.layout.distributions import Block2D, BlockCyclic2D
from repro.machine.model import MachineModel, laptop
from repro.mpi import run_spmd
from repro.mpi.transport import Transport
from repro.obs.ledger import Ledger, ledger_record
from repro.obs.metrics import run_totals

#: The values every argument is probed with.
PROBES = (math.inf, -math.inf, math.nan, -1, 0, 0.5, 8.5, True, np.int64(8))


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


#: What each rule accepts, as docs/API.md states it.
RULES = {
    "count": lambda v: _int(v) and v >= 1,
    "count>=0": lambda v: _int(v) and v >= 0,
    "count|None": lambda v: v is None or _int(v) and v >= 1,
    "count>=0|None": lambda v: v is None or _int(v) and v >= 0,
    "amount": lambda v: _real(v) and 0 <= v < math.inf,
    "amount>0": lambda v: _real(v) and 0 < v < math.inf,
    "amount|inf": lambda v: _real(v) and 0 <= v,
    "cap": lambda v: v is None or _real(v) and 0 <= v,
    "cap>0": lambda v: v is None or _real(v) and 0 < v,
    "fraction": lambda v: _real(v) and 0 < v <= 1,
}

MACHINE = laptop()
PROBLEM = {"m": 8, "n": 8, "k": 8, "nprocs": 8}
DIMS = dict.fromkeys(("m", "n", "k"), "count")
SIZES = {**DIMS, "nprocs": "count"}


def _on_ranks(make, nprocs=4):
    """``make(comm)`` on rank 0 of a ``nprocs``-rank world (every rank
    builds it); an error on the rank is raised here."""

    def body(comm):
        try:
            return True, make(comm)
        except Exception as err:  # handed to the driver, raised there
            return False, err

    done, value = run_spmd(nprocs, body, machine=MACHINE).results[0]
    if not done:
        raise value
    return value


def _plan(p):
    fields = (p.m, p.n, p.k, p.nprocs, p.memory_limit_words)
    return fields, json.dumps(fields), p.grid, p.mem_limit_infeasible, p.describe()


def _engine(engine):
    return _plan(engine.plan), engine.shifts_per_gemm


def _shaped(rows, cols):
    """What :func:`problem_dims` reads of an operand."""
    return SimpleNamespace(shape=(rows, cols))


def _summa(**kw):
    grid = (kw.pop("grid[0]"), kw.pop("grid[1]"))
    return summa_cost(machine=MACHINE, grid=grid, **kw)


_traces = []


def _totals(nruns):
    if not _traces:
        _traces.extend(executed_workload((16, 16, 16, 4), record_events=False)[1].traces)
    return run_totals(_traces, nruns)


@dataclasses.dataclass(frozen=True)
class Entry:
    """One entry point: ``call(**base)`` with the arguments ``rules`` names."""

    name: str
    call: object
    base: dict
    rules: dict


ENTRIES = [
    Entry("GridSpec", GridSpec, {"pm": 2, "pn": 2, "pk": 2, "nprocs": 8},
          dict.fromkeys(("pm", "pn", "pk", "nprocs"), "count")),
    Entry("best_grids",
          lambda **a: best_grids(require_divisible=True, use_latency=True, **a),
          {**PROBLEM, "l": 0.95, "count": 2, "memory_limit_words": None},
          {**SIZES, "l": "fraction", "count": "count", "memory_limit_words": "cap"}),
    Entry("enumerate_grids", enumerate_grids, {"nprocs": 8, "l": 0.95},
          {"nprocs": "count", "l": "fraction"}),
    Entry("ca3dmm_grid", ca3dmm_grid, {**PROBLEM, "l": 0.95, "memory_limit_words": None},
          {**SIZES, "l": "fraction", "memory_limit_words": "cap"}),
    Entry("cosma_grid", cosma_grid, {**PROBLEM, "l": 0.95}, {**SIZES, "l": "fraction"}),
    Entry("ctf_grid", ctf_grid, PROBLEM, SIZES),
    Entry("tune",
          lambda **a: [(c.inner, c.grid, c.report) for c in tune(machine=MACHINE, **a).candidates],
          {**PROBLEM, "l": 0.95, "memory_limit_words": None, "near_optimal": 2},
          {**SIZES, "l": "fraction", "memory_limit_words": "cap", "near_optimal": "count"}),
    Entry("Ca3dmmPlan", lambda **a: _plan(Ca3dmmPlan(**a)),
          {**PROBLEM, "l": 0.95, "memory_limit_words": None},
          {**SIZES, "l": "fraction", "memory_limit_words": "cap"}),
    Entry("Ca3dmm", lambda **a: _on_ranks(lambda comm: _engine(Ca3dmm(comm, **a))),
          {"m": 8, "n": 8, "k": 8, "l": 0.95, "memory_limit_words": None, "shifts_per_gemm": 2},
          {**DIMS, "l": "fraction", "memory_limit_words": "cap", "shifts_per_gemm": "count"}),
    Entry("ca3dmm_cost", lambda **a: ca3dmm_cost(machine=MACHINE, inner="summa", **a),
          {**PROBLEM, "summa_panel_frac": 0.5}, {**SIZES, "summa_panel_frac": "fraction"}),
    Entry("cosma_cost", lambda **a: cosma_cost(machine=MACHINE, **a), PROBLEM, SIZES),
    Entry("ctf_cost", lambda **a: ctf_cost(machine=MACHINE, **a), PROBLEM, SIZES),
    Entry("algo1d_cost", lambda **a: algo1d_cost(machine=MACHINE, **a), PROBLEM, SIZES),
    Entry("summa_cost", _summa, {**PROBLEM, "panel": 4, "grid[0]": 2, "grid[1]": 4},
          {**SIZES, "panel": "count", "grid[0]": "count", "grid[1]": "count"}),
    Entry("algo25d_cost", lambda **a: algo25d_cost(machine=MACHINE, **a),
          {**PROBLEM, "sq": 2, "c": 2}, {**SIZES, "sq": "count|None", "c": "count|None"}),
    Entry("carma_cost", lambda **a: carma_cost(machine=MACHINE, **a), PROBLEM, SIZES),
    Entry("redist_cost", lambda **a: redist_cost(MACHINE, **a),
          {"total_words": 1024, "nprocs": 8, "overlap": 0.25},
          {"total_words": "amount", "nprocs": "count", "overlap": "amount"}),
    Entry("eq9_lower_bound", eq9_lower_bound, PROBLEM, SIZES),
    Entry("pebbling_lower_bound", pebbling_lower_bound, {**PROBLEM, "mem_words": 64},
          {**SIZES, "mem_words": "amount"}),
    Entry("run_spmd",
          lambda **a: run_spmd(fn=lambda comm: (comm.rank, comm.size), **a).results,
          {"nprocs": 8, "deadlock_timeout": 8},
          {"nprocs": "count", "deadlock_timeout": "amount>0"}),
    Entry("Transport", lambda **a: Transport(**a).nprocs, {"nprocs": 8}, {"nprocs": "count"}),
    Entry("MachineModel", MachineModel, {}, {
        **dict.fromkeys(("alpha", "alpha_intra", "nic_beta", "beta_intra", "gamma",
                         "gpu_stage_beta"), "amount"),
        **dict.fromkeys(("peak_gamma", "nic_share", "rs_degrade_factor"), "amount>0"),
        "rs_degrade_threshold": "amount|inf",
        "cores_per_node": "count", "ranks_per_node": "count"}),
    Entry("grid_25d", grid_25d, {"nprocs": 8, "c": 2}, {"nprocs": "count", "c": "count|None"}),
    Entry("cube_side", cube_side, {"nprocs": 8}, {"nprocs": "count"}),
    Entry("divisors", divisors, {"n": 8}, {"n": "count"}),
    Entry("prime_factors", prime_factors, {"n": 8}, {"n": "count"}),
    Entry("near_square_pair", near_square_pair, {"n": 8}, {"n": "count"}),
    Entry("perfect_square_part", perfect_square_part, {"n": 8}, {"n": "count"}),
    Entry("problem_dims", lambda m, n, k: problem_dims(_shaped(m, k), _shaped(k, n)),
          {"m": 8, "n": 8, "k": 8}, DIMS),
    Entry("Block2D", lambda **a: Block2D((8, 8), 8, **a), {"pr": 2, "pc": 4},
          dict.fromkeys(("pr", "pc"), "count")),
    Entry("BlockCyclic2D", lambda **a: BlockCyclic2D((8, 8), 8, **a), {"pr": 2, "pc": 4, "bs": 2},
          dict.fromkeys(("pr", "pc", "bs"), "count")),
    Entry("run_totals", _totals, {"nruns": 2}, {"nruns": "count"}),
    Entry("CheckpointPolicy", CheckpointPolicy,
          {"every_calls": 1, "every_virtual_s": None, "full_interval": 0},
          {"every_calls": "count>=0|None", "every_virtual_s": "cap>0",
           "full_interval": "count>=0"}),
    Entry("AbftPolicy", AbftPolicy, {"rel_tol": 1e-8, "max_recomputes": 2},
          {"rel_tol": "amount>0", "max_recomputes": "count>=0"}),
]

CASES = [(entry, arg) for entry in ENTRIES for arg in entry.rules]


def typed(x):
    """``x`` with the type of every leaf kept beside it (``np.int64(8)``
    equals ``8``; a leaked numpy integer must not)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x).__name__, {f.name: typed(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [typed(v) for v in x]
    if isinstance(x, dict):
        return {k: typed(v) for k, v in x.items()}
    return type(x).__name__, repr(x)


def outcome(entry: Entry, arg: str, value):
    """What ``entry`` does with ``arg=value``: its typed result, or the
    type and text of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an infeasible cap warns, as with the equal int
        try:
            return typed(entry.call(**{**entry.base, arg: value}))
        except Exception as err:
            return type(err).__name__, str(err)


def plain(value):
    """The Python number equal to an accepted ``value``."""
    return value if value is None else int(value) if _int(value) else float(value)


def check(entry: Entry, arg: str, value) -> None:
    if RULES[entry.rules[arg]](value):
        assert outcome(entry, arg, value) == outcome(entry, arg, plain(value))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as info:
                entry.call(**{**entry.base, arg: value})
        assert str(info.value).startswith(f"{arg}={value!r}: "), str(info.value)


@pytest.mark.parametrize("value", PROBES, ids=repr)
@pytest.mark.parametrize("entry, arg", CASES, ids=[f"{e.name}-{a}" for e, a in CASES])
def test_each_argument_keeps_its_rule(entry, arg, value):
    check(entry, arg, value)


#: Values beyond the probes: small ints of both kinds, any float, bools,
#: ``None`` and what is no number at all.
values = st.one_of(
    st.integers(-2, 12),
    st.integers(-2, 12).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0, 1),
    st.booleans(),
    st.none(),
    st.just("8"),
)


@settings(deadline=None, max_examples=300)
@given(case=st.sampled_from(CASES), value=values)
def test_any_value_keeps_the_rule(case, value):
    check(*case, value)


def test_the_rules_are_probed_at_every_entry_point():
    """Every rule above is used, and each entry's base call succeeds."""
    assert {rule for entry in ENTRIES for rule in entry.rules.values()} == set(RULES)
    for entry in ENTRIES:
        entry.call(**entry.base)


def test_a_numpy_int_run_appends_the_int_runs_record(tmp_path):
    """``Ca3dmmPlan`` kept numpy sizes, so the ledger refused the record
    (``$.problem.m: np.int64(16) fails 'type': 'integer'``)."""
    ledger = Ledger(tmp_path / "ledger.jsonl")
    for shape in ((np.int64(16), 16, np.int64(16), np.int64(4)), (16, 16, 16, 4)):
        plan, result = executed_workload(shape, record_events=False)
        ledger.append(ledger_record(result, plan, "test.contract"))
    wide, plain_ = ledger.records()
    assert wide["problem"] == plain_["problem"]
