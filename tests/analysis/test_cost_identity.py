"""Every closed form's price, pinned bit for bit.

The paper-scale figures, the crossover map, autotune and hostbench's
``analytic_paper_scale`` fingerprint all print sums of
``repro.analysis`` phase costs, so a refactor of the closed forms must
not move one of them in the last bit.  ``cost_digests.json`` holds, per
(closed form and its arguments, machine), the sha256 of the ``repr`` of
every case's ``(algo, grid, phases in insertion order as (name, time,
words, msgs), mem_words, flops_per_rank)`` — insertion order, because
``CostReport.t_total`` adds the phases in that order — over the shapes
and world sizes below.  It was recorded at the commit *before* the
closed forms were rewritten over shared pricers; re-record only for a
change that means to move a price, with ``python -m tests.oracles record
cost`` (see :mod:`tests.oracles`).

One difference is tolerated: ``algo25d_cost`` used to add its
``steps - 1`` shift pairs as one product, and now adds them one at a
time as ``ctf_cost`` always did (CTF feeds Fig. 3, 2.5D only the
four-decimal crossover map).  For the 2.5D entries the record also
holds a digest with the replicate phase's time and words left out and
those two values plus ``t_total`` and ``q_words`` per case; a case may
differ from them by a relative 4e-15, everything else must be equal.  A
group that differs in that way alone digests as its record, so
re-recording leaves the record as it was.
"""

from __future__ import annotations

import functools
import math

from repro.analysis.baseline_costs import algo1d_cost, algo25d_cost, carma_cost, summa_cost
from repro.analysis.costs import ca3dmm_cost, cosma_cost, ctf_cost, redist_cost
from repro.bench import CPU_PROBLEMS, GPU_PROBLEMS
from repro.grid.factorize import near_square_pair
from repro.grid.optimizer import GridSpec, cosma_grid, ctf_grid
from repro.machine.model import laptop, pace_phoenix_cpu, pace_phoenix_gpu
from tests import oracles

MACHINES = {
    "mpi": pace_phoenix_cpu("mpi"),
    "hybrid": pace_phoenix_cpu("hybrid"),
    "gpu": pace_phoenix_gpu(),
    "mpi-partial": pace_phoenix_cpu("mpi").with_overlap("partial"),
    "mpi-full": pace_phoenix_cpu("mpi").with_overlap("full"),
    "laptop": laptop(),
}


def _crossover_shapes() -> list[tuple[int, int, int]]:
    """The seven shapes of ``benchmarks/bench_crossover_map.py`` (fixed mnk)."""
    total = 4096 ** 3
    out = [(s, s, s * r) for r in (64, 16, 4) for s in [round((total / r) ** (1 / 3))]]
    out.append((round(total ** (1 / 3)),) * 3)
    out += [(s * r, s, s) for r in (4, 16, 64) for s in [round((total / r) ** (1 / 3))]]
    return out


SHAPES = list(dict.fromkeys(
    [p.dims for p in CPU_PROBLEMS + GPU_PROBLEMS]
    + _crossover_shapes()
    + [(48, 48, 96), (123, 457, 789), (1, 1, 1)]
))
PROCS = (1, 2, 7, 16, 64, 192, 768, 3072)
#: SUMMA cases with more panels than this are left out (time budget).
MAX_PANELS = 256


def _forced(m, n, k, p):
    """A caller's grid: COSMA's when Cannon can run on it, else ``1 x 1 x P``."""
    g = cosma_grid(m, n, k, p)
    return g if g.cannon_compatible else GridSpec(1, 1, p, p)


def _ctf_face(m, n, k, p):
    g = ctf_grid(m, n, k, p)
    return {"sq": g.pm, "c": min(g.pk, g.pm)}


def _square_grid(m, n, k, p):
    s = math.isqrt(p)
    return {"grid": GridSpec(s, s, 1, p)}


def _panels_ok(panel):
    return lambda m, n, k, p: math.ceil(k / panel) <= MAX_PANELS


#: variant name -> (closed form, fixed kwargs, kwargs derived from (m, n, k, P),
#: case filter).  Every value a caller in src/, benchmarks/ or tests/ passes.
VARIANTS = {
    "ca3dmm": (ca3dmm_cost, {}, None, None),
    "ca3dmm/custom": (ca3dmm_cost, {"custom_layout": True}, None, None),
    "ca3dmm/grid": (ca3dmm_cost, {}, lambda *a: {"grid": _forced(*a)}, None),
    "ca3dmm-s": (ca3dmm_cost, {"inner": "summa"}, None, None),
    "ca3dmm-s/custom": (ca3dmm_cost, {"inner": "summa", "custom_layout": True}, None, None),
    "ca3dmm-s/grid": (ca3dmm_cost, {"inner": "summa"}, lambda *a: {"grid": _forced(*a)}, None),
    "ca3dmm-s/frac0.25": (ca3dmm_cost, {"inner": "summa", "summa_panel_frac": 0.25}, None, None),
    "ca3dmm-s/grid/frac0.125": (
        ca3dmm_cost, {"inner": "summa", "summa_panel_frac": 1.0 / 8},
        lambda *a: {"grid": _forced(*a)}, None,
    ),
    "cosma": (cosma_cost, {}, None, None),
    "cosma/custom": (cosma_cost, {"custom_layout": True}, None, None),
    "cosma/grid": (cosma_cost, {}, lambda *a: {"grid": _forced(*a)}, None),
    "ctf": (ctf_cost, {}, None, None),
    "ctf/grid": (ctf_cost, {}, _square_grid, None),
    "1d/auto": (algo1d_cost, {}, None, None),
    "1d/m": (algo1d_cost, {"variant": "m"}, None, None),
    "1d/n": (algo1d_cost, {"variant": "n"}, None, None),
    "1d/k": (algo1d_cost, {"variant": "k"}, None, None),
    "summa": (summa_cost, {}, None, _panels_ok(256)),
    "summa/panel64": (summa_cost, {"panel": 64}, None, _panels_ok(64)),
    "summa/panel2048": (summa_cost, {"panel": 2048}, None, _panels_ok(2048)),
    "summa/grid": (summa_cost, {}, lambda m, n, k, p: {"grid": near_square_pair(p)[::-1]},
                   _panels_ok(256)),
    "2.5d": (algo25d_cost, {}, None, None),
    "2.5d/ctf-face": (algo25d_cost, {}, _ctf_face, None),
    "carma": (carma_cost, {}, None, None),
    "redist": (None, {"overlap": 0.0}, None, None),
    "redist/overlap0.5": (None, {"overlap": 0.5}, None, None),
}

GROUPS = [f"{variant}@{mach}" for variant in VARIANTS for mach in MACHINES]


def _cases(variant: str):
    fn, fixed, derived, keep = VARIANTS[variant]
    for m, n, k in SHAPES:
        for p in PROCS:
            if keep is None or keep(m, n, k, p):
                yield (m, n, k, p), fn, {**fixed, **(derived(m, n, k, p) if derived else {})}


def _price(fn, dims, kwargs, machine):
    m, n, k, p = dims
    if fn is None:  # redist_cost: A, B and C converted once
        return redist_cost(machine, float(m * k + k * n + m * n), p, **kwargs)
    return fn(m, n, k, p, machine, **kwargs)


def _row(cost, hide_replicate=False):
    if not hasattr(cost, "phases"):  # a PhaseCost
        return (cost.time, cost.words, cost.msgs)
    phases = tuple(
        (name, None, None, ph.msgs) if hide_replicate and name == "replicate"
        else (name, ph.time, ph.words, ph.msgs)
        for name, ph in cost.phases.items()
    )
    return (cost.algo, cost.grid, phases, cost.mem_words, cost.flops_per_rank)


def evaluate(group: str, run=None) -> dict:
    """The record of one group: its case count and digest, and for 2.5D
    the digest without the replicate time/words plus the values left out."""
    variant, mach = group.split("@")
    machine = MACHINES[mach]
    rows, rest, values = [], [], []
    for dims, fn, kwargs in _cases(variant):
        cost = _price(fn, dims, kwargs, machine)
        rows.append((dims, _row(cost)))
        if fn is algo25d_cost:
            rest.append((dims, _row(cost, hide_replicate=True)))
            ph = cost.phases["replicate"]
            values.append([ph.time, ph.words, cost.t_total, cost.q_words])
    out = {"cases": len(rows), "digest": oracles.sha(repr(rows))}
    if values:
        out.update(rest=oracles.sha(repr(rest)), values=values)
    return out


#: relative difference tolerated on the 2.5D replicate sums (float order)
REL_25D = 4e-15


def _digest(group: str, got: dict) -> dict:
    """``got``, or the record if ``got`` moved from it only in the float
    order of 2.5D's shift sums, each value by a relative ``REL_25D``."""
    want = ORACLE.recorded.get(group, {})
    if "values" not in want or (got["cases"], got.get("rest")) != (want["cases"], want["rest"]):
        return got
    within = all(abs(a - b) <= REL_25D * abs(b)
                 for new, old in zip(got["values"], want["values"]) for a, b in zip(new, old))
    return want if within else got


ORACLE = oracles.Oracle("cost", __file__, {
    group: (oracles.Run(functools.partial(evaluate, group)), functools.partial(_digest, group))
    for group in GROUPS
}, indent=0)


def test_every_group_is_recorded_and_nothing_else():
    assert sorted(ORACLE.recorded) == sorted(GROUPS)
    assert len(SHAPES) == 17 and len(GROUPS) == 156


test_prices_are_bit_identical = ORACLE.test({group: [group] for group in GROUPS})
