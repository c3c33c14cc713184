"""``ca3dmm_phase_costs``: CA3DMM's closed-form phases under the name the
frozen host benchmark calls.

The collectives are priced in one place, :mod:`repro.analysis.costs`;
this module has no formula of its own and no caller in ``src/``.  It
stays only because ``benchmarks/hostbench/probes.py`` times it and is
edited by one PR alone; that PR (ROADMAP "A smaller core" (b)) deletes
this module.
"""

from __future__ import annotations

from ..analysis.costs import ca3dmm_cost


def ca3dmm_phase_costs(plan, machine) -> dict:
    """:func:`~repro.analysis.costs.ca3dmm_cost`'s phases for ``plan``."""
    return ca3dmm_cost(plan.m, plan.n, plan.k, plan.nprocs, machine, grid=plan.grid).phases
