"""What one grid search costs the host, as counts of Python objects and calls.

A count, not a stopwatch (the style of ``tests/mpi/test_message_path.py``):
the number of ``GridSpec``s a search validates and the number of
``MachineModel.msg_time`` calls a pairwise exchange makes repeat exactly,
so they can be gated tightly where wall time on a shared runner cannot.
The scalar search built one ``GridSpec`` per candidate of eqs. (5)/(7) —
2 211 for ``ca3dmm_grid`` and 5 147 for ``cosma_grid`` at P = 3072 — and
``_pairwise`` priced each of its ``g - 1`` messages separately.  The
``perf-gate`` CI job runs the helpers; they need numpy only.
"""

from __future__ import annotations

from unittest import mock

from repro.analysis import costs
from repro.bench.workloads import CPU_PROBLEMS, SCALING_PROCS
from repro.grid.optimizer import GridSpec, ca3dmm_grid, cosma_grid
from repro.machine.model import MachineModel, pace_phoenix_cpu

#: ``GridSpec``s one search may validate, at any P (measured: at most 6).
MAX_GRIDSPECS_PER_SEARCH = 16


def counted_calls(owner, name: str):
    """Patch ``owner.name`` with a pass-through mock for the length of a
    ``with`` block; its ``call_count`` is the number of calls made."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


def gridspecs_per_search() -> dict[tuple[str, int], int]:
    """Most ``GridSpec``s validated by one search, per ``(selector, P)``,
    over Fig. 3's points: 4 problems x 5 process counts."""
    worst: dict[tuple[str, int], int] = {}
    for search in (ca3dmm_grid, cosma_grid):
        for procs in SCALING_PROCS:
            for prob in CPU_PROBLEMS:
                with counted_calls(GridSpec, "__post_init__") as built:
                    search(*prob.dims, procs)
                key = (search.__name__, procs)
                worst[key] = max(worst.get(key, 0), built.call_count)
    return worst


def msg_time_calls(price, *args) -> int:
    """``MachineModel.msg_time`` calls made by one pattern-pricing call."""
    with counted_calls(MachineModel, "msg_time") as calls:
        price(*args)
    return calls.call_count


def test_search_builds_a_handful_of_gridspecs_at_every_p():
    worst = gridspecs_per_search()
    assert len(worst) == 2 * len(SCALING_PROCS)
    assert max(worst.values()) <= MAX_GRIDSPECS_PER_SEARCH, worst
    assert min(worst.values()) >= 1


def test_pairwise_prices_its_two_message_times_once():
    g = SCALING_PROCS[-1]
    machine, ranks = pace_phoenix_cpu("mpi"), list(range(g))
    assert msg_time_calls(costs._pairwise, machine, ranks, 4096.0) == 0
    assert msg_time_calls(costs.redist_cost, machine, 1e9, g) == 0
    # the scatter half of van de Geijn's broadcast too: what is left is
    # its Bruck allgather, ceil(log2 g) messages of different sizes
    assert msg_time_calls(costs._bcast_vdg, machine, ranks, 1e6) == msg_time_calls(
        costs._bruck_allgather, machine, ranks, 1e6
    )
