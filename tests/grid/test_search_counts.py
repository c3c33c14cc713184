"""What one grid search costs the host, as counts of Python objects and calls.

A count, not a stopwatch (the style of ``tests/mpi/test_message_path.py``):
the number of ``GridSpec``s a search validates and the number of
``MachineModel.msg_time`` calls a pairwise exchange makes repeat exactly,
so they can be gated tightly where wall time on a shared runner cannot.
The scalar search built one ``GridSpec`` per candidate of eqs. (5)/(7) —
2 211 for ``ca3dmm_grid`` and 5 147 for ``cosma_grid`` at P = 3072 — and
``_pairwise`` priced each of its ``g - 1`` messages separately.  The
candidate table of eqs. (5)/(7) depends on ``(P, l, require_divisible)``
only; rebuilt per search, the paper's figures and tables built 306 of
them for 37 keys.  Their 306 searches ask 149 distinct questions, and
``best_grids`` answers each once per process (``optimizer._search``), so
a count of *cold* work clears that memo first.  The closed forms the
sweep prices keep their answers too (``costs._ca3dmm_cost``, ``_cosma_cost``,
``_ctf_cost``): a memo warmed by an earlier test answers a question without
searching, so clearing the search memo clears theirs.  The ``perf-gate`` CI
job runs the helpers; they need numpy only.
"""

from __future__ import annotations

from unittest import mock

from repro.analysis import costs
from repro.bench.harness import (
    fig3_scaling,
    fig4_hybrid,
    fig5_breakdown,
    l_sweep,
    table1_memory,
    table2_grids,
)
from repro.bench.workloads import CPU_PROBLEMS, SCALING_PROCS
from repro.core.autotune import tune
from repro.grid import optimizer
from repro.grid.optimizer import GridSpec, ca3dmm_grid, cosma_grid
from repro.machine.model import MachineModel, pace_phoenix_cpu

#: ``GridSpec``s one search may validate, at any P (measured: at most 6).
MAX_GRIDSPECS_PER_SEARCH = 16
#: Candidate tables a process may hold at once, whatever keys it asks for.
MAX_CANDIDATE_TABLES = 128
#: The memoized closed forms: ``ca3dmm_cost``, ``cosma_cost``, ``ctf_cost``.
COST_MEMOS = (costs._ca3dmm_cost, costs._cosma_cost, costs._ctf_cost)


def counted_calls(owner, name: str):
    """Patch ``owner.name`` with a pass-through mock for the length of a
    ``with`` block; its ``call_count`` is the number of calls made."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


def clear_search_memo() -> None:
    """Forget every answered search and priced question, so the next ones
    run cold."""
    optimizer._search.cache_clear()
    optimizer._ctf_grid.cache_clear()
    for memo in COST_MEMOS:
        memo.cache_clear()


def gridspecs_per_search() -> dict[tuple[str, int], int]:
    """Most ``GridSpec``s validated by one cold search, per ``(selector,
    P)``, over Fig. 3's points: 4 problems x 5 process counts."""
    worst: dict[tuple[str, int], int] = {}
    for search in (ca3dmm_grid, cosma_grid):
        for procs in SCALING_PROCS:
            for prob in CPU_PROBLEMS:
                clear_search_memo()
                with counted_calls(GridSpec, "__post_init__") as built:
                    search(*prob.dims, procs)
                key = (search.__name__, procs)
                worst[key] = max(worst.get(key, 0), built.call_count)
    return worst


def paper_sweep() -> None:
    """Fig. 3, Fig. 4, Table I, Table II, Fig. 5, the l-sweep and ``tune``
    on ``CPU_PROBLEMS`` — the ``analytic_paper_scale`` repetition."""
    for gen in (fig3_scaling, fig4_hybrid, table1_memory, table2_grids,
                fig5_breakdown, l_sweep):
        gen(problems=CPU_PROBLEMS)
    tune(*CPU_PROBLEMS[0].dims, SCALING_PROCS[-1], pace_phoenix_cpu("mpi"))


def candidate_tables_per_sweep() -> tuple[int, int, int, int]:
    """``(searches, distinct keys, tables built)`` over one cold
    :func:`paper_sweep`, and the searches a second, warm one runs.  A
    search is a call that reaches the candidate table: one per question
    the memo has not answered yet."""
    clear_search_memo()
    optimizer._candidates.cache_clear()
    with counted_calls(optimizer, "_candidates") as searched:
        paper_sweep()
    keys = {c.args for c in searched.call_args_list}
    built = optimizer._candidates.cache_info().misses
    with counted_calls(optimizer, "_candidates") as again:
        paper_sweep()
    return searched.call_count, len(keys), built, again.call_count


def evaluations_per_sweep() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed-form evaluations (``ca3dmm_cost``, ``cosma_cost``, ``ctf_cost``)
    in one cold :func:`paper_sweep`, and in a second, warm one.  An
    evaluation is a call the memo does not answer."""
    def evaluated() -> tuple[int, ...]:
        return tuple(memo.cache_info().misses for memo in COST_MEMOS)

    clear_search_memo()
    paper_sweep()
    cold = evaluated()
    paper_sweep()
    return cold, tuple(b - a for a, b in zip(cold, evaluated()))


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


def test_the_paper_sweep_builds_one_candidate_table_per_key():
    """306 searches ask 149 questions of 37 keys: a cold sweep searches
    once per question and builds one table per key, a warm one searches
    not at all — and the memo holds two sweeps' questions."""
    searches, keys, built, warm = candidate_tables_per_sweep()
    assert (searches, keys, warm) == (149, 37, 0)
    assert built == keys
    assert optimizer.SEARCH_MEMO >= 2 * searches


def test_the_paper_sweep_prices_each_question_once():
    """272 closed-form calls ask 178 questions: a cold sweep evaluates each
    once, a warm one none — and each memo holds two sweeps' questions.
    (``tune`` and Table II ask one ``ca3dmm_cost`` question with and
    without ``inner="cannon"``: the memo keys on every argument's value,
    defaults included, so that is one question.)"""
    cold, warm = evaluations_per_sweep()
    assert (cold, warm) == ((80, 78, 20), (0, 0, 0))
    assert costs.COST_MEMO >= 2 * sum(cold)


def test_candidate_tables_are_read_only():
    for table in (optimizer._candidates(17, 0.95, True), optimizer._candidates(17, 0.95, False)):
        assert not any(a.flags.writeable for a in table)


def test_the_table_cache_stays_within_its_bound():
    """``test_a_candidate_exists_for_every_p_and_l``'s 12 288 keys — every
    P to 4096 at three ``l`` — leave no more than the bound behind."""
    optimizer._candidates.cache_clear()
    for P in range(1, 4097):
        for l in (5e-324, 0.95, 1.0):
            optimizer._candidates(P, l, True)
    info = optimizer._candidates.cache_info()
    assert info.misses == 3 * 4096
    assert info.currsize <= info.maxsize <= MAX_CANDIDATE_TABLES
