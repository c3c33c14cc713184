"""The array search against the scalar oracle it replaced.

``tests/grid/reference_search.py`` is the old search, verbatim: one
``GridSpec`` per candidate, the exact key over all of them.  Everything
``repro.grid.optimizer`` selects — ``ca3dmm_grid``, ``cosma_grid``, the
near-optimal list behind ``tune`` — must equal it: on primes and odd
composites, on degenerate and 2^40-sized dimensions (products far beyond
2^53, where float64 no longer tells neighbouring candidates apart and the
Python-int key has to), for every ``l`` in ``(0, 1]``, and with the
memory cap sitting exactly on a candidate's footprint.

The default hypothesis profile runs in tier-1; ``--hypothesis-profile
thorough`` (``tests/conftest.py``) runs 2 000 examples per property.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import autotune
from repro.grid import optimizer
from repro.grid.optimizer import (
    GridSpec,
    MemLimitInfeasibleWarning,
    _sorted_key,
    best_grids,
    ca3dmm_grid,
    cosma_grid,
    ctf_grid,
    enumerate_grids,
)
from repro.machine.model import pace_phoenix_cpu, pace_phoenix_gpu

from . import reference_search as oracle

PRIMES = (2, 3, 5, 7, 13, 17, 97, 191, 193, 1021, 2053, 3067, 4093)
ODD_COMPOSITES = (9, 15, 21, 27, 45, 81, 105, 243, 341, 1155, 2187, 3003, 4095)

procs = st.one_of(
    st.integers(1, 128),
    st.integers(1, 4096),
    st.sampled_from(PRIMES),
    st.sampled_from(ODD_COMPOSITES),
)
#: 0 is a legal (degenerate) dimension; (2^27 + 1)^2 already exceeds 2^53.
dims = st.one_of(
    st.integers(0, 2 ** 40),
    st.integers(0, 64),
    st.sampled_from((0, 1, 2 ** 27 + 1, 2 ** 40 - 1, 2 ** 40)),
)
ls = st.one_of(
    st.sampled_from((0.95, 1.0, 0.5, 5e-324)),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
problem = dict(m=dims, n=dims, k=dims, P=procs, l=ls)


def outcome(search, *args, **kwargs):
    """What a search returns and the warnings it raises, comparably."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = search(*args, **kwargs)
    return result, [(w.category, str(w.message)) for w in caught]


# ---------------------------------------------------------------- unfiltered -- #
@settings(deadline=None)
@given(P=procs, l=ls, divisible=st.booleans())
def test_enumeration_is_the_oracles_list_in_the_oracles_order(P, l, divisible):
    grids = enumerate_grids(P, l, divisible)
    assert grids == oracle.enumerate_grids(P, l, divisible)
    assert all(type(x) is int for g in grids for x in (g.pm, g.pn, g.pk, g.nprocs))


@settings(deadline=None)
@given(**problem, count=st.integers(1, 8))
def test_selectors_match_the_oracle(m, n, k, P, l, count):
    assert ca3dmm_grid(m, n, k, P, l) == oracle.ca3dmm_grid(m, n, k, P, l)
    assert cosma_grid(m, n, k, P, l) == oracle.cosma_grid(m, n, k, P, l)
    assert autotune._near_optimal_grids(
        m, n, k, P, l, count
    ) == oracle.near_optimal_grids(m, n, k, P, l, count)


def test_paper_scale_products_are_beyond_float64():
    """The strategy above really leaves float64's exact range: at these
    sizes neighbouring candidates' volumes collide in float64 and only
    the Python-int key separates them."""
    m = n = k = 2 ** 40 - 1
    assert float(k * n) != k * n
    for P in (17, 341, 3072):
        assert ca3dmm_grid(m, n, k, P) == oracle.ca3dmm_grid(m, n, k, P)
        assert cosma_grid(m, n, k, P) == oracle.cosma_grid(m, n, k, P)


@settings(deadline=None)
@given(
    m=st.integers(1, 2 ** 20), n=st.integers(1, 2 ** 20), k=st.integers(1, 2 ** 20),
    P=st.one_of(st.integers(1, 512), st.sampled_from(PRIMES + ODD_COMPOSITES)),
    l=ls,
    cap_frac=st.one_of(st.none(), st.floats(0.2, 1.2)),
    gpu=st.booleans(),
    near=st.integers(1, 8),
)
def test_tune_ranks_the_oracles_candidates(m, n, k, P, l, cap_frac, gpu, near):
    machine = pace_phoenix_gpu() if gpu else pace_phoenix_cpu("mpi")
    cap = None
    if cap_frac is not None:
        cap = oracle.ca3dmm_grid(m, n, k, P, l).memory_words(m, n, k) * cap_frac
    got = outcome(autotune.tune, m, n, k, P, machine, cap, l, near_optimal=near)
    with mock.patch.multiple(
        autotune,
        _near_optimal_grids=oracle.near_optimal_grids,
        ca3dmm_grid=oracle.ca3dmm_grid,
        cosma_grid=oracle.cosma_grid,
    ):
        want = outcome(autotune.tune, m, n, k, P, machine, cap, l, near_optimal=near)
    assert got[0].candidates == want[0].candidates
    assert got[0].best == want[0].best
    assert got[1] == want[1]


# ------------------------------------------------------------ the memory cap -- #
def caps_around(words: float) -> tuple[float, float, float]:
    """One ulp under a footprint, the footprint itself, one ulp over."""
    return math.nextafter(words, -math.inf), words, math.nextafter(words, math.inf)


def assert_capped_search_matches(m, n, k, P, l, cap, count=1):
    assert outcome(ca3dmm_grid, m, n, k, P, l, cap) == outcome(
        oracle.ca3dmm_grid, m, n, k, P, l, cap
    )
    fitting = [
        g for g in oracle.enumerate_grids(P, l, True) if g.memory_words(m, n, k) <= cap
    ]
    if fitting:  # best_grids(count) under a cap: the exact sort of what fits
        assert best_grids(
            m, n, k, P, l, require_divisible=True, use_latency=True,
            count=count, memory_limit_words=cap,
        ) == sorted(fitting, key=_sorted_key(m, n, k))[:count]


@pytest.mark.parametrize("P", [1, 7, 12, 16, 17, 24, 27, 45, 64, 96])
@pytest.mark.parametrize(
    "shape",
    [(64, 64, 64), (1000, 10, 10), (10, 10, 1000), (100, 50, 25), (0, 8, 8),
     (2 ** 40, 2 ** 40 - 1, 2 ** 27 + 1)],
)
def test_cap_on_every_candidates_footprint(shape, P):
    """``bench_ablation_memory.py``'s ``frac = 1.0`` case, everywhere:
    a cap *equal* to a candidate's eq. (11) footprint admits it, one ulp
    less does not — the float screen may not decide either."""
    for cand in oracle.enumerate_grids(P, 0.95, True):
        for cap in caps_around(cand.memory_words(*shape)):
            assert_capped_search_matches(*shape, P, 0.95, cap, count=3)


@settings(deadline=None)
@given(**problem, pick=st.integers(0, 2 ** 16), count=st.integers(1, 4))
def test_cap_on_a_drawn_candidates_footprint(m, n, k, P, l, pick, count):
    cands = oracle.enumerate_grids(P, l, True)
    words = cands[pick % len(cands)].memory_words(m, n, k)
    for cap in caps_around(words):
        assert_capped_search_matches(m, n, k, P, l, cap, count)


@settings(deadline=None)
@given(**problem)
def test_infeasible_cap_falls_back_with_the_oracles_warning(m, n, k, P, l):
    least = min(g.memory_words(m, n, k) for g in oracle.enumerate_grids(P, l, True))
    for cap in (math.nextafter(least, -math.inf), -1.0, math.nan):
        grid, warned = outcome(ca3dmm_grid, m, n, k, P, l, cap)
        assert (grid, warned) == outcome(oracle.ca3dmm_grid, m, n, k, P, l, cap)
        assert grid.memory_words(m, n, k) == least
        [(category, text)] = warned
        assert category is MemLimitInfeasibleWarning
        assert "excludes every candidate grid" in text and str(grid) in text


def test_infeasible_cap_warning_names_the_callers_line():
    with pytest.warns(MemLimitInfeasibleWarning) as caught:
        ca3dmm_grid(1000, 1000, 1000, 64, memory_limit_words=1.0)
    assert caught[0].filename == __file__


def test_cap_without_constraint_7_is_refused():
    with pytest.raises(ValueError, match=r"eq\. \(11\)"):
        best_grids(64, 64, 64, 12, require_divisible=False, use_latency=False,
                   memory_limit_words=1e9)


# ------------------------------------------------------ contract of the inputs -- #
def test_a_candidate_exists_for_every_p_and_l():
    """With ``0 < l <= 1`` the bound never exceeds P, so ``1 x 1 x P``
    passes eqs. (5) and (7): the relaxation loops the scalar search
    carried were dead code."""
    for P in range(1, 4097):
        for l in (5e-324, 0.95, 1.0):
            pm, pn, pk = optimizer._candidates(P, l, True)
            assert (pm[0], pn[0], pk[0]) == (1, 1, P), (P, l)


@settings(deadline=None)
@given(P=procs, l=ls, divisible=st.booleans())
def test_candidates_honour_eqs_5_and_7(P, l, divisible):
    pm, pn, pk = (a.tolist() for a in optimizer._candidates(P, l, divisible))
    lo = max(1, math.floor(l * P + 1e-9))
    assert pm and (pm[0], pn[0], pk[0]) == (1, 1, P)
    for a, b, c in zip(pm, pn, pk):
        assert c == P // (a * b) and lo <= a * b * c <= P
        assert not divisible or max(a, b) % min(a, b) == 0


#: The searches bounded by eq. (5), called on ``(nprocs, l)``.
EQ5_SEARCHES = {
    "ca3dmm_grid": lambda nprocs, l: ca3dmm_grid(4, 4, 4, nprocs, l),
    "cosma_grid": lambda nprocs, l: cosma_grid(4, 4, 4, nprocs, l),
    "enumerate_grids": lambda nprocs, l: enumerate_grids(nprocs, l),
}
#: ``ctf_grid`` has no ``l``; everything else of the contract is the same.
SEARCHES = {**EQ5_SEARCHES, "ctf_grid": lambda nprocs, l: ctf_grid(4, 4, 4, nprocs)}


@pytest.fixture
def no_search(monkeypatch):
    """A rejected call must not have started enumerating: the candidate
    table of eqs. (5)/(7), or the divisors ``ctf_grid`` walks."""

    def started(*args):
        raise AssertionError("the search ran on arguments it should have refused")

    monkeypatch.setattr(optimizer, "_candidates", started)
    monkeypatch.setattr(optimizer, "divisors", started)


@pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
def test_no_search_stops_a_search_that_starts(search, no_search):
    """The fixture patches what every search really calls — else the
    refusals below would pass without a search to stop."""
    with pytest.raises(AssertionError, match="should have refused"):
        search(17, 0.95)


class TestRejectedArguments:
    @pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
    @pytest.mark.parametrize("nprocs", [0, -1, -4096, 2.5, 16.0, "16", None])
    def test_nprocs_must_be_a_positive_integer(self, search, nprocs, no_search):
        """``cosma_grid(4, 4, 4, 0)`` used to spin forever,
        ``enumerate_grids(0)`` returned ``[]`` and ``ctf_grid`` built a
        grid of 2.5 ranks."""
        with pytest.raises(ValueError, match="nprocs"):
            search(nprocs, 0.95)

    @pytest.mark.parametrize("search", EQ5_SEARCHES.values(), ids=EQ5_SEARCHES.keys())
    @pytest.mark.parametrize(
        "l", [0.0, -0.0, -1.0, 1.0000001, 2.0, math.inf, -math.inf, math.nan]
    )
    def test_l_must_lie_in_eq_5s_range(self, search, l, no_search):
        """``l = 1.0000001`` used to halve the bound silently (1x17x1 on
        17 ranks); ``nan``/``inf`` surfaced as float-to-int errors."""
        with pytest.raises(ValueError, match=r"eq\. \(5\)"):
            search(17, l)


#: What a search returns on zero dimensions: the oracle's grid, and for
#: ``ctf_grid``, which ignores the shape, its grid for any shape.
ZERO_DIMS_REFERENCE = {
    ca3dmm_grid: oracle.ca3dmm_grid,
    cosma_grid: oracle.cosma_grid,
    ctf_grid: lambda m, n, k, nprocs: ctf_grid(1, 1, 1, nprocs),
}


@pytest.mark.parametrize("search", list(ZERO_DIMS_REFERENCE))
def test_negative_dimensions_are_refused_and_zero_is_not(search, monkeypatch):
    reference = ZERO_DIMS_REFERENCE[search]
    assert search(0, 4, 4, 8) == reference(0, 4, 4, 8)
    assert search(0, 0, 0, 8) == reference(0, 0, 0, 8)
    monkeypatch.setattr(optimizer, "_candidates", None)  # not reached
    monkeypatch.setattr(optimizer, "divisors", None)
    for shape in ((-1, 4, 4), (4, -1, 4), (4, 4, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            search(*shape, 8)


@pytest.mark.parametrize("search", [ca3dmm_grid, cosma_grid])
def test_oversized_dimensions_overflow_they_do_not_win_among_infs(search):
    huge = 2 ** 600  # k*n alone is beyond float64
    with pytest.raises(OverflowError):
        getattr(oracle, search.__name__)(huge, huge, huge, 4)
    with pytest.raises(OverflowError):
        search(huge, huge, huge, 4)
    # every product converts, the surface of some candidates does not: the
    # scalar search ranked those as inf and returned another grid
    with pytest.raises(OverflowError):
        search(1, 2 ** 511, 2 ** 511, 4)


def test_numpy_integer_nprocs_yields_plain_ints():
    import numpy as np

    grid = ca3dmm_grid(64, 64, 64, np.int64(16))
    assert grid == GridSpec(2, 4, 2, 16) and type(grid.nprocs) is int
