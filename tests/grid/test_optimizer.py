"""Process-grid selection against the paper's reported grids."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import GridSpec, ca3dmm_grid, cosma_grid, ctf_grid, enumerate_grids, optimizer
from repro.grid.optimizer import MemLimitInfeasibleWarning, best_grids

from .test_search_counts import clear_search_memo


class TestGridSpec:
    def test_derived_quantities(self):
        g = GridSpec(pm=2, pn=4, pk=3, nprocs=30)
        assert g.used == 24 and g.idle == 6
        assert g.s == 2 and g.c == 2
        assert g.replicates_a  # pn > pm
        assert g.cannon_compatible

    def test_surface_formula(self):
        g = GridSpec(pm=2, pn=3, pk=4, nprocs=24)
        # wait: 3 % 2 != 0 -> not cannon compatible, but surface still works
        assert not g.cannon_compatible
        assert g.surface(10, 20, 30) == 2 * (2 * 30 * 20 + 3 * 10 * 30 + 4 * 10 * 20)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(pm=0, pn=1, pk=1, nprocs=4)
        with pytest.raises(ValueError):
            GridSpec(pm=4, pn=4, pk=4, nprocs=16)

    @pytest.mark.parametrize("field", ["pm", "pn", "pk", "nprocs"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_a_grid_size_must_be_an_int(self, field, value):
        """``GridSpec(2.0, 1, 1, 2)`` used to build a ``2.0x1x1`` grid and
        ``nprocs=True`` a world of one rank."""
        sizes = {"pm": 1, "pn": 1, "pk": 1, "nprocs": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field}="):
            GridSpec(**sizes)

    def test_numpy_integers_are_grid_sizes(self):
        g = GridSpec(*np.array([2, 1, 1, 2]))
        assert g.used == 2 and g == GridSpec(2, 1, 1, 2)

    def test_c_raises_on_incompatible(self):
        g = GridSpec(pm=2, pn=3, pk=1, nprocs=6)
        with pytest.raises(ValueError):
            _ = g.c

    def test_latency_eq10(self):
        # L = ceil(log2 c) + s + pk - 1 (paper eq. 10)
        g = GridSpec(pm=2, pn=4, pk=3, nprocs=24)
        assert g.latency_ca3dmm() == 1 + 2 + 2
        g2 = GridSpec(pm=1, pn=1, pk=8, nprocs=8)
        assert g2.latency_ca3dmm() == 7  # pure 1D-k: reduce only


class TestPaperExamples:
    def test_example1(self):
        g = ca3dmm_grid(32, 64, 16, 8)
        assert (g.pm, g.pn, g.pk) == (2, 4, 1)
        assert g.c == 2 and g.replicates_a

    def test_example2(self):
        g = ca3dmm_grid(32, 32, 64, 16)
        assert (g.pm, g.pn, g.pk) == (2, 2, 4)

    def test_example3_idle_rank(self):
        g = ca3dmm_grid(32, 32, 64, 17)
        assert (g.pm, g.pn, g.pk) == (2, 2, 4)
        assert g.idle == 1

    def test_artifact_24_rank_grid(self):
        """The artifact's 8000^3 on 24 ranks: a (4,2,3)-type grid, 100% util."""
        g = ca3dmm_grid(8000, 8000, 8000, 24)
        assert sorted((g.pm, g.pn, g.pk)) == [2, 3, 4]
        assert g.idle == 0

    @pytest.mark.parametrize(
        "dims,P,expect",
        [
            ((6000, 6000, 1200000), 2048, (2, 2, 512)),
            ((100000, 100000, 5000), 2048, (32, 32, 2)),
            ((6000, 6000, 1200000), 3072, (3, 3, 341)),
            ((100000, 100000, 5000), 3072, (39, 39, 2)),
        ],
    )
    def test_table2_grids(self, dims, P, expect):
        g = ca3dmm_grid(*dims, P)
        assert (g.pm, g.pn, g.pk) == expect

    @pytest.mark.parametrize(
        "dims,P,expect",
        [
            ((10000, 10000, 300000), 16, (1, 1, 16)),
            ((10000, 10000, 300000), 32, (1, 1, 32)),
        ],
    )
    def test_table3_gpu_grids(self, dims, P, expect):
        g = ca3dmm_grid(*dims, P)
        assert (g.pm, g.pn, g.pk) == expect


class TestConstraints:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 4000),
        n=st.integers(1, 4000),
        k=st.integers(1, 4000),
        P=st.integers(1, 600),
    )
    def test_grid_always_valid(self, m, n, k, P):
        g = ca3dmm_grid(m, n, k, P)
        assert 1 <= g.used <= P
        assert g.cannon_compatible  # eq. (7)
        assert g.used >= int(0.95 * P)  # eq. (5), floor bound

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 2000),
        n=st.integers(1, 2000),
        k=st.integers(1, 2000),
        P=st.integers(1, 256),
    )
    def test_optimal_among_candidates(self, m, n, k, P):
        """The chosen grid minimizes per-process volume over all
        candidates (the objective the reference grids imply; see
        grid/optimizer.py)."""
        g = ca3dmm_grid(m, n, k, P)
        best = min(
            c.surface(m, n, k) / c.used for c in enumerate_grids(P, 0.95, True)
        )
        assert g.surface(m, n, k) / g.used == best

    def test_degenerate_shapes(self):
        assert (lambda g: (g.pm, g.pn))(ca3dmm_grid(1, 1, 1024, 16)) == (1, 1)
        g = ca3dmm_grid(1, 1024, 1, 16)
        assert g.pm == 1 and g.pk == 1  # matvec: pure n-partition
        g = ca3dmm_grid(1024, 1, 1, 16)
        assert g.pn == 1 and g.pk == 1

    def test_prime_process_count_idles(self):
        g = ca3dmm_grid(1000, 1000, 1000, 13)
        assert g.used in (12, 13)
        assert g.cannon_compatible

    def test_nprocs_one(self):
        g = ca3dmm_grid(100, 100, 100, 1)
        assert (g.pm, g.pn, g.pk, g.idle) == (1, 1, 1, 0)

    def test_l_sweep_stability(self):
        """Section IV-A: l in [0.85, 0.99] almost always gives one grid."""
        dims = (50000, 50000, 50000)
        grids = {
            (g.pm, g.pn, g.pk)
            for g in (ca3dmm_grid(*dims, 2048, l=l) for l in (0.85, 0.90, 0.95, 0.99))
        }
        assert len(grids) == 1


class TestCosmaGrid:
    def test_no_divisibility_constraint(self):
        g = cosma_grid(6000, 6000, 1200000, 3072)
        assert g.used >= int(0.95 * 3072)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 2000), n=st.integers(1, 2000),
        k=st.integers(1, 2000), P=st.integers(1, 256),
    )
    def test_cosma_never_worse_than_ca3dmm(self, m, n, k, P):
        """Dropping constraint (7) can only improve the optimum."""
        gc = cosma_grid(m, n, k, P)
        ga = ca3dmm_grid(m, n, k, P)
        assert gc.surface(m, n, k) / gc.used <= ga.surface(m, n, k) / ga.used


class TestCtfGrid:
    @pytest.mark.parametrize("P", [4, 16, 64, 192, 768, 2048, 3072])
    def test_square_face(self, P):
        g = ctf_grid(1000, 1000, 1000, P)
        assert g.pm == g.pn
        assert g.pk <= g.pm or g.pm == 1
        assert g.used <= P

    def test_aspect_blind(self):
        """CTF's grid ignores the matrix shape (the paper's criticism)."""
        a = ctf_grid(1000, 1000, 1000, 256)
        b = ctf_grid(100000, 10, 10, 256)
        assert (a.pm, a.pn, a.pk) == (b.pm, b.pn, b.pk)

    def test_tiny_world(self):
        g = ctf_grid(8, 8, 8, 1)
        assert (g.pm, g.pn, g.pk) == (1, 1, 1)


class TestSearchMemo:
    """Each question is searched once per process (``optimizer._search``,
    ``optimizer._ctf_grid``); callers see what an uncached search gives."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_search_memo()

    def test_a_mutated_answer_does_not_change_the_next(self):
        ask = dict(require_divisible=True, use_latency=False, count=4)
        first = best_grids(1000, 10, 10, 64, **ask)
        want = list(first)
        first.reverse()
        first[0] = GridSpec(1, 1, 1, 64)
        first.append(None)
        assert best_grids(1000, 10, 10, 64, **ask) == want
        assert optimizer._search.cache_info().hits == 1

    def test_the_infeasible_cap_warns_on_a_hit_as_on_a_miss(self):
        seen = []
        for _ in range(2):
            with pytest.warns(MemLimitInfeasibleWarning) as caught:
                grid = ca3dmm_grid(1000, 1000, 1000, 64, memory_limit_words=1.0)
            [w] = caught
            seen.append((grid, w.filename, w.lineno, str(w.message)))
        info = optimizer._search.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert seen[0] == seen[1] and seen[0][1] == __file__

    @pytest.mark.parametrize("args, kwargs", [
        ((64, 64, 64, 16, math.nan), {}),
        ((64, 64, 64, 16, 1.5), {}),
        ((64, 64, 64, True), {}),
        ((64, 64, 64, 0), {}),
        ((-1, 64, 64, 16), {}),
        ((64, 64, 64, 16), {"require_divisible": False, "memory_limit_words": 1e9}),
    ])
    def test_refused_arguments_are_never_cached(self, args, kwargs):
        ask = {"require_divisible": True, "use_latency": True, **kwargs}
        before = optimizer._search.cache_info()
        with pytest.raises(ValueError):
            best_grids(*args, **ask)
        assert optimizer._search.cache_info() == before

    @pytest.mark.parametrize("args", [(64, 64, 64, True), (64, 64, 64, 0), (64, -1, 64, 16)])
    def test_refused_ctf_arguments_are_never_cached(self, args):
        before = optimizer._ctf_grid.cache_info()
        with pytest.raises(ValueError):
            ctf_grid(*args)
        assert optimizer._ctf_grid.cache_info() == before

    def test_numpy_and_python_integers_share_an_entry(self):
        for search in (ca3dmm_grid, cosma_grid, ctf_grid):
            np_grid = search(*np.array([1000, 10, 10, 64]))
            py_grid = search(1000, 10, 10, 64)
            assert np_grid == py_grid and type(np_grid.pm) is int
        for memo in (optimizer._search, optimizer._ctf_grid):
            info = memo.cache_info()
            assert info.hits == info.currsize == info.misses

    def test_every_p_to_4096_stays_within_the_bound(self):
        for P in range(1, 4097):
            ca3dmm_grid(64, 64, 64, P)
            ctf_grid(64, 64, 64, P)
        for memo in (optimizer._search, optimizer._ctf_grid):
            info = memo.cache_info()
            assert info.misses == 4096
            assert info.currsize <= info.maxsize == optimizer.SEARCH_MEMO


class TestPrimeProcessCounts:
    """Prime worlds admit only 1 x 1 x P-style factorizations; the
    search must still return a valid (near-1D) grid without tripping
    GridSpec validation, and the idle-rank accounting must add up."""

    PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    @pytest.mark.parametrize("p", PRIMES)
    def test_valid_grid_every_prime(self, p):
        g = ca3dmm_grid(96, 96, 96, p)
        assert isinstance(g, GridSpec)
        assert g.nprocs == p
        assert 1 <= g.used <= p
        assert g.used + g.idle == p
        assert g.idle >= 0
        assert g.cannon_compatible
        # the divisibility constraint (eq. 7) must hold: c is derivable
        assert g.c >= 1

    @pytest.mark.parametrize("p", [7, 13, 31])
    @pytest.mark.parametrize("dims", [(512, 8, 8), (8, 512, 8), (8, 8, 512)])
    def test_skewed_shapes_go_near_1d(self, p, dims):
        """One long dimension: the chosen grid puts its parallelism
        there (possibly using all p ranks, since 1D grids always
        divide)."""
        g = ca3dmm_grid(*dims, p)
        long_axis = max(range(3), key=lambda i: dims[i])
        parts = (g.pm, g.pn, g.pk)
        assert parts[long_axis] == max(parts)
        assert g.used + g.idle == p

    def test_prime_grid_runs_end_to_end(self):
        """An actual multiply on a prime world: idle ranks participate
        in redistribution only, and the answer is still exact."""
        import numpy as np

        from repro.core import ca3dmm_matmul
        from repro.layout import BlockCol1D, DistMatrix, dense_random
        from repro.machine.model import laptop
        from repro.mpi import run_spmd

        m, n, k, p = 12, 10, 14, 5

        def f(comm):
            a_mat = dense_random(m, k, seed=1)
            b_mat = dense_random(k, n, seed=2)
            a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), a_mat)
            b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), b_mat)
            c = ca3dmm_matmul(a, b).to_global()
            return bool(np.allclose(c, a_mat @ b_mat, atol=1e-10))

        assert all(run_spmd(p, f, machine=laptop()).results)
