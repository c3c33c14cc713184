"""Cross-engine validation: executed traffic against the closed forms.

The CA3DMM executed-vs-analytic pinning lives in test_costs.py; these
tests do the same for the two compared libraries so every curve in the
regenerated Fig. 3 is anchored by executed traffic somewhere, and then
for every schedule in ``repro.baselines.SCHEDULES`` that has a closed
form, with the model's known gaps pinned where they are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.baseline_costs import algo1d_cost, algo25d_cost, carma_cost, summa_cost
from repro.analysis.costs import ITEM, ca3dmm_cost, cosma_cost, ctf_cost
from repro.baselines import SCHEDULES, cosma_matmul, ctf_matmul
from repro.grid.optimizer import cosma_grid, ctf_grid
from repro.layout import BlockCol1D, DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import run_spmd


def _measure(fn, m, n, k, P):
    def f(comm):
        a = DistMatrix.from_global(comm, BlockCol1D((m, k), comm.size), dense_random(m, k, 1))
        b = DistMatrix.from_global(comm, BlockCol1D((k, n), comm.size), dense_random(k, n, 2))
        # measure only the algorithm: skip input conversion by measuring
        # the delta around the call minus the redist phase
        before = comm.transport.trace(comm.world_rank)
        c = fn(a, b)
        after = comm.transport.trace(comm.world_rank)
        redist = after.phases.get("redist")
        redist_before = before.phases.get("redist")
        redist_bytes = (redist.bytes_sent if redist else 0) - (
            redist_before.bytes_sent if redist_before else 0
        )
        algo_bytes = (after.bytes_sent - before.bytes_sent) - redist_bytes
        ok = np.allclose(
            c.to_global(), dense_random(m, k, 1) @ dense_random(k, n, 2), atol=1e-8
        )
        return ok, algo_bytes

    res = run_spmd(P, f, machine=laptop(), deadlock_timeout=60.0)
    assert all(ok for ok, _ in res.results)
    return max(b for _, b in res.results) / ITEM


class TestCosmaCrossEngine:
    @pytest.mark.parametrize("m,n,k,P", [(48, 48, 96, 16), (24, 24, 240, 8), (96, 24, 24, 8)])
    def test_executed_volume_matches_model(self, m, n, k, P):
        measured = _measure(cosma_matmul, m, n, k, P)
        predicted = cosma_cost(m, n, k, P, laptop()).q_words
        # pickle headers on the allgathered pieces inflate small runs
        assert measured == pytest.approx(predicted, rel=0.35, abs=256)

    def test_grid_agrees_between_engines(self):
        """The executed baseline and the cost model use the same grid
        selector, so their block structures always match."""
        g1 = cosma_grid(48, 48, 96, 16)
        rep = cosma_cost(48, 48, 96, 16, laptop())
        assert rep.grid == f"{g1.pm}x{g1.pn}x{g1.pk}"


def _ctf_traffic(m, n, k, P):
    """CTF's traffic terms alone: the 2.5D layers on ``ctf_grid``'s face."""
    g = ctf_grid(m, n, k, P)
    return algo25d_cost(m, n, k, P, laptop(), sq=g.pm, c=min(g.pk, g.pm))


class TestCtfCrossEngine:
    @pytest.mark.parametrize("m,n,k,P", [(48, 48, 48, 16), (64, 16, 16, 8)])
    def test_executed_volume_within_model_envelope(self, m, n, k, P):
        """The CTF model adds framework overheads that are *time*, not
        traffic; its traffic terms alone must bracket the executed bytes."""
        measured = _measure(ctf_matmul, m, n, k, P)
        rep = _ctf_traffic(m, n, k, P)
        assert measured == pytest.approx(rep.q_words, rel=0.6, abs=512)

    def test_framework_overhead_only_affects_time(self):
        with_oh = ctf_cost(1000, 1000, 1000, 16, laptop())
        without = _ctf_traffic(1000, 1000, 1000, 16)
        assert with_oh.q_words == pytest.approx(without.q_words)
        assert with_oh.t_total > without.t_total


#: SCHEDULES key -> its closed form on laptop(), with the arguments that
#: make it price what the key runs.  The other five keys have none.
CLOSED_FORMS = {
    "ca3dmm": lambda *dims: ca3dmm_cost(*dims, laptop()),
    "ca3dmm-s": lambda *dims: ca3dmm_cost(*dims, laptop(), inner="summa"),
    "cosma": lambda *dims: cosma_cost(*dims, laptop()),
    "ctf": lambda *dims: ctf_cost(*dims, laptop()),
    "summa": lambda *dims: summa_cost(*dims, laptop()),
    "1d": lambda *dims: algo1d_cost(*dims, laptop()),
    "1d-m": lambda *dims: algo1d_cost(*dims, laptop(), variant="m"),
    "1d-n": lambda *dims: algo1d_cost(*dims, laptop(), variant="n"),
    "1d-k": lambda *dims: algo1d_cost(*dims, laptop(), variant="k"),
    "2.5d": lambda *dims: algo25d_cost(*dims, laptop()),
    "carma": lambda *dims: carma_cost(*dims, laptop()),
}
WITHOUT_CLOSED_FORM = {"cannon", "3d", "summa-a", "summa-b", "summa-auto"}
WORDS_SHAPES = [(64, 64, 64, 16), (96, 48, 192, 16)]
#: measured / modelled words where the model is known to be off, as
#: measured on WORDS_SHAPES before the closed forms shared their pricers.
#: SUMMA and CA3DMM-S: the model prices every panel as broadcast from rank
#: 0, while the executed panels' owners rotate along the grid row and
#: column.  CARMA: the model assumes balanced holdings down the
#: recursion; the executed critical rank sends more (at 64^3, P = 16 its
#: replicate words range 530-1588 across ranks against the model's 768).
#: Fixing either moves crossover and tuning numbers: a calibration change.
KNOWN_GAPS = {
    "summa": (0.5188, 0.5056),
    "ca3dmm-s": (0.7497, 0.8351),
    "carma": (1.8005, 2.2240),
}


def test_every_schedule_with_a_closed_form_is_cross_checked():
    assert set(CLOSED_FORMS) | WITHOUT_CLOSED_FORM == set(SCHEDULES)
    assert not set(CLOSED_FORMS) & WITHOUT_CLOSED_FORM


@pytest.mark.parametrize("shape", range(len(WORDS_SHAPES)), ids=["cube", "skewed"])
@pytest.mark.parametrize("key", sorted(CLOSED_FORMS))
def test_executed_words_match_the_closed_form(key, shape):
    """Critical-rank words minus redist against the model's ``q_words``:
    within 15 %, or at the pinned ratio of a known gap (± 5 %)."""
    dims = WORDS_SHAPES[shape]
    ratio = _measure(SCHEDULES[key], *dims) / CLOSED_FORMS[key](*dims).q_words
    if key in KNOWN_GAPS:
        assert ratio == pytest.approx(KNOWN_GAPS[key][shape], rel=0.05)
    else:
        assert 0.85 <= ratio <= 1.15, ratio
