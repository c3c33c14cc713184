"""The scalar grid search, kept as the differential oracle.

This is the search ``repro.grid.optimizer`` ran before it moved to
arrays, verbatim: one ``GridSpec`` per candidate of eqs. (5)/(7), the
exact ``_sorted_key`` over all of them, and the stable-sort ordering
``core.autotune._near_optimal_grids`` used.  ``test_search_equivalence``
holds the array search to it; nothing in ``src/`` imports it.  Inputs
the array search now rejects (``nprocs < 1``, ``l`` outside ``(0, 1]``)
are not the oracle's business — it spins or relaxes on them as the old
code did.
"""

from __future__ import annotations

import math
import warnings

from repro.grid.optimizer import (
    DEFAULT_L,
    GridSpec,
    MemLimitInfeasibleWarning,
    _sorted_key,
)


def enumerate_grids(
    nprocs: int,
    l: float = DEFAULT_L,
    require_divisible: bool = True,
) -> list[GridSpec]:
    """All grids satisfying eq. (5) (and optionally eq. (7)).

    Mirrors the reference implementation's search: for each ``(pm, pn)``
    pair the k-extent is maximal, ``pk = floor(P / (pm*pn))``, and the
    utilization bound is ``pm*pn*pk >= floor(l*P)``.  (The maximal-pk
    rule is why the paper reports grids like 2x2x512 at P=2048 rather
    than the marginally lower-surface 2x2x487; Example 3 of the paper,
    P=17 -> 2x2x4 with one idle rank, fixes the bound as the floor.)
    """
    lo = max(1, math.floor(l * nprocs + 1e-9))
    out: list[GridSpec] = []
    for pm in range(1, nprocs + 1):
        for pn in range(1, nprocs // pm + 1):
            if require_divisible and max(pm, pn) % min(pm, pn) != 0:
                continue
            pk = nprocs // (pm * pn)
            if pm * pn * pk < lo:
                continue
            out.append(GridSpec(pm=pm, pn=pn, pk=pk, nprocs=nprocs))
    return out


def ca3dmm_grid(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    l: float = DEFAULT_L,
    memory_limit_words: float | None = None,
) -> GridSpec:
    """The paper's grid choice (eqs. 4-8).

    ``memory_limit_words`` implements the Section V extension: cap the
    eq. (11) per-process memory, trading communication for footprint.
    Candidates over the limit are dropped (the search then drifts toward
    2D-like grids — fewer k-task groups, less replication — exactly the
    paper's proposed mechanism); if *no* candidate fits, the
    minimum-memory grid is returned so the call still succeeds.

    If no grid satisfies eq. (5) with the given ``l`` (possible only for
    pathological ``l`` close to 1), the bound is relaxed geometrically —
    a grid using at least one process always exists (1x1xP).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    bound = l
    while True:
        cands = enumerate_grids(nprocs, bound, require_divisible=True)
        if cands:
            if memory_limit_words is not None:
                fitting = [
                    c for c in cands if c.memory_words(m, n, k) <= memory_limit_words
                ]
                if not fitting:
                    fallback = min(
                        cands,
                        key=lambda c: (c.memory_words(m, n, k), _sorted_key(m, n, k)(c)),
                    )
                    warnings.warn(
                        MemLimitInfeasibleWarning(
                            f"memory_limit_words={memory_limit_words:g} excludes "
                            f"every candidate grid for (m={m}, n={n}, k={k}, "
                            f"P={nprocs}); using the minimum-memory grid "
                            f"{fallback} whose eq. (11) footprint "
                            f"{fallback.memory_words(m, n, k):.0f} words "
                            f"exceeds the cap"
                        ),
                        stacklevel=2,
                    )
                    return fallback
                cands = fitting
            return min(cands, key=_sorted_key(m, n, k))
        bound *= 0.5  # pragma: no cover - 1x1xP always satisfies l <= 1


def cosma_grid(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    l: float = DEFAULT_L,
) -> GridSpec:
    """COSMA-source-style grid: eq. (4) minimized without constraint (7)."""
    bound = l
    while True:
        cands = enumerate_grids(nprocs, bound, require_divisible=False)
        if cands:
            return min(cands, key=_sorted_key(m, n, k, use_latency=False))
        bound *= 0.5  # pragma: no cover


def near_optimal_grids(
    m: int, n: int, k: int, nprocs: int, l: float, count: int = 4
) -> list[GridSpec]:
    """The few lowest per-process-volume grids satisfying (5) and (7)."""
    cands = enumerate_grids(nprocs, l, require_divisible=True)
    cands.sort(key=lambda g: (g.surface(m, n, k) / g.used, -g.used))
    return cands[:count]
