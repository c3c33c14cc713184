"""Process-grid selection — Section III-A/B of the paper.

The central object is :class:`GridSpec`, the ``pm x pn x pk`` grid plus
derived quantities (Cannon group count ``c``, square side ``s``, idle
ranks).  Three selectors are provided:

* :func:`ca3dmm_grid` — the paper's search: enumerate all grids with
  ``l·P <= pm·pk·pn <= P`` (eq. 5, ``l = 0.95``), require
  ``max(pm,pn) mod min(pm,pn) == 0`` (eq. 7, Cannon compatibility),
  minimize ``S_total = 2(pm·kn + pn·mk + pk·mn)`` (eq. 4), tie-break by
  maximizing process utilization (eq. 6).
* :func:`cosma_grid` — what Section III-C reports the COSMA source does:
  the same surface-area minimization *without* the divisibility
  constraint.
* :func:`ctf_grid` — a CTF/2.5D-style grid: a square 2D grid with a
  replication factor ``c``, with no rectangular-problem optimization
  (the reason the paper's CTF numbers trail on rectangular problems).

The first two are one search, :func:`best_grids`, in two halves.  The
candidates of eqs. (5)/(7) depend on ``(P, l, require_divisible)`` alone,
never on the matrix: :func:`_candidates` builds their integer arrays once
per key per process (a bounded cache, read-only arrays), and every
search, enumeration and plan on that key shares the table.  The
shape-dependent half runs per call: a float64 screen keeps the handful
that can win, and the exact :func:`_sorted_key` — Python-int arithmetic —
decides among those.

All selectors are deterministic; ties resolve lexicographically, so
every rank computes the same grid independently.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .factorize import divisors, perfect_square_part

#: The paper's default utilization lower bound (eq. 5).
DEFAULT_L = 0.95


class MemLimitInfeasibleWarning(UserWarning):
    """``memory_limit_words`` excluded every candidate grid.

    The search falls back to the minimum-memory grid rather than
    failing, but the cap is **not** honoured: the returned grid's
    eq. (11) footprint exceeds the requested limit.  Raise the limit,
    raise the process count, or switch to the SUMMA kernel (Section V
    lever 1) to make the cap feasible.
    """


@dataclass(frozen=True, order=True)
class GridSpec:
    """A ``pm x pn x pk`` process grid over a world of ``nprocs`` ranks."""

    pm: int
    pn: int
    pk: int
    nprocs: int

    def __post_init__(self) -> None:
        if min(self.pm, self.pn, self.pk) < 1:
            raise ValueError("grid dimensions must be positive")
        if self.used > self.nprocs:
            raise ValueError(
                f"grid {self.pm}x{self.pn}x{self.pk} needs {self.used} > {self.nprocs} ranks"
            )

    # ------------------------------------------------------------ derived -- #
    @property
    def used(self) -> int:
        """Active processes: ``pm * pn * pk``."""
        return self.pm * self.pn * self.pk

    @property
    def idle(self) -> int:
        """Ranks that only participate in redistribution."""
        return self.nprocs - self.used

    @property
    def s(self) -> int:
        """Cannon-group side: ``min(pm, pn)``."""
        return min(self.pm, self.pn)

    @property
    def c(self) -> int:
        """Cannon groups per k-task group: ``max(pm,pn) / min(pm,pn)`` (eq. 8)."""
        q, r = divmod(max(self.pm, self.pn), min(self.pm, self.pn))
        if r:
            raise ValueError(f"grid {self} violates the divisibility constraint (7)")
        return q

    @property
    def cannon_compatible(self) -> bool:
        """Whether constraint (7) holds."""
        return max(self.pm, self.pn) % min(self.pm, self.pn) == 0

    @property
    def replicates_a(self) -> bool:
        """True when A is the replicated operand (``pn > pm``, Example 1)."""
        return self.pn > self.pm

    # ------------------------------------------------------ who sits where -- #
    # The one statement of the rank order every schedule, cost model and
    # report uses: column-major, m fastest, ``rank = i + pm*j + pm*pn*ik``,
    # so a k-task group (and each column of it) is contiguous; world ranks
    # ``>= used`` are idle.  A 2D ``pr x pc`` grid is ``GridSpec(pr, pc, 1, P)``.
    def coords(self, rank: int) -> tuple[int, int, int] | None:
        """Grid position ``(i, j, ik)`` of world rank ``rank``; None when idle."""
        if rank >= self.used:
            return None
        return rank % self.pm, rank // self.pm % self.pn, rank // (self.pm * self.pn)

    def rank_of(self, i: int, j: int, ik: int) -> int:
        """World rank at grid position ``(i, j, ik)`` — inverse of :meth:`coords`."""
        return i + self.pm * (j + self.pn * ik)

    def fiber(self, axis: str) -> list[int]:
        """World ranks along ``axis`` ('m', 'n' or 'k') through rank 0 — the
        representative group the cost models price collectives on."""
        extent = {"m": self.pm, "n": self.pn, "k": self.pk}[axis]
        step = self.rank_of(*(a == axis for a in "mnk"))  # rank order is linear
        return list(range(0, extent * step, step))

    def split_key(self, rank: int, varying: str) -> tuple[int | None, int]:
        """``(color, key)`` that hands ``Comm.split`` the ranks differing from
        ``rank`` only along the axes named in ``varying``: 'm', 'n' or 'k' is
        a fiber, 'mn' a k-task group's plane.  Members are ordered, and groups
        numbered, column-major over their own axes; idle ranks get ``(None, 0)``.
        """
        at = self.coords(rank)
        if at is None:
            return None, 0
        color = key = 0
        color_stride = key_stride = 1
        for axis, x, extent in zip("mnk", at, (self.pm, self.pn, self.pk)):
            if axis in varying:
                key += x * key_stride
                key_stride *= extent
            else:
                color += x * color_stride
                color_stride *= extent
        return color, key

    def surface(self, m: int, n: int, k: int) -> float:
        """``S_total`` of eq. (4): total elements moved across all processes."""
        return 2.0 * (self.pm * k * n + self.pn * m * k + self.pk * m * n)

    def utilization(self) -> float:
        return self.used / self.nprocs

    def memory_words(self, m: int, n: int, k: int) -> float:
        """Eq. (11): peak matrix words per active process under CA3DMM.

        ``2(fa·mk + fb·kn)/used + pk·mn/used`` where the replication
        factor ``c`` applies to A when ``pn > pm`` and to B otherwise
        (dual-buffered Cannon operands plus the partial-C block).
        Requires constraint (7); raises otherwise.
        """
        fa = self.c if self.pn > self.pm else 1
        fb = 1 if self.pn > self.pm else self.c
        return (
            2.0 * (fa * m * k + fb * k * n) / self.used
            + self.pk * m * n / self.used
        )

    def latency_ca3dmm(self) -> int:
        """Eq. (10): ``L = log2(c) + s + pk - 1`` messages on the critical rank."""
        c = self.c
        lat = math.ceil(math.log2(c)) if c > 1 else 0  # allgather replication
        lat += self.s if self.s > 1 else 0  # skew + (s-1) shifts
        return lat + (self.pk - 1)  # reduce-scatter

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pm}x{self.pn}x{self.pk} (P={self.nprocs}, idle={self.idle})"


def _sorted_key(m: int, n: int, k: int, use_latency: bool = True):
    """Ordering used to pick a grid.

    Primary objective: *per-process* communication volume,
    ``S_total / used``.  Eq. (4) of the paper states the total surface,
    but the grids the paper reports (512x2x2 for large-M at P=2048,
    2x2x512 for large-K, 39x39x2 for flat at 3072) are exactly the
    per-process optima — minimizing the raw total under constraint (5)
    would instead drift to minimum-utilization grids (e.g. 488x2x2),
    which neither the reference implementation nor the stated
    ``l``-insensitivity (Section IV-A) exhibits.  Dividing by the
    process count folds the sub-target (6) into the objective, with
    ``-used`` kept as the explicit tie-break.
    """

    def key(spec: GridSpec):
        lat = spec.latency_ca3dmm() if (use_latency and spec.cannon_compatible) else 0
        return (
            spec.surface(m, n, k) / spec.used,  # per-process volume
            -spec.used,  # eq. (6)
            lat,  # then fewer messages
            (spec.pm, spec.pn, spec.pk),  # then deterministic
        )

    return key


def _check_search_args(nprocs: int, l: float | None, dims: tuple = ()) -> None:
    """Reject inputs for which no search is defined, before any work
    (``l is None``: a search without eq. (5), :func:`ctf_grid`)."""
    if not isinstance(nprocs, numbers.Integral) or nprocs < 1:
        raise ValueError(f"nprocs must be a positive integer, got {nprocs!r}")
    if l is not None and not 0 < l <= 1:  # also catches nan
        raise ValueError(
            f"l must satisfy 0 < l <= 1 (eq. (5): l*P <= pm*pn*pk <= P), got {l!r}"
        )
    if dims and min(dims) < 0:
        raise ValueError(f"matrix dimensions must be non-negative, got {dims}")


# Eqs. (5) and (7) never look at the matrix: one table per key serves every
# shape.  One repetition of the paper's figures and tables asks for 37 keys
# (306 searches).  A table at P = 3072 is 50-300 kB for l >= 0.85, one at
# P = 4096 with a vanishing l 0.8 MB: up to P = 4096 the bound holds the
# cache under 110 MB.
@lru_cache(maxsize=128)
def _candidates(
    nprocs: int, l: float, require_divisible: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pm, pn, pk)`` of every grid satisfying eq. (5) (and optionally (7)).

    Mirrors the reference implementation's search: for each ``(pm, pn)``
    pair the k-extent is maximal, ``pk = floor(P / (pm*pn))``, and the
    utilization bound is ``pm*pn*pk >= floor(l*P)``.  (The maximal-pk
    rule is why the paper reports grids like 2x2x512 at P=2048 rather
    than the marginally lower-surface 2x2x487; Example 3 of the paper,
    P=17 -> 2x2x4 with one idle rank, fixes the bound as the floor.)

    Pairs come in lexicographic ``(pm, pn)`` order, ``pn <= P // pm``
    (``P ln P`` of them before the masks: 25 151 at P = 3072, a few
    200 kB temporaries, made once per key: the table is cached per
    process and its arrays are read-only, shared by every caller).  With
    ``0 < l <= 1`` the bound never exceeds P, so ``1 x 1 x P`` always
    passes and the result is never empty.
    """
    lo = max(1, math.floor(l * nprocs + 1e-9))
    # Eq. (5) and pk depend on the product q = pm*pn alone, so both are
    # tabulated over q = 1..P; P // q is also how many pn a given pm admits.
    q_all = np.arange(1, nprocs + 1)
    pk_of = nprocs // q_all
    fits = q_all * pk_of >= lo
    pm = np.repeat(q_all, pk_of)
    pn = np.arange(1, len(pm) + 1) - np.repeat(np.cumsum(pk_of) - pk_of, pk_of)
    q = pm * pn
    keep = np.flatnonzero(fits[q - 1])
    pm, pn, pk = pm[keep], pn[keep], pk_of[q[keep] - 1]
    if require_divisible:
        keep = np.flatnonzero((pm % pn == 0) | (pn % pm == 0))
        pm, pn, pk = pm[keep], pn[keep], pk[keep]
    for a in (pm, pn, pk):
        a.flags.writeable = False
    return pm, pn, pk


def _specs(cands, nprocs: int, keep=slice(None)) -> list[GridSpec]:
    """Validated ``GridSpec``s (Python ints) for the selected candidates."""
    return [
        GridSpec(pm=pm, pn=pn, pk=pk, nprocs=nprocs)
        for pm, pn, pk in zip(*(a[keep].tolist() for a in cands))
    ]


def enumerate_grids(
    nprocs: int,
    l: float = DEFAULT_L,
    require_divisible: bool = True,
) -> list[GridSpec]:
    """All grids satisfying eq. (5) (and optionally eq. (7)).

    One ``GridSpec`` per candidate of :func:`_candidates`, in its
    lexicographic ``(pm, pn)`` order.  Requires ``nprocs >= 1`` and
    ``0 < l <= 1`` (``ValueError`` otherwise).
    """
    _check_search_args(nprocs, l)
    nprocs = int(nprocs)
    return _specs(_candidates(nprocs, l, require_divisible), nprocs)


#: Relative margin of the float64 screen in :func:`best_grids`.  The
#: screened quantities are a handful of float64 operations on exactly
#: representable or once-rounded inputs (relative error < 1e-15), so a
#: candidate the exact key would rank among the best cannot sit further
#: than this above the float cutoff.
SCREEN_MARGIN = 1e-9


def _cutoff(score: np.ndarray, count: int) -> float:
    """A bound no score among the ``count`` smallest can exceed, with margin."""
    if not 0 < count <= len(score):
        return math.inf
    return float(np.partition(score, count - 1)[count - 1]) * (1.0 + SCREEN_MARGIN)


def best_grids(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    l: float = DEFAULT_L,
    *,
    require_divisible: bool,
    use_latency: bool,
    count: int = 1,
    memory_limit_words: float | None = None,
) -> list[GridSpec]:
    """The ``count`` best grids under :func:`_sorted_key`, best first.

    *Screen in float64, decide in exact arithmetic*: per-process volume
    (and eq. (11) memory under a cap) is computed over the candidate
    arrays; only candidates within :data:`SCREEN_MARGIN` of the
    ``count``-th best (and of the cap) become ``GridSpec``s, and those
    are ordered by the exact key — Python-int surface, ``-used``,
    eq. (10) latency, lexicographic tie-break — so the result is the one
    a full exact sort would give, for any magnitude of ``m, n, k``.

    ``memory_limit_words`` (needs ``require_divisible``: eq. (11) is
    defined under constraint (7)) drops candidates whose
    ``memory_words`` exceeds it.  If none fits, the single
    minimum-memory grid is returned with a
    :class:`MemLimitInfeasibleWarning` attributed to the caller's caller
    (``ca3dmm_grid``'s caller).  Dimensions whose eq. (4) surface
    overflows float64 raise ``OverflowError``.
    """
    _check_search_args(nprocs, l, (m, n, k))
    if memory_limit_words is not None and not require_divisible:
        raise ValueError("memory_limit_words needs require_divisible: eq. (11) assumes eq. (7)")
    nprocs = int(nprocs)
    pm, pn, pk = cands = _candidates(nprocs, l, require_divisible)
    mk, kn, mn = float(m * k), float(k * n), float(m * n)
    used = pm * pn * pk
    with np.errstate(over="ignore", invalid="ignore"):
        volume = 2.0 * (pm * kn + pn * mk + pk * mn) / used
    if not np.isfinite(volume).all():
        raise OverflowError(f"eq. (4) surface of ({m}, {n}, {k}) exceeds float64")
    key = _sorted_key(m, n, k, use_latency)
    if memory_limit_words is None:
        keep = np.flatnonzero(volume <= _cutoff(volume, count))
        return sorted(_specs(cands, nprocs, keep), key=key)[:count]

    c = np.maximum(pm, pn) // np.minimum(pm, pn)
    a_wide = pn > pm  # A is the replicated operand
    memory = (
        2.0 * (np.where(a_wide, c, 1) * mk + np.where(a_wide, 1, c) * kn) + pk * mn
    ) / used
    # The cutoff comes from candidates that fit even with the margin
    # against them, so it bounds the count-th best of those that truly fit.
    surely = memory * (1.0 + SCREEN_MARGIN) <= memory_limit_words
    maybe = memory <= memory_limit_words * (1.0 + SCREEN_MARGIN)
    keep = np.flatnonzero(maybe & (volume <= _cutoff(volume[surely], count)))
    fitting = [
        g for g in _specs(cands, nprocs, keep)
        if g.memory_words(m, n, k) <= memory_limit_words
    ]
    if fitting:
        return sorted(fitting, key=key)[:count]
    keep = np.flatnonzero(memory <= _cutoff(memory, 1))
    fallback = min(
        _specs(cands, nprocs, keep), key=lambda g: (g.memory_words(m, n, k), key(g))
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
        stacklevel=3,
    )
    return [fallback]


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
    minimum-memory grid is returned with a
    :class:`MemLimitInfeasibleWarning` so the call still succeeds.

    Requires ``nprocs >= 1``, ``0 < l <= 1`` (eq. 5) and non-negative
    dimensions (``ValueError`` otherwise); ``1 x 1 x P`` satisfies every
    such ``l``, so a grid always exists.
    """
    return best_grids(
        m, n, k, nprocs, l,
        require_divisible=True, use_latency=True,
        memory_limit_words=memory_limit_words,
    )[0]


def cosma_grid(
    m: int,
    n: int,
    k: int,
    nprocs: int,
    l: float = DEFAULT_L,
) -> GridSpec:
    """COSMA-source-style grid: eq. (4) minimized without constraint (7).

    Same argument contract as :func:`ca3dmm_grid`.
    """
    return best_grids(
        m, n, k, nprocs, l, require_divisible=False, use_latency=False
    )[0]


def ctf_grid(m: int, n: int, k: int, nprocs: int) -> GridSpec:
    """A 2.5D/CTF-style grid: square 2D grid, replication factor ``c``.

    Picks the largest ``c <= P^(1/3)`` such that ``P / c`` has a large
    perfect-square part, then arranges ``sqrt(P/c) x sqrt(P/c) x c``.
    Deliberately ignores the matrix aspect ratio, reproducing CTF's
    behaviour on rectangular problems reported in the paper (Section
    IV-A, citing [18]).

    Same argument contract as :func:`ca3dmm_grid`, less ``l``.
    """
    _check_search_args(nprocs, None, (m, n, k))
    nprocs = int(nprocs)
    best: tuple[tuple[int, int], GridSpec] | None = None
    c_max = max(1, round(nprocs ** (1.0 / 3.0)))
    for c in divisors(nprocs):
        if c > c_max * 2:
            continue
        rest = nprocs // c
        s = perfect_square_part(rest)
        if c > s:  # 2.5D validity: at most one replica layer per grid row
            continue
        used = s * s * c
        spec = GridSpec(pm=s, pn=s, pk=c, nprocs=nprocs)
        score = (used, c)
        if best is None or score > best[0]:
            best = (score, spec)
    if best is None:
        return GridSpec(pm=1, pn=1, pk=1, nprocs=nprocs)
    return best[1]
