"""Timeline rendering of executed runs (simulated-time Gantt lanes).

Run with ``run_spmd(..., record_events=True)`` and render::

    result = run_spmd(16, rank_main, record_events=True)
    print(render_timeline(result))

Each rank becomes one text lane over the simulated makespan; every
column shows what the rank was doing in that time slice (``#`` compute,
``>`` send, ``<`` receive, ``.`` waiting, `` `` idle/untracked).  This
makes the paper's scheduling story *visible*: the Cannon stage's
compute/transfer overlap, the reduce-scatter tail, stragglers from
ragged blocks.

``render_timeline(..., highlight_critical=True)`` overlays the binding
chain from :mod:`repro.obs.critpath`: cells the critical path runs
through switch to upper-case glyphs (``C`` compute, ``S`` send, ``R``
receive/flight, ``W`` wait), so the one dependency chain that bounds the
makespan stands out from the overlappable background work.

Also provided: :func:`phase_spans` (per-phase simulated intervals) and
:func:`critical_rank` — small utilities the tests and notebooks use.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SpmdResult

#: lane glyph per event kind; later entries win on overlap within a cell.
GLYPHS = {"wait": ".", "recv": "<", "send": ">", "compute": "#"}
#: glyph for intervals caused/extended by fault injection (repro.mpi.faults).
INJECTED_GLYPH = "!"
#: upper-case glyph per chain-segment kind (critical-path overlay).
CRITICAL_GLYPHS = {"wait": "W", "recv": "R", "send": "S", "compute": "C"}
_PRIORITY = {"wait": 0, "recv": 1, "send": 2, "compute": 3, "injected": 4}


def _paint(lane: list[str], kind: str, c0: int, c1: int, glyph: str) -> None:
    for c in range(c0, c1 + 1):
        old = lane[c]
        if old == " " or _PRIORITY.get(kind, 0) >= _PRIORITY.get(
            _kind_of(old), -1
        ):
            lane[c] = glyph


def _cells(t0: float, t1: float, scale: float, width: int) -> tuple[int, int]:
    c0 = min(width - 1, int(t0 * scale))
    # Half-open mapping: the cell covering [c/scale, (c+1)/scale) is
    # painted only if the event overlaps it, so an event ending
    # exactly on a column boundary does not bleed into the next cell.
    c1 = min(width - 1, max(c0, math.ceil(t1 * scale) - 1))
    return c0, c1


def render_timeline(
    result: SpmdResult,
    width: int = 80,
    ranks: list[int] | None = None,
    highlight_critical: bool = False,
) -> str:
    """Render per-rank lanes over the simulated makespan.

    ``width`` columns cover ``[0, makespan]``; each cell shows the
    highest-priority event kind overlapping that slice.  With
    ``highlight_critical=True`` the binding chain is painted on top in
    upper-case glyphs (a ``recv`` chain segment — a message flight —
    highlights the *sender's* lane, where the chain continues).  Runs
    executed without ``record_events=True`` (or that never touched the
    simulated clock) render an explanatory placeholder instead of
    raising.
    """
    events = result.tracer.events
    if not events:
        return (
            "(no timeline: no events recorded — run with "
            "run_spmd(..., record_events=True))"
        )
    makespan = max(result.time, max(e.t1 for e in events))
    if makespan <= 0:
        return (
            f"(no timeline: {len(events)} event(s) recorded but the "
            "simulated clock never advanced)"
        )
    lanes = ranks if ranks is not None else list(range(result.transport.nprocs))
    grid = {r: [" "] * width for r in lanes}
    scale = width / makespan
    any_injected = False
    for e in events:
        if e.rank not in grid:
            continue
        c0, c1 = _cells(e.t0, e.t1, scale, width)
        if e.injected:
            any_injected = True
            _paint(grid[e.rank], "injected", c0, c1, INJECTED_GLYPH)
        else:
            _paint(grid[e.rank], e.kind, c0, c1, GLYPHS.get(e.kind, "?"))
    legend = "legend: # compute   > send   < recv   . wait"
    if any_injected:
        legend += f"   {INJECTED_GLYPH} injected fault"
    if highlight_critical:
        from ..obs.critpath import critical_path

        for seg in critical_path(result).segments:
            if seg.rank not in grid or seg.duration <= 0:
                continue
            c0, c1 = _cells(seg.t0, seg.t1, scale, width)
            glyph = CRITICAL_GLYPHS.get(seg.kind, "?")
            lane = grid[seg.rank]
            for c in range(c0, c1 + 1):
                lane[c] = glyph
        legend += "   (upper-case: critical path)"
    label_w = len(str(max(lanes))) + 6
    header = (
        f"{'':{label_w}}0{'':{width - 2}}{makespan * 1e6:.1f}us\n"
        f"{'':{label_w}}{'-' * width}"
    )
    body = "\n".join(
        f"rank {r:>{label_w - 6}} |{''.join(grid[r])}" for r in lanes
    )
    return f"{header}\n{body}\n{legend}"


def _kind_of(glyph: str) -> str:
    if glyph == INJECTED_GLYPH:
        return "injected"
    for kind, g in GLYPHS.items():
        if g == glyph:
            return kind
    return "wait"


def phase_spans(result: SpmdResult) -> dict[str, tuple[float, float]]:
    """Simulated [start, end] interval of each phase across all ranks."""
    spans: dict[str, tuple[float, float]] = {}
    for e in result.tracer.events:
        lo, hi = spans.get(e.phase, (float("inf"), 0.0))
        spans[e.phase] = (min(lo, e.t0), max(hi, e.t1))
    return spans


def critical_rank(result: SpmdResult) -> int:
    """The rank whose finish bounds the makespan (critical-path endpoint).

    Backed by :func:`repro.obs.critpath.critical_path`: the returned rank
    is the endpoint of the binding dependency chain.  For runs executed
    without ``record_events=True`` there is no chain to walk, so this
    falls back to the rank with the largest simulated clock — the same
    value the chain would end on.
    """
    if result.tracer.events:
        from ..obs.critpath import critical_path

        return critical_path(result).final_rank
    return max(result.traces, key=lambda t: t.time).rank


def event_totals(result: SpmdResult) -> dict[int, dict[str, float]]:
    """Per-rank seconds spent in each event kind."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for e in result.tracer.events:
        out[e.rank][e.kind] += e.duration
    return {r: dict(v) for r, v in out.items()}
