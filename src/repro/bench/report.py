"""ASCII table and series rendering for the benchmark harness.

Every bench regenerates its paper table/figure as plain text: figures
become per-series value lists over the x-axis (process counts), tables
become aligned grids.  The same renderers feed EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    srows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
    title: str | None = None,
    unit: str = "",
) -> str:
    """Render figure data: one row per series over a shared x-axis."""
    headers = [x_label] + [f"{x}" for x in xs]
    rows = []
    for name, ys in series.items():
        rows.append([name + (f" [{unit}]" if unit else "")] + [_fmt(y) for y in ys])
    return format_table(headers, rows, title=title)


def format_ledger(
    records: Sequence[dict],
    title: str | None = None,
) -> str:
    """Render run-ledger records (:mod:`repro.obs.ledger`) as a table.

    One row per record: producer kind, problem/grid shape, measured Q,
    the two optimality ratios, Cannon overlap, simulated makespan, and
    the fault counters (retries/recoveries/corruptions-detected).
    """
    rows = []
    for rec in records:
        prob, grid, opt = rec["problem"], rec["grid"], rec["optimality"]
        cannon_ov = rec.get("overlap", {}).get("by_phase", {}).get("cannon")
        faults = rec.get("faults", {})
        rows.append([
            rec["run_id"][:8],
            rec["kind"],
            f"{prob['m']}x{prob['n']}x{prob['k']}",
            f"{prob['nprocs']}",
            f"{grid['pm']}x{grid['pn']}x{grid['pk']}",
            f"{rec['traffic']['q_words']:.0f}",
            (f"{opt['q_over_eq9']:.3f}"
             if opt.get("q_over_eq9") is not None else "-"),
            (f"{opt['q_over_pebbling']:.3f}"
             if opt.get("q_over_pebbling") is not None else "-"),
            f"{100 * cannon_ov:.1f}%" if cannon_ov is not None else "-",
            f"{rec['makespan_s'] * 1e3:.3f}",
            "/".join(
                str(faults.get(key, 0))
                for key in ("retries", "recoveries", "corruptions_detected")
            ),
        ])
    return format_table(
        ["run", "kind", "mnk", "P", "grid", "Q", "Q/eq9", "Q/pebb",
         "overlap", "ms", "rt/rec/cd"],
        rows,
        title=title,
    )


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)
