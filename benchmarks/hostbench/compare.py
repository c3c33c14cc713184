"""Compare two hostbench results: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per end-to-end
metric and workload with both medians, their quartiles and the ratio
B/A, judged against the bound BENCHMARK.json fixes for that metric:

``within-bound``  B's median is no worse than A's by more than the bound
``worse``         it is worse by more than the bound
``better``        it is better by more than the bound
``unresolved``    one run's own quartile spread is wider than the bound,
                  and the runs' samples overlap: say nothing either way

Everything on the virtual clock — work count, ``sim_makespan_us``,
``q_over_bound``, ``sim_fingerprint`` — must be exactly equal, and so
must be zero failed operations.  Exit code 0 only when no row is
``worse``, nothing exact differs and nothing failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    wide = any((s["q3"] - s["q1"]) / s["value"] > bound for s in (a, b))
    if wide:
        # Every sample of one side beyond every sample of the other still decides.
        b_below, b_above = b["max"] < a["min"], b["min"] > a["max"]
        if b_below or b_above:
            return "better" if b_below == lower_is_better else "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "within-bound"


def cell(s: dict) -> str:
    return f"{s['value']:.5g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    lines, ok = [], True
    for key in ("schema", "seed", "quick"):
        if a[key] != b[key]:
            return [f"not comparable: {key} is {a[key]!r} in A and {b[key]!r} in B"], False
    lines.append(f"{'workload':<24}{'metric':<13}{'A median [q1, q3] n':<36}"
                 f"{'B median [q1, q3] n':<36}{'B/A':>7}  {'bound':>5}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric in SPEC["end_to_end"]:
            sa, sb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            v = verdict(sa, sb, metric["bound"], metric["better"] == "lower")
            ok = ok and v != "worse"
            lines.append(
                f"{name:<24}{metric['name']:<13}{cell(sa):<36}{cell(sb):<36}"
                f"{sb['value'] / sa['value']:>7.3f}  {metric['bound']:>5}  {v}")
    lines.append("")
    lines.append("virtual clock and correctness (must be exactly equal; no failed op):")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        differing = [k for k in wa["exact"] if wa["exact"][k] != wb["exact"][k]]
        failed = wa["ops_failed"] + wb["ops_failed"]
        ok = ok and not differing and not failed
        state = "DIFFERENT: " + ", ".join(differing) if differing else "equal"
        lines.append(
            f"{name:<24}{state}  sim_makespan_us {wa['exact']['sim_makespan_us']!r}  "
            f"q_over_bound {wa['exact']['q_over_bound']!r}  work {wa['exact']['work']}  "
            f"fingerprint {wa['exact']['sim_fingerprint'][:12]}  failed ops "
            f"{wa['ops_failed']}/{wa['ops_attempted']} and {wb['ops_failed']}/{wb['ops_attempted']}")
    lines.append("")
    lines.append("OK: B agrees with A within the bounds" if ok
                 else "FAIL: a metric is worse than its bound allows, or an exact value differs")
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, ok = compare(a, b)
    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
