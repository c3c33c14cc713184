"""Smoke test: ``run.py --quick`` emits everything BENCHMARK.json declares.

Quick sizes (P <= 16, one repetition) say nothing about speed; the test
checks names, correctness of every product, and that the two files agree.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_emits_every_declared_name(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())

    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)

    assert list(doc["workloads"]) == workloads
    for name, result in doc["workloads"].items():
        assert list(result["metrics"]) == end_to_end, name
        assert all(result["metrics"][m]["value"] > 0 for m in end_to_end), name
        assert result["ops_attempted"] >= 1 and result["fail_share"] == 0, name
        assert len(result["exact"]["sim_fingerprint"]) == 64, name
        assert set(result["per_layer"]) | set(doc["probes"]) == set(per_layer), name
    mpi_spans = [k for k in per_layer if k.startswith("span.mpi.")]
    assert not any(doc["workloads"]["analytic_paper_scale"]["per_layer"][k] for k in mpi_spans)
    assert doc["machine"]["nproc"] >= 1
    # every declared name is printed, with its unit
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for metric, unit in units.items():
        assert re.search(rf"\b{re.escape(metric)}\s+\S+ {re.escape(unit)}", proc.stdout), metric
