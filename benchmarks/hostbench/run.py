"""hostbench: host time of the simulator, virtual time of the simulated machine.

Two ways in, one measurement underneath:

``run.py --seed 0 --out FILE``
    the suite: all six workloads, their child processes interleaved
    round-robin, then one traced pass per workload and the isolation
    probes; prints every metric by name with its unit and writes FILE.
``run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, as the PR driver calls it; the last line of stdout is
    one JSON object with the end-to-end metrics (``--trace 0``) or the
    per-layer metrics (``--trace 1``).

Every measurement happens in a child process of this file (``--child``)
pinned to one CPU, so that imports, operands and the warm-up repetition
are paid — and measured as ``setup_s`` — once per child, and no workload
inherits another's heap.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Timed repetitions per child of a workload, at least: five in all.  The
#: suite splits them over two processes; the PR driver's time cap (136 runs
#: in 57 minutes) leaves room for one process per run, and its ten runs per
#: workload are ten processes anyway.
SUITE_MIN_REPS = (3, 2)
DRIVER_MIN_REPS = (5,)
CHILD_TIMEOUT_S = 170
#: What the three parts of Calibration take on this sandbox when its
#: neighbours are quiet: interpreter loop, cache-missing gather, thread handoff.
REFERENCE_CALIBRATION_S = (0.0146, 0.0115, 0.0126)


class Calibration:
    """A fixed 45 ms of work that tells how fast the host is right now.

    The sandbox is a 2-vCPU VM on a shared host: the same pinned code
    runs 0.6x to 1x as fast from one ten-second stretch to the next, and
    cache-hungry code (512 rank threads, 18 MB operands) suffers more
    than a tight loop does (README, "Why host times are calibrated").
    Every repetition is therefore bracketed by :meth:`slowdown`, and its
    time is reported at the reference speed, ``wall / slowdown``.  The
    three parts are the three things the simulator does: interpret
    bytecode, miss the cache, hand the CPU from one thread to the next.
    """

    def __init__(self) -> None:
        import numpy as np

        t0 = perf_counter()
        rng = np.random.default_rng(0)
        self.table = rng.random(2 << 20)  # 16 MiB: beyond L2, inside a quiet LLC
        self.where = rng.integers(0, len(self.table), 1_200_000)
        #: host time spent calibrating, taken off setup_s and part of no metric
        self.seconds = perf_counter() - t0

    def _interpret(self) -> None:
        acc, table, trail = 0, {}, []
        for i in range(170_000):
            acc += i * i
            if not i & 7:
                table[i & 1023] = acc
                trail.append(acc & 255)

    def _gather(self) -> None:
        self.table[self.where].sum()

    def _handoff(self) -> None:
        ping, pong = threading.Event(), threading.Event()

        def echo() -> None:
            for _ in range(1000):
                ping.wait()
                ping.clear()
                pong.set()

        thread = threading.Thread(target=echo)
        thread.start()
        for _ in range(1000):
            ping.set()
            pong.wait()
            pong.clear()
        thread.join()

    def slowdown(self) -> float:
        """1.0 = reference speed, 2.0 = the calibration work takes twice as long."""
        ratios = []
        for part, reference in zip(
            (self._interpret, self._gather, self._handoff), REFERENCE_CALIBRATION_S
        ):
            t0 = perf_counter()
            part()
            elapsed = perf_counter() - t0
            self.seconds += elapsed
            ratios.append(elapsed / reference)
        return statistics.fmean(ratios)


# ------------------------------------------------------------------ child -- #
def child_main(spec: dict) -> dict:
    """One measurement in this process; the parent pinned nothing yet."""
    cpu = spec["cpu"]
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    if spec["kind"] == "probes":
        from probes import run_probes

        return {"probes": run_probes(spec["seed"], spec["quick"], spec["tmpdir"])}

    calibration = Calibration()
    slowdown_now = calibration.slowdown
    slowdown_now()  # the first pass faults the table in and warms the interpreter
    started = slowdown_now()
    from workloads import WORKLOADS as classes, Tally

    workload = classes[spec["workload"]](spec["seed"], spec["quick"])
    tmpdir = spec["tmpdir"]
    tallies: list[Tally] = []

    def repetition() -> tuple[float, float, float]:
        """Wall and CPU seconds of one run, and the host's slowdown around it."""
        gc.collect()
        before = slowdown_now()
        t0, c0 = perf_counter(), process_time()
        out = workload.run(tmpdir)
        wall, cpu_s = perf_counter() - t0, process_time() - c0
        slowdown = (before + slowdown_now()) / 2
        tally = Tally()
        workload.verify(out, tally)
        tallies.append(tally)
        return wall, cpu_s, slowdown

    # Warm-up: fills caches and memoized plans, and is checked like the rest.
    slowdown = (started + repetition()[2]) / 2
    # CLOCK_MONOTONIC is system-wide, so the parent's t_spawn compares.
    setup_raw_s = perf_counter() - spec["t_spawn"] - calibration.seconds
    walls, raw, slowdowns = [], [], []
    t_end = perf_counter() + spec["seconds"]
    while len(walls) < spec["min_reps"] or perf_counter() < t_end:
        wall, _, slow = repetition()
        raw.append(wall)
        slowdowns.append(slow)
        walls.append(wall / slow)
    doc = {"setup_s": setup_raw_s / slowdown, "wall_s": walls,
           "raw": {"setup_s": [setup_raw_s], "wall_s": raw, "slowdown": slowdowns}}

    if spec["kind"] == "traced":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        try:
            wall, cpu_s, slow = repetition()
        finally:
            recorder.uninstall()
        layers = recorder.summary()
        named = sum(v["self_cpu_s"] for v in layers.values())
        doc["traced"] = {
            "wall_s": wall,
            "layers": layers,
            "other_cpu_s": cpu_s - named,
            "idle_s": wall - cpu_s,
            "trace_overhead_ratio": wall / slow / statistics.median(walls),
        }
        if spec["trace_out"]:
            Path(spec["trace_out"]).write_text(json.dumps(recorder.dump()))

    first = tallies[0]
    doc.update(
        work=first.work,
        sim_makespan_us=first.sim_s * 1e6,
        q_over_bound=first.q_words / first.q_bound,
        sim_fingerprint=first.fingerprint,
        ops_attempted=sum(t.ops_attempted for t in tallies) + len(tallies) - 1,
        # a repetition whose record differs from the first is a failed op
        ops_failed=sum(t.ops_failed for t in tallies)
        + sum(t.fingerprint != first.fingerprint or t.work != first.work
              for t in tallies[1:]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cpu=cpu,
    )
    return doc


# ----------------------------------------------------------------- parent -- #
class Harness:
    """Spawns the children, one at a time, and keeps their scratch space."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed, self.quick = seed, quick
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.spawned = 0
        (HERE / ".tmp").mkdir(exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(dir=HERE / ".tmp")

    def close(self) -> None:
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    def child(self, kind: str, workload: str | None = None, **extra) -> dict:
        # Children alternate over the CPUs we may use: a noisy sibling on
        # one of them then cannot sit under every sample of a workload.
        cpu = self.cpus[self.spawned % len(self.cpus)] if self.cpus else None
        self.spawned += 1
        spec = dict(kind=kind, workload=workload, seed=self.seed, quick=self.quick,
                    cpu=cpu, tmpdir=self.tmpdir, t_spawn=perf_counter(), **extra)
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env.pop("REPRO_MPI_BACKEND", None)
        env.pop("REPRO_LEDGER", None)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"hostbench: {kind} child for {workload} failed "
                             f"(exit {proc.returncode})")
        return json.loads(proc.stdout.splitlines()[-1])

    def timed_pass(self, names: list[str], seconds: float,
                   min_reps: tuple[int, ...]) -> dict[str, dict]:
        """End-to-end metrics, tracing off: one child per entry of
        ``min_reps`` for every workload, round-robin over the workloads so
        a noisy minute lands on all of them."""
        docs: dict[str, list[dict]] = {name: [] for name in names}
        for reps in min_reps:
            for name in names:
                docs[name].append(self.child(
                    "timed", name, seconds=seconds / len(min_reps), min_reps=reps))
        return {name: summarize(docs[name]) for name in names}

    def traced_pass(self, name: str, trace_out: str | None) -> tuple[dict, dict]:
        """One untraced and one traced repetition of a workload in one
        child: the child's document and its per-layer metrics."""
        doc = self.child("traced", name, seconds=0.0, min_reps=1, trace_out=trace_out)
        traced = doc["traced"]
        wall = traced["wall_s"]
        layer = {}
        for lname, v in traced["layers"].items():
            layer[f"span.{lname}.cpu_share"] = v["self_cpu_s"] / wall
            layer[f"span.{lname}.calls"] = v["calls"]
        layer["span.other.cpu_share"] = traced["other_cpu_s"] / wall
        layer["span.sched.idle_share"] = traced["idle_s"] / wall
        layer["trace_overhead_ratio"] = traced["trace_overhead_ratio"]
        for key in ("sim_makespan_us", "q_over_bound"):
            layer[key] = doc[key]
        layer["work_count"] = doc["work"]
        return doc, layer

    def probes(self) -> dict[str, float]:
        return self.child("probes")["probes"]


def spread(samples: list[float]) -> dict:
    """Median with quartiles, extremes and count.  No percentile: with
    fewer than ten samples none has ten beyond it."""
    if len(samples) > 1:  # inclusive: a quartile of two samples lies between them
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "n": len(samples)}


def summarize(children: list[dict]) -> dict:
    """Pool the children of one workload into its end-to-end metrics."""
    first = children[0]
    exact = ("work", "sim_makespan_us", "q_over_bound", "sim_fingerprint")
    agree = all(c[k] == first[k] for c in children for k in exact)
    wall = spread([s for c in children for s in c["wall_s"]])
    rate = {k: first["work"] / wall[j] for k, j in
            (("value", "value"), ("q1", "q3"), ("q3", "q1"), ("min", "max"), ("max", "min"))}
    raw = {k: spread([x for c in children for x in c["raw"][k]])
           for k in ("wall_s", "setup_s", "slowdown")}
    metrics = {
        "wall_s": wall,
        "work_per_s": dict(rate, n=wall["n"]),
        "setup_s": spread([c["setup_s"] for c in children]),
        "peak_rss_mb": spread([c["peak_rss_mb"] for c in children]),
    }
    return {
        "metrics": metrics,
        "raw": raw,
        "exact": {k: first[k] for k in exact},
        "ops_attempted": sum(c["ops_attempted"] for c in children) + 1,
        # the children disagreeing on the deterministic record is one more failed op
        "ops_failed": sum(c["ops_failed"] for c in children) + (not agree),
        "cpus": [c["cpu"] for c in children],
    }


def machine_block(harness: Harness, load_before: float) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": harness.cpus or "sched_setaffinity unavailable: children not pinned",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
    }


def show(workload: str, name: str, value, unit: str, extra: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{workload:<24}{name:<40}{text:>14} {unit}{extra}")


def show_end_to_end(name: str, summary: dict) -> None:
    for metric, s in summary["metrics"].items():
        show(name, metric, s["value"], END_TO_END[metric]["unit"],
             f"  (q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, min {s['min']:.4g}, "
             f"max {s['max']:.4g}, n {s['n']})")
    for key, s in summary["raw"].items():
        show(name, f"raw.{key}", s["value"], "ratio" if key == "slowdown" else "s",
             f"  (q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n {s['n']}; uncalibrated)")
    for key, value in summary["exact"].items():
        show(name, key, value, "")
    show(name, "fail_share", summary["ops_failed"] / summary["ops_attempted"], "ratio",
         f"  ({summary['ops_failed']} of {summary['ops_attempted']} ops)")


def show_per_layer(name: str, values: dict) -> None:
    for metric, value in values.items():
        show(name, metric, value, PER_LAYER[metric]["unit"])


def driver_line(summary: dict, metrics: dict) -> str:
    failed = summary["ops_failed"]
    return json.dumps({"correct": failed == 0, "attempted": summary["ops_attempted"],
                       "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (PR-driver mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                    help="timed seconds per workload in a timed pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--quick", action="store_true", help="smoke sizes: P <= 16, one repetition")
    ap.add_argument("--out", help="suite mode: write the JSON result here")
    ap.add_argument("--trace-out", help="write the wrapper spans of the traced pass here "
                    "(the suite appends .<workload>.json)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0

    load_before = os.getloadavg()[0]
    harness = Harness(args.seed, args.quick)
    try:
        if args.workload and args.trace:
            doc, values = harness.traced_pass(args.workload, args.trace_out)
            values.update(harness.probes())
            show_per_layer(args.workload, values)
            print(driver_line(summarize([doc]), {
                k: {"value": values[k], "unit": m["unit"]} for k, m in PER_LAYER.items()}))
            return 0
        if args.workload:
            summary = harness.timed_pass(
                [args.workload], args.seconds, DRIVER_MIN_REPS)[args.workload]
            show_end_to_end(args.workload, summary)
            print(driver_line(summary, {
                k: {"value": summary["metrics"][k]["value"], "unit": m["unit"]}
                for k, m in END_TO_END.items()}))
            return 0

        result = {"schema": "hostbench/1", "seed": args.seed, "quick": args.quick,
                  "seconds": args.seconds, "workloads": {}}
        # --quick takes the end-to-end numbers from the traced child's one
        # untraced repetition: seven children in all instead of nineteen.
        timed = {} if args.quick else harness.timed_pass(
            WORKLOADS, args.seconds, SUITE_MIN_REPS)
        for i, name in enumerate(WORKLOADS):
            trace_out = f"{args.trace_out}.{name}.json" if args.trace_out else None
            doc, per_layer = harness.traced_pass(name, trace_out)
            summary = timed.get(name) or summarize([doc])
            if not args.quick:
                traced = summarize([doc])
                for key in ("ops_attempted", "ops_failed"):
                    summary[key] += traced[key]
                summary["ops_failed"] += traced["exact"] != summary["exact"]
            summary["fail_share"] = summary["ops_failed"] / summary["ops_attempted"]
            summary["per_layer"] = per_layer
            summary["why"] = SPEC["workloads"][i]["why"]
            result["workloads"][name] = summary
            show_end_to_end(name, summary)
            show_per_layer(name, per_layer)
        result["probes"] = harness.probes()
        show_per_layer("probes", result["probes"])
        result["machine"] = machine_block(harness, load_before)
        print("machine", json.dumps(result["machine"]))
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        failed = sum(s["ops_failed"] for s in result["workloads"].values())
        if failed:
            print(f"hostbench: {failed} failed ops", file=sys.stderr)
        return 1 if failed else 0
    finally:
        harness.close()


if __name__ == "__main__":
    sys.exit(main())
