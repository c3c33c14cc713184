"""The digest oracles: one registry, one cache of runs, one recorder.

Each ``tests/**/*_digests.json`` pins, byte for byte, what the code did
when it was recorded: the raw logs, messages and tiles of executed runs,
the audit and metrics documents, the closed forms' prices, the grids the
search picks and the schema checker's messages.  Every file belongs to
one :class:`Oracle` (:data:`MODULES` names the module holding each): a
name, the file, and per case the :class:`Run` it reads and the digest it
takes of that run.  :data:`CACHE` executes each distinct run once and
drops it after the last collected test that takes it, so cases that
differ only in how a run is read share one world.

Re-record only for a change that means to move a digest, with::

    PYTHONPATH=src python -m tests.oracles record [NAME ...]

(every oracle when no name is given).  It computes the digests twice, in
subprocesses under ``PYTHONHASHSEED`` 1 and 977, and writes nothing
unless the two agree.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.bench.harness import executed_workload
from repro.mpi import run_spmd

#: oracle name -> the module whose ``ORACLE`` it is: ``test_<name>_identity``, and the schema's
MODULES = {"schema": "tests.obs.test_schema"} | {
    path.stem[len("test_"):-len("_identity")]: f"tests.{path.parent.name}.{path.stem}"
    for path in sorted(Path(__file__).parent.glob("*/test_*_identity.py"))
}
#: the hash seeds the recorder computes every digest under
SEEDS = (1, 977)


class Run(NamedTuple):
    """One run and the key :data:`CACHE` holds it by: ``body(run)`` executes it."""

    body: Callable[[Run], Any]
    shape: Any = None
    P: int | None = None
    machine: Any = None
    overlap: str = "none"
    recorded: bool = True
    faults: Any = None


class Cache:
    """Executed runs, each held until the last expected take of it."""

    def __init__(self) -> None:
        self.held, self.left = {}, Counter()  # runs; the takes of each still to come

    def take(self, run: Run):
        out = self.held.pop(run) if run in self.held else run.body(run)
        left = self.left.pop(run, 0) - 1
        if left > 0:
            self.held[run], self.left[run] = out, left
        return out


CACHE = Cache()


class Oracle:
    """A name, its digest file beside ``module_file`` (``<name>_digests.json``
    unless ``file`` is given) and, per case, ``(run, digest of its outcome)``."""

    def __init__(self, name: str, module_file: str, cases: dict[str, tuple[Run, Callable]],
                 file: str | None = None, indent: int = 1):
        self.name, self.cases, self.indent = name, cases, indent
        self.file = Path(module_file).with_name(file or f"{name}_digests.json")

    @functools.cached_property
    def recorded(self) -> dict:
        return json.loads(self.file.read_text())

    def outcome(self, case: str):
        return CACHE.take(self.cases[case][0])

    def value(self, case: str):
        return self.cases[case][1](self.outcome(case))

    def check(self, *cases: str) -> None:
        got = {case: self.value(case) for case in cases}
        want = {case: self.recorded.get(case) for case in cases}
        assert got == want, f"{self.name} digests moved: {got} != {want}"

    def compute(self) -> dict:
        """Every case's digest, as the recorder writes them."""
        CACHE.left.update(run for run, _ in self.cases.values())
        return {case: self.value(case) for case in self.cases}

    def takes(self, cases: Callable[[dict], list[str]]):
        """Tag a test with the cases it takes, ``cases(its parameters)``."""
        def tag(fn):
            fn.oracle_runs = lambda params: [self.cases[c][0] for c in cases(params)]
            return fn
        return tag

    def test(self, groups: dict[str, list[str]] | None = None):
        """A test of each sorted case against the record, or of each group of
        ``groups`` (test id -> its cases) in their order."""
        groups = groups or {case: [case] for case in sorted(self.cases)}

        @pytest.mark.parametrize("key", list(groups))
        @self.takes(lambda params: groups[params["key"]])
        def test(key):
            self.check(*groups[key])
        return test


def expect(items) -> None:
    """Count in :data:`CACHE` the runs the collected tests ``items`` take."""
    for item in items:
        runs = getattr(getattr(item, "function", None), "oracle_runs", None)
        if runs is not None:
            CACHE.left.update(runs(getattr(getattr(item, "callspec", None), "params", {})))


# --------------------------------------------------------------- runs -- #
class Outcome(NamedTuple):
    """An executed world: its ``SpmdResult`` and each rank's return value
    (``None`` and ``[]`` if a rank failed it), its transport and the
    failing rank's error."""

    result: Any
    results: list
    transport: Any
    error: str | None = None


def spmd(run: Run, body: Callable) -> Outcome:
    """``body`` on ``run.P`` ranks of ``run.machine`` in ``run.overlap`` mode."""
    world = []  # the transport, kept for a run that fails

    def rank_body(comm):
        world.append(comm.transport)
        return body(comm)

    try:
        res = run_spmd(run.P, rank_body, machine=run.machine.with_overlap(run.overlap),
                       record_events=run.recorded, faults=run.faults)
    except RuntimeError as exc:
        return Outcome(None, [], world[0], f"{type(exc.__cause__).__name__}: {exc.__cause__}")
    return Outcome(res, res.results, res.transport)


def modes(runs: dict[str, Run], overlaps, digest) -> dict:
    """``"name/overlap/recorded|unrecorded" -> (run, digest)``: each of
    ``runs`` in each overlap mode, recorded and not."""
    return {f"{name}/{overlap}/{'recorded' if recorded else 'unrecorded'}":
            (run._replace(overlap=overlap, recorded=recorded), digest)
            for name, run in runs.items() for overlap in overlaps for recorded in (True, False)}


def workload(run: Run, **kwargs):
    """``executed_workload`` of ``run.shape``: ``(plan, result)``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. a memory cap no grid meets
        return executed_workload(run.shape, machine=run.machine.with_overlap(run.overlap),
                                 faults=run.faults, record_events=run.recorded, **kwargs)


# ------------------------------------------------------------ hashing -- #
def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha_json(doc) -> str:
    return sha(json.dumps(doc, sort_keys=True))


def array(h, label, arr: np.ndarray) -> None:
    """Hash ``label``, the array's dtype and shape, then its bytes in C order."""
    h.update(repr((label, arr.dtype.str, arr.shape)).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def tiles(h, rects, blocks) -> None:
    for rect, tile in zip(rects, blocks):
        array(h, tuple(rect), tile)


def raw_logs(outcome: Outcome):
    """A sha256 over a failed run's error text, then the ``repr`` of every
    record the transport logged: the tracer's ``events``, ``msglog``,
    ``memlog`` and spans (a recorded run's), then ``traces()``."""
    h = hashlib.sha256((outcome.error or "").encode())
    tracer = outcome.transport.tracer
    logs = () if tracer is None else (tracer.events, tracer.msglog, tracer.memlog, tracer.spans)
    for log in (*logs, outcome.transport.traces()):
        for rec in log:
            h.update(repr(rec).encode())
    return h


# ----------------------------------------------------------- recorder -- #
def load(module: str) -> Oracle:
    return importlib.import_module(module).ORACLE


def digests(modules: list[str], seed: int) -> str:
    """The JSON list of ``modules``' digest tables, computed in a child
    process under ``PYTHONHASHSEED=seed``."""
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-m", "tests.oracles", "digests", *modules],
                          cwd=Path(__file__).parents[1], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def record(modules: list[str]) -> bool:
    """Write each of ``modules``' digest files, unless the seeds disagree."""
    first, second = (digests(modules, seed) for seed in SEEDS)
    if first != second:
        return False
    for module, table in zip(modules, json.loads(first)):
        oracle = load(module)
        oracle.file.write_text(json.dumps(table, indent=oracle.indent, sort_keys=True) + "\n")
    return True


if __name__ == "__main__":
    command, *names = sys.argv[1:] or [""]
    if command == "digests":  # the recorder's child; the names are modules
        json.dump([load(module).compute() for module in names], sys.stdout)
    elif command != "record" or not set(names) <= set(MODULES):
        sys.exit(f"usage: python -m tests.oracles record [{'|'.join(MODULES)} ...]")
    elif not record([MODULES[name] for name in names or MODULES]):
        sys.exit(f"the digests differ under PYTHONHASHSEED {SEEDS}: nothing written")
