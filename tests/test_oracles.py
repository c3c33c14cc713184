"""The oracle harness (:mod:`tests.oracles`): shared runs, the cache, the
registry and the recorder."""

from __future__ import annotations

from pathlib import Path

import repro.mpi.runtime
from repro.machine.model import laptop
from tests import oracles
from tests.oracles import Cache, Oracle, Run


def _worlds(monkeypatch) -> list:
    """Every world started from here on: the calls ``run_spmd`` makes of
    ``repro.mpi.des.run_des``."""
    started = []
    run_des = repro.mpi.runtime.run_des

    def counted(*args, **kwargs):
        started.append(args)
        return run_des(*args, **kwargs)

    monkeypatch.setattr(repro.mpi.runtime, "run_des", counted)
    return started


def _ranks(run: Run) -> oracles.Outcome:
    return oracles.spmd(run, lambda comm: comm.rank)


def test_two_cases_of_one_run_execute_one_world(monkeypatch):
    worlds = _worlds(monkeypatch)
    run = Run(_ranks, P=2, machine=laptop())
    oracle = Oracle("shared", Path("shared_digests.json"), {
        "results": (run, lambda outcome: outcome.results),
        "logs": (run, lambda outcome: oracles.raw_logs(outcome).hexdigest()),
    })
    table = oracle.compute()
    assert len(worlds) == 1
    assert table["results"] == [0, 1]
    assert run not in oracles.CACHE.held


def test_the_cache_is_empty_again_after_the_last_case_of_a_run():
    cache, calls = Cache(), []
    run = Run(lambda run: calls.append(run) or len(calls))
    cache.left.update([run, run])
    assert cache.take(run) == 1 and run in cache.held
    assert cache.take(run) == 1
    assert not cache.held and not cache.left
    # A take nobody announced executes the run and keeps nothing.
    assert cache.take(run) == 2
    assert not cache.held and not cache.left


def test_every_digest_file_belongs_to_exactly_one_registered_oracle():
    registered = {name: oracles.load(module) for name, module in oracles.MODULES.items()}
    assert all(oracle.name == name for name, oracle in registered.items())
    files = sorted(oracle.file for oracle in registered.values())
    assert all(file.exists() for file in files)
    assert files == sorted(Path(oracles.__file__).parent.rglob("*_digests.json"))


def _fake(tmp_path, monkeypatch, expression: str) -> Path:
    """An importable module ``fake_oracle`` whose one case digests
    ``expression``; returns its digest file."""
    file = tmp_path / "fake_digests.json"
    (tmp_path / "fake_oracle.py").write_text(
        "from pathlib import Path\n"
        "from tests.oracles import Oracle, Run\n"
        f"ORACLE = Oracle('fake', Path({str(file)!r}), "
        f"{{'x': (Run(lambda run: {expression}), str)}})\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    return file


def test_the_recorder_writes_nothing_when_the_hash_seeds_disagree(tmp_path, monkeypatch):
    file = _fake(tmp_path, monkeypatch, 'hash("x")')
    assert not oracles.record(["fake_oracle"])
    assert not file.exists()


def test_the_recorder_writes_the_digests_both_hash_seeds_agree_on(tmp_path, monkeypatch):
    file = _fake(tmp_path, monkeypatch, 'len("x")')
    assert oracles.record(["fake_oracle"])
    assert file.read_text() == '{\n "x": "1"\n}\n'
