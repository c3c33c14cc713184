"""Checkpoint/restart pipelines: clean runs, kills, resumes, properties.

The workload throughout is the alternating matmul chain of
:mod:`repro.apps.pipeline` (X <- op(A) @ X), checked against its serial
numpy reference.  Kills are deterministic
:class:`~repro.mpi.faults.RankFault` entries, so every scenario here is
replayable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.pipeline import (
    matmul_chain,
    matmul_chain_reference,
)
from repro.ckpt import (
    CheckpointError,
    CheckpointPolicy,
    DirStore,
    MemoryStore,
    PipelineStep,
    run_pipeline,
    validate_manifest,
)
from repro.ft.errors import UnrecoverableError
from repro.mpi import run_spmd
from repro.mpi.faults import FaultPlan, RankFault

M, N, K, P = 24, 20, 28, 8


def _kill(rank, call):
    """Kill ``rank`` permanently in pipeline call ``call``'s Cannon stage."""
    return FaultPlan(ranks=(RankFault(
        rank=rank, phase="cannon", occurrence=call + 1, kill=True,
    ),))


def _chain(store, policy=CheckpointPolicy(1), calls=4, **kw):
    def f(comm):
        res = matmul_chain(
            comm, M, N, K, calls=calls, store=store, policy=policy, **kw,
        )
        return {
            "x": res.state["X"].to_global(),
            "restarts": res.restarts,
            "checkpoints": res.checkpoints,
            "size": res.comm.size,
        }

    return f


def _survivor(result):
    return next(r for r in result.results if r is not None)


class TestCleanPipeline:
    def test_matches_numpy_and_checkpoints(self, spmd):
        store = MemoryStore()
        r = spmd(P, _chain(store))
        got = _survivor(r)
        np.testing.assert_allclose(
            got["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-12, atol=1e-12,
        )
        assert got["restarts"] == 0
        assert len(got["checkpoints"]) == 4
        # every published manifest is schema-valid and virtual-clock keyed
        for man in store.manifests():
            validate_manifest(man)
            assert man["ckpt_id"].startswith(f"step{man['step']:04d}-t")

    def test_every_n_policy_halves_checkpoints(self, spmd):
        store = MemoryStore()
        r = spmd(P, _chain(store, policy=CheckpointPolicy(every_calls=2)))
        assert len(_survivor(r)["checkpoints"]) == 2

    def test_virtual_time_policy_checkpoints(self, spmd):
        # A threshold below one call's makespan fires after every call,
        # like N=1; the trigger must be SPMD-consistent (allreduce of clocks).
        store = MemoryStore()
        policy = CheckpointPolicy(every_calls=None, every_virtual_s=1e-12)
        r = spmd(P, _chain(store, policy=policy))
        assert len(_survivor(r)["checkpoints"]) == 4

    @pytest.mark.parametrize("field,value", [
        ("every_calls", -1), ("full_interval", -1),
        ("every_virtual_s", 0.0), ("every_virtual_s", -1.0), ("every_virtual_s", float("nan")),
    ])
    def test_policy_refuses_a_bad_cadence(self, field, value):
        with pytest.raises(ValueError, match=field):
            CheckpointPolicy(**{field: value})

    def test_checkpoint_ids_are_replay_deterministic(self, spmd):
        stores = [MemoryStore(), MemoryStore()]
        for store in stores:
            spmd(P, _chain(store))
        assert [m["ckpt_id"] for m in stores[0].manifests()] == \
            [m["ckpt_id"] for m in stores[1].manifests()]


class TestKillAndRestart:
    def test_in_call_recovery_rebases_carried_state(self, spmd):
        # Resilient steps heal the kill inside the call; the pipeline
        # must re-home the carried A from the checkpoint onto the
        # shrunk communicator and keep going.
        store = MemoryStore()
        r = run_spmd(P, _chain(store), faults=_kill(1, call=2),
                     record_events=True)
        got = _survivor(r)
        np.testing.assert_allclose(
            got["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-9, atol=1e-9,
        )
        assert got["size"] == P - 1
        assert got["restarts"] == 0  # healed in-call, not by restart
        fm = r.metrics
        assert fm.recoveries == 1
        # partial-result reuse: strictly less than one full call redone
        assert fm.reused_flops > 0
        assert fm.recomputed_flops < 2.0 * M * N * K

    def test_escaped_failure_restarts_from_checkpoint(self, spmd):
        store = MemoryStore()
        r = run_spmd(P, _chain(store, resilient=False),
                     faults=_kill(3, call=2), record_events=True)
        got = _survivor(r)
        np.testing.assert_allclose(
            got["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-9, atol=1e-9,
        )
        assert got["restarts"] == 1
        assert got["size"] == P - 1
        fm = r.metrics
        assert fm.recoveries == 1
        # calls 0 and 1 were preserved by the step-1 checkpoint
        assert fm.reused_flops == pytest.approx(2 * 2.0 * M * N * K)

    def test_escaped_failure_without_store_restarts_from_scratch(self, spmd):
        r = run_spmd(P, _chain(None, policy=None, resilient=False),
                     faults=_kill(3, call=2), record_events=True)
        got = _survivor(r)
        np.testing.assert_allclose(
            got["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-9, atol=1e-9,
        )
        assert got["restarts"] == 1
        assert r.metrics.reused_flops == 0  # nothing to reuse

    def test_restart_budget_exhaustion_is_typed(self, spmd):
        # rank 1 dies in call 0; rank 2 dies on its *second* Cannon
        # entry — i.e. in the restarted call 0 — forcing a second
        # restart that the budget of 1 does not cover.
        plan = FaultPlan(ranks=(
            RankFault(rank=1, phase="cannon", occurrence=1, kill=True),
            RankFault(rank=2, phase="cannon", occurrence=2, kill=True),
        ))
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(P, _chain(MemoryStore(), resilient=False,
                               max_restarts=1), faults=plan)
        assert isinstance(exc_info.value.__cause__, UnrecoverableError)

    def test_single_rank_kill_is_typed(self, spmd):
        plan = FaultPlan(ranks=(RankFault(
            rank=0, phase="cannon", occurrence=1, kill=True,
        ),))
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(1, _chain(MemoryStore(), resilient=False), faults=plan)
        assert isinstance(exc_info.value.__cause__, UnrecoverableError)

    def test_rebase_without_store_is_typed(self, spmd):
        # An in-call recovery shrinks the comm; without a checkpoint the
        # carried A cannot follow — must be a typed CheckpointError, not
        # a crash in layout code.
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(P, _chain(None, policy=None), faults=_kill(1, call=2))
        assert isinstance(exc_info.value.__cause__, CheckpointError)


class TestCrossRunResume:
    def test_dirstore_resume_on_fewer_ranks(self, spmd, tmp_path):
        # Run half the pipeline in one "job", then resume from the
        # directory in a new world with fewer ranks — the restored tiles
        # are re-dealt round-robin and redistributed by the next call.
        store = DirStore(tmp_path / "ckpts")

        def first(comm):
            matmul_chain(comm, M, N, K, calls=2, store=store,
                         policy=CheckpointPolicy(1))

        spmd(P, first)
        assert len(store.manifests()) == 2

        r = spmd(5, _chain(store, resume=True))
        got = _survivor(r)
        np.testing.assert_allclose(
            got["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-12, atol=1e-12,
        )
        # only calls 2 and 3 ran here, each checkpointed once
        assert len(got["checkpoints"]) == 2

    def test_resume_with_empty_store_starts_from_init(self, spmd):
        r = spmd(P, _chain(MemoryStore(), resume=True))
        np.testing.assert_allclose(
            _survivor(r)["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-12, atol=1e-12,
        )


class TestIncrementalCheckpoints:
    def test_kinds_and_stored_in_pointers(self, spmd):
        # The chain's steps only ever return X, so checkpoint 0 is the
        # anchoring full snapshot and every later one is a delta whose
        # clean carried A points back at the anchor.
        store = MemoryStore()
        spmd(P, _chain(store))
        mans = store.manifests()
        assert [m["kind"] for m in mans] == ["full"] + ["delta"] * 3
        anchor = mans[0]["ckpt_id"]
        for man in mans:
            validate_manifest(man)
        for man in mans[1:]:
            assert man["matrices"]["A"]["stored_in"] == anchor
            assert "stored_in" not in man["matrices"]["X"]

    def test_delta_writes_strictly_fewer_bytes(self, spmd):
        # Same chain, same cadence: dirty-only checkpoints must beat the
        # full-snapshot baseline (forced via full_interval=1) on total
        # bytes accepted by the store.
        delta_store, full_store = MemoryStore(), MemoryStore()
        spmd(P, _chain(delta_store))
        spmd(P, _chain(full_store,
                       policy=CheckpointPolicy(every_calls=1, full_interval=1)))
        assert [m["kind"] for m in full_store.manifests()] == ["full"] * 4
        assert 0 < delta_store.bytes_written < full_store.bytes_written

    def test_full_interval_reanchors(self, spmd):
        store = MemoryStore()
        spmd(P, _chain(
            store, policy=CheckpointPolicy(every_calls=1, full_interval=2),
        ))
        assert [m["kind"] for m in store.manifests()] == \
            ["full", "delta", "full", "delta"]

    def test_restart_replays_full_plus_delta_chain(self, spmd, tmp_path):
        # Resume a two-call job whose newest manifest is a delta: X comes
        # from the delta, A from the anchoring full snapshot, on a
        # smaller world.
        store = DirStore(tmp_path / "ckpts")

        def first(comm):
            matmul_chain(comm, M, N, K, calls=2, store=store,
                         policy=CheckpointPolicy(1))

        spmd(P, first)
        assert [m["kind"] for m in store.manifests()] == ["full", "delta"]

        r = spmd(5, _chain(store, resume=True))
        np.testing.assert_allclose(
            _survivor(r)["x"], matmul_chain_reference(M, N, K, calls=4),
            rtol=1e-12, atol=1e-12,
        )

    def test_comm_change_forces_reanchoring_full(self, spmd):
        # After the in-call recovery at call 2 shrinks the world, the
        # next checkpoint must re-anchor: a delta would point at payloads
        # recorded for the old rank count.
        store = MemoryStore()
        run_spmd(P, _chain(store), faults=_kill(1, call=2))
        kinds = [m["kind"] for m in store.manifests()]
        nranks = [m["nranks"] for m in store.manifests()]
        shrink = nranks.index(P - 1)
        assert kinds[shrink] == "full"
        assert kinds[:2] == ["full", "delta"]

    def test_writebehind_charge_is_balanced(self, spmd):
        # Delta staging must show up in the memtrace (the eq. (11) gate
        # sees it) and every charge must be released by pipeline end (an
        # unbalanced span reads as a leak in the audit).
        store = MemoryStore()
        r = run_spmd(P, _chain(store), record_events=True)
        peak = 0
        for t in r.live_traces:
            peak = max(peak, t.mem_peaks.get("ckpt.writebehind", 0))
            assert t.mem_live.get("ckpt.writebehind", 0) == 0
        assert peak > 0


class TestPipelineContract:
    def test_steps_see_merged_state(self, spmd):
        seen = []

        def mk(name):
            def fn(comm, state):
                if comm.rank == 0:
                    seen.append((name, sorted(state)))
                return {}
            return PipelineStep(name=name, fn=fn)

        def f(comm):
            run_pipeline(comm, [mk("s0"), mk("s1")], init=lambda c: {})

        spmd(4, f)
        assert seen == [("s0", []), ("s1", [])]


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    m=st.integers(6, 24),
    n=st.integers(6, 24),
    k=st.integers(6, 24),
    nprocs=st.sampled_from([4, 6, 8]),
    kill=st.data(),
)
def test_save_kill_restart_reproduces_pipeline(m, n, k, nprocs, kill):
    """Property: save -> kill -> restart reproduces the chain to roundoff.

    For random shapes and world sizes, killing a random non-zero rank in
    a random mid-pipeline call — healed either in-call (resilient) or by
    a pipeline restart — must reproduce the 3-call chain's serial result
    to roundoff on the surviving ranks.
    """
    rank = kill.draw(st.integers(1, nprocs - 1), label="kill_rank")
    call = kill.draw(st.integers(1, 2), label="kill_call")
    resilient = kill.draw(st.booleans(), label="resilient")
    store = MemoryStore()

    def f(comm):
        res = matmul_chain(comm, m, n, k, calls=3, store=store,
                           policy=CheckpointPolicy(1), resilient=resilient)
        return res.state["X"].to_global()

    r = run_spmd(nprocs, f, faults=FaultPlan(ranks=(RankFault(
        rank=rank, phase="cannon", occurrence=call + 1, kill=True,
    ),)))
    got = next(x for x in r.results if x is not None)
    ref = matmul_chain_reference(m, n, k, calls=3)
    scale = max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(got - ref).max()) <= 1e-9 * scale
    assert r.transport.dead_ranks() == {rank}
