"""A faulted run derives each rank-invariant value once per world.

The DES runs a world's ranks one after the other, so a value that every
rank derives identically costs P times the host time when each rank
builds its own.  These tests count builds (generator calls and cache
misses), not seconds: the seeded operands of the checkpointed chain, the
survivor layout and the reuse round's expanded pieces are each built
once per distinct value, however many ranks ask, and a rank asking for
the newest checkpoint manifest copies that one manifest only.

:func:`shared_builds` is also what CI's recovery-smoke job asserts on the
P = 32 checkpoint kill, in a job without pytest: this module does not
import it.
"""

from __future__ import annotations

import contextlib
import io
import json
import types
from unittest import mock

import numpy as np

import repro.apps.pipeline as pipeline
import repro.ckpt.store as store_mod
import repro.layout.matrix as matrix
import repro.mpi as mpi
from repro import run_spmd
from repro.ckpt import DirStore, MemoryStore
from repro.cli import main as cli_main
from repro.ft import recovery
from repro.layout.distributions import BlockCol1D, BlockRow1D
from repro.layout.matrix import DistMatrix, dense_random


@contextlib.contextmanager
def counted_builds():
    """Counts of every shared value built and asked for inside the block.

    ``operands``: seeded globals generated (``dense_random`` calls of
    :meth:`DistMatrix.random` and the chain).  ``survivor_layout`` and
    ``expanded_layout``: ``(built, asked)`` of the two recovery caches.
    ``manifest_copies``: ``(copies, asked)`` of
    ``MemoryStore.latest_manifest``, a copy being one manifest parsed
    back.  ``worlds``: worlds started.
    """
    counts = {"operands": 0, "worlds": 0, "parsed": 0, "manifest_copies": [0, 0]}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    latest = MemoryStore.latest_manifest

    def asked(self):
        before = counts["parsed"]
        try:
            return latest(self)
        finally:
            counts["manifest_copies"][0] += counts["parsed"] - before
            counts["manifest_copies"][1] += 1

    caches = (recovery._survivor_layout, recovery._expanded_layout)
    for cache in caches:
        cache.cache_clear()
    parsing = types.SimpleNamespace(dumps=json.dumps, loads=counted(json.loads, "parsed"))
    with contextlib.ExitStack() as patches:
        for owner, name, value in (
            (matrix, "dense_random", counted(dense_random, "operands")),
            (pipeline, "dense_random", counted(dense_random, "operands")),
            (store_mod, "json", parsing),
            (MemoryStore, "latest_manifest", asked),
            (mpi, "run_spmd", counted(mpi.run_spmd, "worlds")),
        ):
            patches.enter_context(mock.patch.object(owner, name, value))
        yield counts
    for name, cache in zip(("survivor_layout", "expanded_layout"), caches):
        info = cache.cache_info()
        counts[name] = (info.misses, info.hits + info.misses)


def shared_builds(p: int, n: int = 192) -> dict:
    """:func:`counted_builds` of ``repro checkpoint n n n -np p --kill-rank 3
    --kill-call 3``, run in this process: a clean world, then a faulted one
    whose rank 3 dies in call 3, is healed in the call (survivor layout,
    reuse round) and rebased from the newest checkpoint."""
    argv = ["checkpoint", str(n), str(n), str(n), "-np", str(p),
            "--kill-rank", "3", "--kill-call", "3", "--json"]
    with counted_builds() as counts, contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(argv) == 0
    doc = json.loads(out.getvalue())
    assert doc["correct"] and doc["failed_ranks"] == [3], doc
    counts["survivors"] = p - 1
    return counts


#: Missing-column sets the reuse round recomputes at each P (one set of
#: expanded pieces each): at P = 8 no k-group is left partial.
MISSING_SETS = {8: 0, 16: 1, 32: 3}


def test_a_recovery_builds_each_shared_value_once_per_world():
    """Each value is built once however many ranks ask: the two seeded
    operands once per world, each survivor layout and each set of
    expanded pieces once per distinct value while every survivor asks,
    and every ask for the newest manifest copies one manifest."""
    for p, sets in MISSING_SETS.items():
        got = shared_builds(p)
        survivors = got["survivors"]
        assert got["worlds"] == 2, got  # the clean run, then the faulted one
        # A and X once per world, and once more for the CLI's numpy reference.
        assert got["operands"] == 2 * got["worlds"] + 2, got
        assert got["survivor_layout"] == (2, 2 * survivors), got  # A and X, one round
        assert got["expanded_layout"] == (sets, sets * survivors), got
        copies, asked = got["manifest_copies"]
        assert asked == 2 * survivors and copies == asked, got  # _rebase, then restart


def test_a_random_tile_aliases_nothing():
    """A write into rank 0's tile of a ``DistMatrix.random`` changes no
    other rank's tile and no ``DistMatrix.random`` built after it, in a
    row-band layout (whose tiles ``from_global`` would cut as views) and
    a column-band one: every tile is writeable memory of its own,
    although the world generated the global once."""
    for dist in (BlockRow1D((12, 8), 4), BlockCol1D((8, 12), 4)):
        ref = dense_random(*dist.shape, seed=5)

        def body(comm, dist=dist):
            mat = DistMatrix.random(comm, dist, seed=5)
            comm.barrier()
            if comm.rank == 0:
                for tile in mat.tiles:
                    tile[...] = -1.0
            comm.barrier()
            fresh = DistMatrix.random(comm, dist, seed=5)
            return mat.owned_rects, mat.tiles, fresh.tiles

        res = run_spmd(dist.nranks, body)
        for rank, (rects, tiles, fresh) in enumerate(res.results):
            for rect, tile, again in zip(rects, tiles, fresh):
                want = ref[rect.r0:rect.r1, rect.c0:rect.c1]
                assert np.array_equal(tile, np.full_like(want, -1.0) if rank == 0 else want)
                assert np.array_equal(again, want) and again.flags.writeable


def test_random_is_dense_random_for_every_dtype():
    """The shared global is :func:`dense_random` of the asked dtype,
    byte for byte; the chain's operands stay the float64 matrix cast."""
    dist = BlockRow1D((6, 5), 3)
    dtypes = (np.float32, np.float64, np.complex64, np.complex128)

    def body(comm):
        return [DistMatrix.random(comm, dist, seed=3, dtype=dt).to_global() for dt in dtypes]

    for dt, mat in zip(dtypes, run_spmd(3, body).results[0]):
        assert mat.dtype == dt and mat.tobytes() == dense_random(6, 5, 3, dt).tobytes()
    want = dense_random(6, 5, seed=3).astype(np.complex128)
    assert pipeline._chain_operand(6, 5, 3, np.complex128).tobytes() == want.tobytes()


def test_the_latest_manifest_is_a_copy_of_the_last(tmp_path):
    """``latest_manifest()`` equals ``manifests()[-1]`` (``None`` before
    the first publish), on both stores, and mutating what it returns
    leaves the store as it was."""
    for store in (MemoryStore(), DirStore(tmp_path)):
        assert store.latest_manifest() is None
        for step in range(3):
            store.put_manifest({"ckpt_id": f"c{step}", "step": step,
                                "matrices": {"X": {"rects": {"0": [[0, 1, 0, 1]]}}}})
        latest = store.latest_manifest()
        assert latest == store.manifests()[-1] and latest["ckpt_id"] == "c2"
        latest["ckpt_id"] = "changed"
        latest["matrices"]["X"]["rects"]["0"].append([1, 2, 0, 1])
        assert store.latest_manifest() == store.manifests()[-1]
        assert store.manifests()[-1]["ckpt_id"] == "c2"
        assert store.manifests()[-1]["matrices"]["X"]["rects"]["0"] == [[0, 1, 0, 1]]
