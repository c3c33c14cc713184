"""Checkpoint stores and the manifest format (schema, round-trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import (
    MANIFEST_JSON_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    CheckpointError,
    DirStore,
    MemoryStore,
    validate_manifest,
)
from repro.layout.blocks import Rect


def _tiles():
    return [
        (Rect(0, 2, 0, 3), np.arange(6, dtype=np.float64).reshape(2, 3)),
        (Rect(2, 5, 0, 3), np.ones((3, 3)) * 7),
    ]


def _manifest(ckpt_id="step0000-t0.000000001"):
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "ckpt_id": ckpt_id,
        "step": 0,
        "step_name": "call0",
        "t_virtual_s": 1e-9,
        "nranks": 2,
        "matrices": {
            "X": {
                "shape": [5, 3],
                "dtype": "float64",
                "rects": {"0": [[0, 2, 0, 3]], "1": [[2, 5, 0, 3]]},
            }
        },
    }


@pytest.fixture(params=["mem", "dir"])
def store(request, tmp_path):
    if request.param == "mem":
        return MemoryStore()
    return DirStore(tmp_path / "ckpts")


class TestStores:
    def test_tile_round_trip(self, store):
        put = _tiles()
        store.put_tiles("c1", "X", 0, put)
        got = store.get_tiles("c1", "X", 0)
        assert [r for r, _ in got] == [r for r, _ in put]
        for (_, a), (_, b) in zip(got, put):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_payloads_are_copied(self, store):
        rect, tile = Rect(0, 2, 0, 2), np.zeros((2, 2))
        store.put_tiles("c1", "X", 0, [(rect, tile)])
        tile[:] = 99.0  # mutating the source must not reach the store
        (_, got), = store.get_tiles("c1", "X", 0)
        np.testing.assert_array_equal(got, np.zeros((2, 2)))
        got[:] = 5.0  # nor must mutating what we read back
        (_, again), = store.get_tiles("c1", "X", 0)
        np.testing.assert_array_equal(again, np.zeros((2, 2)))

    def test_missing_tiles_is_typed(self, store):
        with pytest.raises(CheckpointError):
            store.get_tiles("nope", "X", 0)

    def test_manifest_order_and_latest(self, store):
        assert store.latest_manifest() is None
        store.put_manifest(_manifest("a"))
        store.put_manifest(_manifest("b"))
        assert [m["ckpt_id"] for m in store.manifests()] == ["a", "b"]
        assert store.latest_manifest()["ckpt_id"] == "b"

    def test_empty_rect_list_round_trips(self, store):
        # A rank can own nothing of a matrix; the store must represent
        # that distinctly from "never checkpointed".
        store.put_tiles("c1", "X", 3, [])
        assert store.get_tiles("c1", "X", 3) == []


class TestStoreAccounting:
    def test_bytes_written_accumulates_payload_bytes(self, store):
        assert store.bytes_written == 0
        store.put_tiles("c1", "X", 0, _tiles())
        expect = sum(t.nbytes for _r, t in _tiles())
        assert store.bytes_written == expect
        store.put_tiles("c1", "X", 1, _tiles())
        assert store.bytes_written == 2 * expect


class TestDirStoreCrashConsistency:
    def test_no_temp_files_survive_a_put(self, tmp_path):
        store = DirStore(tmp_path / "ckpts")
        store.put_tiles("c1", "X", 0, _tiles())
        leftovers = [p for p in store.root.rglob("*.tmp*")]
        assert leftovers == []

    def test_torn_trailing_manifest_line_is_unpublished(self, tmp_path):
        # A rank killed mid-append leaves a truncated trailing line;
        # the reader must treat it as "never published", not crash.
        store = DirStore(tmp_path / "ckpts")
        store.put_manifest(_manifest("a"))
        with open(store.root / "manifests.jsonl", "a") as fh:
            fh.write('{"schema_version": 2, "ckpt_id": "tor')
        assert [m["ckpt_id"] for m in store.manifests()] == ["a"]
        assert store.latest_manifest()["ckpt_id"] == "a"

    def test_torn_tile_never_lands_under_final_name(self, tmp_path, monkeypatch):
        # Simulate a kill mid-np.save: the interrupted write must leave
        # the previous tile contents readable under the final name.
        store = DirStore(tmp_path / "ckpts")
        rect = Rect(0, 2, 0, 2)
        store.put_tiles("c1", "X", 0, [(rect, np.ones((2, 2)))])

        real_save = np.save

        def dying_save(path, arr):
            with open(path, "wb") as fh:
                fh.write(b"\x93NUMPY")  # truncated header, then "killed"
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "save", dying_save)
        with pytest.raises(KeyboardInterrupt):
            store.put_tiles("c1", "X", 0, [(rect, np.full((2, 2), 9.0))])
        monkeypatch.setattr(np, "save", real_save)

        (_, got), = store.get_tiles("c1", "X", 0)
        np.testing.assert_array_equal(got, np.ones((2, 2)))


class TestManifestSchema:
    def test_valid_manifest_passes(self):
        validate_manifest(_manifest())

    @pytest.mark.parametrize("drop", [
        "schema_version", "ckpt_id", "step", "t_virtual_s", "nranks",
        "matrices",
    ])
    def test_missing_required_key_fails(self, drop):
        doc = _manifest()
        del doc[drop]
        with pytest.raises(Exception):
            validate_manifest(doc)

    def test_schema_is_draft07(self):
        assert MANIFEST_JSON_SCHEMA["$schema"].endswith("draft-07/schema#")

    def test_wrong_version_fails(self):
        from repro.obs.export import TraceSchemaError

        doc = _manifest()
        doc["schema_version"] = 99
        with pytest.raises(TraceSchemaError):
            validate_manifest(doc)

    def test_older_version_rejected(self):
        from repro.obs.export import TraceSchemaError

        doc = _manifest()
        doc["schema_version"] = 1
        with pytest.raises(TraceSchemaError):
            validate_manifest(doc)

    def test_bad_rect_arity_fails(self):
        from repro.obs.export import TraceSchemaError

        doc = _manifest()
        doc["matrices"]["X"]["rects"]["0"] = [[0, 2, 0]]  # 3-tuple, not 4
        with pytest.raises(TraceSchemaError):
            validate_manifest(doc)
