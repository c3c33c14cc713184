"""Pluggable checkpoint stores: an in-memory "disk" and a real directory.

A store outlives any rank: it is the simulation's stand-in for a
parallel file system, so tiles written by a rank that is later killed
remain readable — which is exactly what distinguishes checkpoint/restart
from the ft layer's buddy backups (those die with their holder).

Both backends keep a lock of their own, unlike everything inside a
world (which only the strand owning the world touches, see
:mod:`repro.mpi.des`): a store is built by the caller outside any world
and may be shared by several worlds or read by the driver while one
runs, so no single world's ownership rule covers it.  Both copy array
payloads on the way in and out, so a checkpoint can never alias live
compute buffers.  Checkpoint ids are opaque strings minted by the
pipeline from the *virtual* clock (``stepNNNN-t<seconds>``), keeping the
store's key space replay-deterministic.
"""

from __future__ import annotations

import json
import os
import threading
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from ..layout.blocks import Rect
from ..mpi.errors import VMpiError


class CheckpointError(VMpiError):
    """A checkpoint could not be written, found, or restored."""


class CheckpointStore(ABC):
    """Where checkpoints live.  All methods are callable from any rank.

    ``bytes_written`` accumulates the tile payload bytes accepted by
    :meth:`put_tiles` over the store's lifetime — the observable that
    makes incremental (delta) checkpointing measurable: a dirty-only
    checkpoint grows the counter by strictly less than a full snapshot.
    """

    bytes_written: int = 0

    @abstractmethod
    def put_tiles(
        self, ckpt_id: str, matrix: str, rank: int,
        rects_tiles: list[tuple[Rect, np.ndarray]],
    ) -> None:
        """Persist one rank's ``(rect, tile)`` list for one matrix."""

    @abstractmethod
    def get_tiles(
        self, ckpt_id: str, matrix: str, rank: int
    ) -> list[tuple[Rect, np.ndarray]]:
        """Read back exactly what :meth:`put_tiles` stored, in order."""

    @abstractmethod
    def put_manifest(self, manifest: dict) -> None:
        """Publish a checkpoint: only manifested checkpoints exist."""

    @abstractmethod
    def manifests(self) -> list[dict]:
        """All published manifests, oldest first."""

    def latest_manifest(self) -> dict | None:
        ms = self.manifests()
        return ms[-1] if ms else None


class MemoryStore(CheckpointStore):
    """The in-memory "disk": survives rank death, dies with the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tiles: dict[tuple[str, str, int], list[tuple[Rect, np.ndarray]]] = {}
        self._manifests: list[dict] = []
        self.bytes_written = 0

    def put_tiles(self, ckpt_id, matrix, rank, rects_tiles):
        copied = [(rect, np.array(tile, copy=True)) for rect, tile in rects_tiles]
        with self._lock:
            self._tiles[(ckpt_id, matrix, rank)] = copied
            self.bytes_written += sum(t.nbytes for _r, t in copied)

    def get_tiles(self, ckpt_id, matrix, rank):
        with self._lock:
            stored = self._tiles.get((ckpt_id, matrix, rank))
            if stored is None:
                raise CheckpointError(
                    f"checkpoint {ckpt_id!r} has no tiles for matrix "
                    f"{matrix!r} rank {rank}"
                )
            return [(rect, tile.copy()) for rect, tile in stored]

    def put_manifest(self, manifest):
        with self._lock:
            self._manifests.append(json.loads(json.dumps(manifest)))

    def manifests(self):
        with self._lock:
            return [json.loads(json.dumps(m)) for m in self._manifests]

    def latest_manifest(self):
        """A copy of the last manifest only: every survivor of a restart
        asks, and copying them all made the ask O(checkpoints)."""
        with self._lock:
            last = self._manifests[-1] if self._manifests else None
        return None if last is None else json.loads(json.dumps(last))


class DirStore(CheckpointStore):
    """A real directory backend: ``.npy`` tiles plus JSON manifests.

    Layout::

        root/
          manifests.jsonl              # one manifest per line, append order
          <ckpt_id>/
            <matrix>.r<rank>.json      # the rank's rect list
            <matrix>.r<rank>.<i>.npy   # one tile per rect, same order

    Because manifests are appended only after every rank's tiles landed
    (the pipeline barriers in between), a crash mid-checkpoint leaves
    orphan tile files but never a readable half-checkpoint.

    Every file lands via write-to-temp-name + ``os.replace``: a rank
    killed mid-write can strand a ``*.tmp`` orphan but never a
    truncated ``.npy`` or rect-list JSON under the final name, so a
    later ``resume=True`` run can never load half a tile.  A torn
    trailing line in ``manifests.jsonl`` (appends are not atomic) is
    tolerated by the reader: an unparsable line is an unpublished
    checkpoint, not an error.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.bytes_written = 0

    def _rank_base(self, ckpt_id: str, matrix: str, rank: int) -> Path:
        d = self.root / ckpt_id
        d.mkdir(parents=True, exist_ok=True)
        return d / f"{matrix}.r{rank}"

    def put_tiles(self, ckpt_id, matrix, rank, rects_tiles):
        base = self._rank_base(ckpt_id, matrix, rank)
        for i, (_rect, tile) in enumerate(rects_tiles):
            # The temp name keeps the rank suffix, so concurrent ranks
            # never collide, and keeps the .npy extension so np.save
            # does not append a second one.
            tmp = f"{base}.{i}.tmp.npy"
            np.save(tmp, np.ascontiguousarray(tile))
            os.replace(tmp, f"{base}.{i}.npy")
        meta = {"rects": [[r.r0, r.r1, r.c0, r.c1] for r, _t in rects_tiles]}
        # NB: not Path.with_suffix — it would strip the ".r<rank>" part
        # and collide every rank onto one file.
        meta_tmp = base.parent / (base.name + ".json.tmp")
        meta_tmp.write_text(json.dumps(meta))
        os.replace(meta_tmp, base.parent / (base.name + ".json"))
        with self._lock:
            self.bytes_written += sum(t.nbytes for _r, t in rects_tiles)

    def get_tiles(self, ckpt_id, matrix, rank):
        base = self.root / ckpt_id / f"{matrix}.r{rank}"
        meta_path = base.parent / (base.name + ".json")
        if not meta_path.exists():
            raise CheckpointError(
                f"checkpoint {ckpt_id!r} has no tiles for matrix "
                f"{matrix!r} rank {rank} under {self.root}"
            )
        rects = [Rect(*r) for r in json.loads(meta_path.read_text())["rects"]]
        return [
            (rect, np.load(f"{base}.{i}.npy"))
            for i, rect in enumerate(rects)
        ]

    def put_manifest(self, manifest):
        line = json.dumps(manifest, sort_keys=True)
        with self._lock:
            with open(self.root / "manifests.jsonl", "a") as fh:
                fh.write(line + "\n")

    def manifests(self):
        path = self.root / "manifests.jsonl"
        if not path.exists():
            return []
        with self._lock:
            text = path.read_text()
        out = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                # A rank killed mid-append tears the trailing line; the
                # checkpoint it described was never published.
                continue
        return out
