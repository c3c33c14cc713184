"""Checkpoint manifest: the JSON record that makes a checkpoint exist.

A checkpoint is published by writing its manifest (rank 0, after a
barrier proves every rank's tiles landed), so the store can never expose
a half-written checkpoint.  The manifest is deliberately self-contained:
``restart`` needs nothing but the manifest and the tile payloads to
rebuild the pipeline state on a *different* (smaller) process count —
the rect lists recorded per old rank are re-dealt round-robin onto the
survivors through the ``Explicit`` layout machinery.

Schema-validated like the other machine-readable artifacts
(docs/OBSERVABILITY.md): the whole schema, on every install, by the
compiled checker of :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import numpy as np

from ..layout.matrix import DistMatrix

#: Version stamp for the manifest format, the only one accepted:
#: incremental checkpoints with an optional ``kind`` ("full" | "delta")
#: and, per matrix, an optional ``stored_in`` naming the earlier
#: checkpoint whose tile payloads still back the matrix (absent = this
#: checkpoint's own id).
MANIFEST_SCHEMA_VERSION = 2

#: JSON Schema (draft-07) for a checkpoint manifest.
MANIFEST_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro checkpoint manifest",
    "type": "object",
    "required": [
        "schema_version", "ckpt_id", "step", "step_name",
        "t_virtual_s", "nranks", "matrices",
    ],
    "properties": {
        "schema_version": {"const": MANIFEST_SCHEMA_VERSION},
        "ckpt_id": {"type": "string", "minLength": 1},
        "kind": {"enum": ["full", "delta"]},
        "step": {"type": "integer", "minimum": 0},
        "step_name": {"type": "string"},
        "t_virtual_s": {"type": "number", "minimum": 0},
        "nranks": {"type": "integer", "minimum": 1},
        "matrices": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["shape", "dtype", "rects"],
                "properties": {
                    "shape": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "dtype": {"type": "string"},
                    "stored_in": {"type": "string", "minLength": 1},
                    "rects": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 4,
                                "maxItems": 4,
                            },
                        },
                    },
                },
            },
        },
    },
}


def validate_manifest(doc: dict) -> None:
    """Validate ``doc`` against :data:`MANIFEST_JSON_SCHEMA`.

    Raises :class:`~repro.obs.export.TraceSchemaError` on mismatch.
    """
    from ..obs.export import _validate

    _validate(doc, MANIFEST_JSON_SCHEMA)


def build_manifest(
    ckpt_id: str,
    step: int,
    step_name: str,
    t_virtual_s: float,
    nranks: int,
    state: dict[str, DistMatrix],
    kind: str = "full",
    stored_in: dict[str, str] | None = None,
) -> dict:
    """Assemble the manifest for one checkpoint of ``state``.

    Pure bookkeeping — callable on any rank, but only rank 0 should
    publish the result (every rank sees the same distributions, so the
    manifests would agree anyway).

    A ``"delta"`` manifest still describes *every* carried matrix — its
    shapes and rect lists are always current — but ``stored_in`` maps
    the matrices whose tile payloads were *not* rewritten to the earlier
    checkpoint id that still holds them.  Restart never has to walk the
    manifest chain: each manifest is self-contained, only the payload
    lookup is indirected.  Delta manifests are only ever published on
    the same communicator size as their payload checkpoints (a
    communicator change forces a full snapshot), so the per-old-rank
    rect lists and tile files always agree.
    """
    matrices = {}
    for name in sorted(state):
        mat = state[name]
        rects = {
            str(r): [
                [rect.r0, rect.r1, rect.c0, rect.c1]
                for rect in mat.dist.owned_rects(r)
                if not rect.is_empty()
            ]
            for r in range(mat.dist.nranks)
        }
        matrices[name] = {
            "shape": [int(mat.shape[0]), int(mat.shape[1])],
            "dtype": str(np.dtype(mat.dtype)),
            "rects": rects,
        }
        home = (stored_in or {}).get(name, ckpt_id)
        if home != ckpt_id:
            matrices[name]["stored_in"] = home
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "ckpt_id": ckpt_id,
        "kind": kind,
        "step": int(step),
        "step_name": step_name,
        "t_virtual_s": float(t_virtual_s),
        "nranks": int(nranks),
        "matrices": matrices,
    }
