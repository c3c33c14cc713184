"""Every redistribution, pinned byte for byte against a recorded oracle.

One sha256 per case over every rank's output — its destination rects,
each tile's dtype and bytes — and every message the conversion put on
the wire, ``(src, dst, tag, nbytes, t_post, arrival)`` from the tracer's
``msglog``.  A refused case hashes the error's type and text and how
many messages the world had posted when it was refused.

The cases: every pair of ``_LAYOUTS`` kinds of
``test_redistribute_property.py``, each with and without ``transpose``,
``conjugate`` and ``verify``, in float32, float64 and complex128, at
P = 1, 3, 7, 16 and 64 (the eight flag combinations of one pair share a
run, one phase each); ``Explicit`` layouts shaped like ``ft.recovery``'s
(a survivor holding its dead neighbour's rects, a layout compacted to
some k ranges) converted to and from block layouts; and every malformed
source of ``_MALFORMED`` and one that miscounts, with and without ``verify``.
``redistribute_digests.json`` was recorded with :func:`digests`;
re-record only for a change that means to move what a redistribution
sends or returns, with::

    PYTHONPATH=src:. python -c "from tests.layout.test_redistribute_identity \
import record; record()"
"""

from __future__ import annotations

import hashlib
import itertools
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.ft.recovery import _compacted_layout, _survivor_layout
from repro.layout.blocks import Rect
from repro.layout.distributions import Block2D, BlockCol1D, BlockRow1D, Explicit
from repro.layout.matrix import DistMatrix, dense_random
from repro.layout.redistribute import redistribute
from repro.machine.model import laptop
from repro.mpi import run_spmd
from tests.layout.test_redistribute_property import _LAYOUTS

DIGESTS = Path(__file__).with_name("redistribute_digests.json")

SHAPE = (24, 20)
DTYPES = ("float32", "float64", "complex128")
FLAGS = list(itertools.product((False, True), repeat=3))  # transpose, conjugate, verify


def _values(shape: tuple[int, int], dtype: str, seed: int) -> np.ndarray:
    ref = dense_random(*shape, seed, np.complex128 if dtype == "complex128" else np.float64)
    return ref.astype(dtype)


def _phase(transpose: bool, conjugate: bool, verify: bool) -> str:
    return f"t{int(transpose)}c{int(conjugate)}v{int(verify)}"


def _pair(src_kind: str, dst_kind: str, p: int, dtype: str):
    """One run: the eight flag combinations of converting ``src_kind`` to
    ``dst_kind``, each in a phase of its own."""
    rng = np.random.default_rng(zlib.crc32(f"{src_kind}/{dst_kind}/{p}".encode()))
    src = _LAYOUTS[src_kind](rng, SHAPE, p)
    dsts = {t: _LAYOUTS[dst_kind](rng, SHAPE[::-1] if t else SHAPE, p) for t in (False, True)}
    ref = _values(SHAPE, dtype, p)

    def body(comm):
        x = DistMatrix.from_global(comm, src, ref)
        out = {}
        for t, c, v in FLAGS:
            y = redistribute(x, dsts[t], transpose=t, phase=_phase(t, c, v),
                             conjugate=c, verify=v)
            out[_phase(t, c, v)] = y
        return out

    return p, body


def _recovery(kind: str):
    """``ft.recovery``'s layouts: rank 3 of a 2x4 ``Block2D`` dies and its
    right neighbour holds its rects too; or a 3x2 ``Block2D`` compacted to
    two k ranges along each axis.  Converted to a block layout and back."""
    if kind == "survivor":
        old = Block2D((24, 20), 8, 2, 4)
        layout, _buddy, _dead = _survivor_layout(old, tuple(range(8)), (0, 1, 2, 4, 5, 6, 7), 0)
        p, other = 7, BlockCol1D((24, 20), 7)
    else:
        axis = int(kind[-1])
        layout = _compacted_layout(Block2D((24, 20), 6, 3, 2), ((1, 7), (11, 19)), axis)
        p, other = 6, BlockRow1D(layout.shape, 6)
    ref = _values(layout.shape, "float64", 11)

    def body(comm):
        x = DistMatrix.from_global(comm, layout, ref)
        y = redistribute(x, other, phase="there")
        return {"there": y, "back": redistribute(y, layout, phase="back")}

    return p, body


def _malformed(source: str, verify: bool):
    """``_MALFORMED``'s sources converted to 1D columns on two ranks."""
    def explicit(*rects):
        return Explicit.from_mapping((8, 4), 2, dict(enumerate(rects)))

    top, bottom = Rect(0, 4, 0, 4), Rect(4, 8, 0, 4)
    layouts = {
        "holes": lambda rank: explicit([top], [Rect(5, 8, 0, 4)]),
        "overlap": lambda rank: explicit([top], [Rect(3, 8, 0, 4)]),
        "both": lambda rank: explicit([top, Rect(0, 1, 0, 4)], [Rect(5, 8, 0, 4)]),
        "disagree": lambda rank: explicit([top], [bottom]) if rank == 0 else explicit(
            [Rect(0, 3, 0, 4)], [Rect(3, 8, 0, 4)]),
        # Rank 1 expects two pieces from rank 0, which cuts one.
        "miscounted": lambda rank: explicit([top], [bottom]) if rank == 0 else explicit(
            [Rect(0, 2, 0, 4), Rect(2, 4, 0, 4)], [bottom]),
    }

    def body(comm):
        layout = layouts[source](comm.rank)
        x = DistMatrix(comm, layout, [np.ones(r.shape) for r in layout.owned_rects(comm.rank)])
        redistribute(x, BlockCol1D((8, 4), 2), verify=verify)

    return 2, body


def _cases() -> dict:
    """key -> (the run's set-up function, its arguments, the phases hashed
    as a case each; ``None`` for a refusal, hashed as the case ``key``)."""
    cases = {}
    pair_phases = [_phase(*flags) for flags in FLAGS]
    for src_kind, dst_kind in itertools.product(sorted(_LAYOUTS), repeat=2):
        for p in (1, 3, 7, 16, 64):
            for dtype in DTYPES:
                cases[f"pair/{src_kind}/{dst_kind}/P{p}/{dtype}"] = (
                    _pair, (src_kind, dst_kind, p, dtype), pair_phases)
    for kind in ("survivor", "compacted/0", "compacted/1"):
        cases[f"recovery/{kind}"] = (_recovery, (kind,), ["there", "back"])
    for source in ("holes", "overlap", "both", "disagree", "miscounted"):
        for verify in (False, True):
            cases[f"malformed/{source}/{'verify' if verify else 'plain'}"] = (
                _malformed, (source, verify), None)
    return cases


def _names(key: str) -> list[str]:
    phases = CASES[key][2]
    return [key] if phases is None else [f"{key}/{phase}" for phase in phases]


CASES = _cases()


def digests(key: str) -> dict[str, str]:
    """``{case: sha256}`` of one run: a case per phase, or the refusal."""
    build, args, phases = CASES[key]
    p, body = build(*args)
    world = []

    def rank_body(comm):
        world.append(comm.transport)
        return body(comm)

    try:
        result = run_spmd(p, rank_body, machine=laptop(), record_events=True)
    except RuntimeError as exc:
        assert phases is None, exc
        posted = sum(st.msgs_sent for st in world[0].ranks)
        cause = exc.__cause__
        text = f"{type(cause).__name__}: {cause} / posted {posted}"
        return {key: hashlib.sha256(text.encode()).hexdigest()}
    assert phases is not None, "not refused"
    out = {}
    for phase in phases:
        h = hashlib.sha256()
        for per_rank in result.results:
            y = per_rank[phase]
            for rect, tile in zip(y.owned_rects, y.tiles):
                h.update(repr((rect, tile.dtype.str, tile.shape)).encode())
                h.update(np.ascontiguousarray(tile).tobytes())
        for rec in result.tracer.msglog:
            if rec.phase == phase:
                h.update(repr((rec.src, rec.dst, rec.tag, rec.nbytes,
                               rec.t_post, rec.arrival)).encode())
        out[f"{key}/{phase}"] = h.hexdigest()
    return out


def record() -> None:
    table = {}
    for key in CASES:
        table.update(digests(key))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded_and_nothing_else():
    assert sorted(RECORDED) == sorted(name for key in CASES for name in _names(key))


@pytest.mark.parametrize("key", sorted(CASES))
def test_every_redistribution_sends_and_returns_what_it_did(key):
    assert digests(key) == {name: RECORDED.get(name) for name in _names(key)}
