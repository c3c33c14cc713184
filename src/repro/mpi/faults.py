"""Deterministic fault injection for the virtual transport.

The simulator's network is perfect by default: every ``recv`` eventually
matches, no message is delayed, dropped, or reordered, and a stuck rank
ends the whole run in a :class:`~repro.mpi.errors.DeadlockError`.  Real distributed GEMM
stacks must survive jitter, stragglers, and failed transfers; this
module lets an experiment *inject* those conditions deterministically,
so the critical-path profiler (:mod:`repro.obs.critpath`) can measure
exactly how a CA3DMM schedule degrades under each one.

A :class:`FaultPlan` is a seeded, JSON-serializable description of what
goes wrong:

* :class:`LinkFault` rules perturb messages on matching ``src -> dst``
  links (optionally only while the sender is inside a named phase):
  latency inflation (``latency_factor``), seeded jitter (``jitter_s``),
  bounded wire-level reordering (``reorder_window`` — arrival times may
  invert by up to ``window`` flight times; MPI matching order is
  preserved, as on a real reliable transport), drop-with-resend
  (``drop_at`` / ``drop_every`` / ``drop_prob``, each lost
  ``drop_repeat`` times before a retransmit gets through), and silent
  payload corruption (``corrupt_at`` / ``corrupt_prob`` — seeded
  element flips on matching in-flight *array* payloads, the fault model
  the ABFT checksums of :mod:`repro.ft.abft` exist to catch).
* :class:`RankFault` rules perturb ranks: a stall window injected at
  the Nth entry to a named phase (``stall_s``), a compute slowdown
  factor while inside a phase (``slowdown`` — a straggler), a fatal
  scripted abort (``abort=True``), or a *permanent death*
  (``kill=True`` — the rank is marked dead instead of aborting the
  world, enabling ULFM-style survivor recovery; see
  ``docs/RECOVERY.md``).
* a :class:`RetryPolicy` giving the receive-side timeout/retry/backoff
  semantics: a receiver blocked on a *dropped* message times out after
  ``timeout_s`` simulated seconds, requests a retransmit (counted on
  :class:`~repro.mpi.transport.RankTrace` and in
  ``SpmdResult.metrics``), and backs off geometrically; when
  ``max_retries`` is exhausted the receiver raises a typed
  :class:`~repro.mpi.errors.RecvTimeoutError` and the runtime aborts
  every live rank with :class:`~repro.mpi.errors.AbortError` instead
  of hanging.

Determinism: every decision is a pure function of ``(plan.seed, rule
index, src, dst, per-link match counter)``.  Messages on one link are
posted by a single sender thread in program order, so the per-link
counters — and therefore every injected fault — are identical on every
run regardless of thread scheduling.  Timeouts are *simulated-time*
constructs: they fire when the transport can prove the awaited message
was dropped, never from wall-clock racing, so faulted runs stay exactly
reproducible.  (A message that was simply never sent is still a
deadlock, not a timeout — the scheduler keeps that job.)

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`, schema :data:`FAULTPLAN_JSON_SCHEMA`) so
the same fault scenario can be replayed from the ``repro faults`` /
``repro recover`` CLI (``--plan``) and CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Wildcard rank for link-fault endpoints.
ANY_RANK: int = -1


def _mix(*parts: int) -> float:
    """Deterministic splitmix64-style hash of integers onto [0, 1).

    Independent of ``PYTHONHASHSEED`` and thread scheduling — the whole
    fault layer's reproducibility rests on this.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p & 0xFFFFFFFFFFFFFFFF) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        h = (h ^ (h >> 30)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return (h >> 11) / float(1 << 53)


@dataclass(frozen=True)
class LinkDecision:
    """The combined perturbation applied to one posted message."""

    extra_s: float = 0.0  #: additive delay (jitter + reorder slots)
    latency_factor: float = 1.0  #: multiplier on the nominal flight time
    drops: int = 0  #: transmissions lost before a retransmit succeeds
    corrupt_elems: int = 0  #: array elements to flip in the payload (ABFT)

    @property
    def perturbed(self) -> bool:
        return (
            self.extra_s > 0.0
            or self.latency_factor != 1.0
            or self.drops > 0
            or self.corrupt_elems > 0
        )


@dataclass(frozen=True)
class LinkFault:
    """One per-link perturbation rule.

    ``src``/``dst`` are world ranks (:data:`ANY_RANK` matches all);
    ``phase`` restricts the rule to messages posted while the sender is
    inside that phase.  Drop selectors index the rule's *matched*
    messages per link, 0-based, in post order (deterministic: one
    sender thread per link).

    ``corrupt_phase`` restricts *corruption only* to messages posted
    inside that phase: latency/jitter/drop effects keep following
    ``phase``, while the corrupt selectors are evaluated against a
    separate per-link hit counter that counts only ``corrupt_phase``
    messages.  That makes ``corrupt_at=(0,)`` mean "the first message
    this link sends in that stage", regardless of how much earlier
    traffic the link carried.
    """

    src: int = ANY_RANK
    dst: int = ANY_RANK
    phase: str | None = None
    latency_factor: float = 1.0
    jitter_s: float = 0.0
    reorder_window: int = 0
    drop_at: tuple[int, ...] = ()
    drop_every: int = 0
    drop_prob: float = 0.0
    drop_repeat: int = 1
    corrupt_at: tuple[int, ...] = ()
    corrupt_prob: float = 0.0
    corrupt_elems: int = 1
    corrupt_phase: str | None = None

    def __post_init__(self) -> None:
        if self.latency_factor < 0:
            raise ValueError("latency_factor must be >= 0")
        if self.jitter_s < 0:
            raise ValueError("jitter_s must be >= 0")
        if self.reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        if self.drop_repeat < 1:
            raise ValueError("drop_repeat must be >= 1")
        if any(i < 0 for i in self.drop_at):
            raise ValueError("drop_at indices must be >= 0")
        if any(i < 0 for i in self.corrupt_at):
            raise ValueError("corrupt_at indices must be >= 0")
        if not 0.0 <= self.corrupt_prob <= 1.0:
            raise ValueError("corrupt_prob must be in [0, 1]")
        if self.corrupt_elems < 1:
            raise ValueError("corrupt_elems must be >= 1")
        if (
            self.corrupt_phase is not None
            and self.phase is not None
            and self.phase != self.corrupt_phase
        ):
            raise ValueError(
                "corrupt_phase must equal phase (or leave phase unset): "
                f"phase={self.phase!r} corrupt_phase={self.corrupt_phase!r}"
            )
        object.__setattr__(self, "drop_at", tuple(self.drop_at))
        object.__setattr__(self, "corrupt_at", tuple(self.corrupt_at))

    def matches(self, src: int, dst: int, phase: str) -> bool:
        if self.src != ANY_RANK and self.src != src:
            return False
        if self.dst != ANY_RANK and self.dst != dst:
            return False
        return self.phase is None or self.phase == phase

    def decide(
        self, seed: int, salt: int, src: int, dst: int, hit: int, flight_s: float
    ) -> LinkDecision:
        """The perturbation for the ``hit``-th matched message on a link."""
        extra = 0.0
        if self.jitter_s > 0.0:
            extra += self.jitter_s * _mix(seed, salt, 1, src, dst, hit)
        if self.reorder_window > 0:
            # Up to `window` extra flights of delay: a later message on
            # the link can arrive first (bounded arrival inversion).
            slot = int(
                _mix(seed, salt, 2, src, dst, hit) * (self.reorder_window + 1)
            )
            extra += slot * max(flight_s, 0.0)
        dropped = hit in self.drop_at
        if not dropped and self.drop_every > 0:
            dropped = hit % self.drop_every == self.drop_every - 1
        if not dropped and self.drop_prob > 0.0:
            dropped = _mix(seed, salt, 3, src, dst, hit) < self.drop_prob
        if self.corrupt_phase is not None:
            # Phase-targeted corruption runs off its own hit counter:
            # the transport calls :meth:`corrupt_elems_for` with hits
            # counted only inside ``corrupt_phase``.
            elems = 0
        else:
            elems = self.corrupt_elems_for(seed, salt, src, dst, hit)
        return LinkDecision(
            extra_s=extra,
            latency_factor=self.latency_factor,
            drops=self.drop_repeat if dropped else 0,
            corrupt_elems=elems,
        )

    def corrupt_elems_for(
        self, seed: int, salt: int, src: int, dst: int, hit: int
    ) -> int:
        """Elements to flip for the ``hit``-th corruption-eligible message."""
        corrupted = hit in self.corrupt_at
        if not corrupted and self.corrupt_prob > 0.0:
            corrupted = _mix(seed, salt, 4, src, dst, hit) < self.corrupt_prob
        return self.corrupt_elems if corrupted else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "phase": self.phase,
            "latency_factor": self.latency_factor,
            "jitter_s": self.jitter_s,
            "reorder_window": self.reorder_window,
            "drop_at": list(self.drop_at),
            "drop_every": self.drop_every,
            "drop_prob": self.drop_prob,
            "drop_repeat": self.drop_repeat,
            "corrupt_at": list(self.corrupt_at),
            "corrupt_prob": self.corrupt_prob,
            "corrupt_elems": self.corrupt_elems,
            "corrupt_phase": self.corrupt_phase,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "LinkFault":
        return cls(
            src=int(doc.get("src", ANY_RANK)),
            dst=int(doc.get("dst", ANY_RANK)),
            phase=doc.get("phase"),
            latency_factor=float(doc.get("latency_factor", 1.0)),
            jitter_s=float(doc.get("jitter_s", 0.0)),
            reorder_window=int(doc.get("reorder_window", 0)),
            drop_at=tuple(int(i) for i in doc.get("drop_at", ())),
            drop_every=int(doc.get("drop_every", 0)),
            drop_prob=float(doc.get("drop_prob", 0.0)),
            drop_repeat=int(doc.get("drop_repeat", 1)),
            corrupt_at=tuple(int(i) for i in doc.get("corrupt_at", ())),
            corrupt_prob=float(doc.get("corrupt_prob", 0.0)),
            corrupt_elems=int(doc.get("corrupt_elems", 1)),
            corrupt_phase=doc.get("corrupt_phase"),
        )


@dataclass(frozen=True)
class RankFault:
    """One per-rank perturbation rule.

    Stalls and aborts trigger when ``rank`` enters a phase matching
    ``phase`` (``None`` matches every phase) for the ``occurrence``-th
    time (1-based; 0 triggers on every matching entry).  ``slowdown``
    multiplies the rank's compute time while inside a matching phase.
    """

    rank: int
    phase: str | None = None
    occurrence: int = 1
    stall_s: float = 0.0
    slowdown: float = 1.0
    abort: bool = False
    kill: bool = False

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank faults need an explicit rank")
        if self.occurrence < 0:
            raise ValueError("occurrence must be >= 0")
        if self.stall_s < 0:
            raise ValueError("stall_s must be >= 0")
        if self.slowdown < 0:
            raise ValueError("slowdown must be >= 0")
        if self.abort and self.kill:
            raise ValueError("abort and kill are mutually exclusive")

    def matches_phase(self, rank: int, phase: str) -> bool:
        return rank == self.rank and (self.phase is None or self.phase == phase)

    def triggers(self, rank: int, phase: str, entry_count: int) -> bool:
        """Whether entering ``phase`` for the ``entry_count``-th time fires."""
        if not self.matches_phase(rank, phase):
            return False
        return self.occurrence == 0 or entry_count == self.occurrence

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "phase": self.phase,
            "occurrence": self.occurrence,
            "stall_s": self.stall_s,
            "slowdown": self.slowdown,
            "abort": self.abort,
            "kill": self.kill,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RankFault":
        return cls(
            rank=int(doc["rank"]),
            phase=doc.get("phase"),
            occurrence=int(doc.get("occurrence", 1)),
            stall_s=float(doc.get("stall_s", 0.0)),
            slowdown=float(doc.get("slowdown", 1.0)),
            abort=bool(doc.get("abort", False)),
            kill=bool(doc.get("kill", False)),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Receive-side timeout/retry/backoff semantics under a fault plan.

    A receiver blocked on a message the transport knows was dropped
    waits ``timeout_s`` simulated seconds, then requests a retransmit;
    the ``n``-th timeout waits ``timeout_s * backoff**(n-1)``.  After
    ``max_retries`` timeouts the next one raises
    :class:`~repro.mpi.errors.RecvTimeoutError` (``max_retries=0``
    disables retries: the first timeout is fatal).
    """

    timeout_s: float = 1e-3
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")

    def nth_timeout_s(self, attempt: int) -> float:
        """Simulated wait before retransmit request ``attempt`` (1-based)."""
        return self.timeout_s * self.backoff ** (attempt - 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RetryPolicy":
        return cls(
            timeout_s=float(doc.get("timeout_s", 1e-3)),
            max_retries=int(doc.get("max_retries", 3)),
            backoff=float(doc.get("backoff", 2.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable description of everything that goes wrong."""

    seed: int = 0
    links: tuple[LinkFault, ...] = ()
    ranks: tuple[RankFault, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "ranks", tuple(self.ranks))

    # -------------------------------------------------------- decisions -- #
    def link_rules(self, src: int, dst: int, phase: str):
        """Indexed rules matching one posted message (salt, rule) pairs."""
        return [
            (i, r) for i, r in enumerate(self.links) if r.matches(src, dst, phase)
        ]

    def compute_factor(self, rank: int, phase: str) -> float:
        """Combined compute-slowdown multiplier for ``rank`` in ``phase``."""
        f = 1.0
        for r in self.ranks:
            if r.slowdown != 1.0 and r.matches_phase(rank, phase):
                f *= r.slowdown
        return f

    @property
    def has_compute_faults(self) -> bool:
        return any(r.slowdown != 1.0 for r in self.ranks)

    # ---------------------------------------------------- serialization -- #
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "seed": self.seed,
            "links": [r.to_dict() for r in self.links],
            "ranks": [r.to_dict() for r in self.ranks],
            "retry": self.retry.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        validate_fault_plan(doc)
        return cls(
            seed=int(doc.get("seed", 0)),
            links=tuple(LinkFault.from_dict(d) for d in doc.get("links", ())),
            ranks=tuple(RankFault.from_dict(d) for d in doc.get("ranks", ())),
            retry=RetryPolicy.from_dict(doc.get("retry", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())


FAULTPLAN_JSON_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "fault-injection plan",
    "type": "object",
    "required": ["schema_version", "seed"],
    "properties": {
        "schema_version": {"const": 1},
        "seed": {"type": "integer"},
        "links": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "src": {"type": "integer", "minimum": -1},
                    "dst": {"type": "integer", "minimum": -1},
                    "phase": {"type": ["string", "null"]},
                    "latency_factor": {"type": "number", "minimum": 0},
                    "jitter_s": {"type": "number", "minimum": 0},
                    "reorder_window": {"type": "integer", "minimum": 0},
                    "drop_at": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "drop_every": {"type": "integer", "minimum": 0},
                    "drop_prob": {"type": "number", "minimum": 0, "maximum": 1},
                    "drop_repeat": {"type": "integer", "minimum": 1},
                    "corrupt_at": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "corrupt_prob": {"type": "number", "minimum": 0, "maximum": 1},
                    "corrupt_elems": {"type": "integer", "minimum": 1},
                    "corrupt_phase": {"type": ["string", "null"]},
                },
            },
        },
        "ranks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rank"],
                "properties": {
                    "rank": {"type": "integer", "minimum": 0},
                    "phase": {"type": ["string", "null"]},
                    "occurrence": {"type": "integer", "minimum": 0},
                    "stall_s": {"type": "number", "minimum": 0},
                    "slowdown": {"type": "number", "minimum": 0},
                    "abort": {"type": "boolean"},
                    "kill": {"type": "boolean"},
                },
            },
        },
        "retry": {
            "type": "object",
            "properties": {
                "timeout_s": {"type": "number", "exclusiveMinimum": 0},
                "max_retries": {"type": "integer", "minimum": 0},
                "backoff": {"type": "number", "minimum": 1},
            },
        },
    },
}


def validate_fault_plan(doc: Any) -> None:
    """Raise ``TraceSchemaError`` unless ``doc`` is a valid plan document."""
    from ..obs.export import _validate

    _validate(doc, FAULTPLAN_JSON_SCHEMA)
