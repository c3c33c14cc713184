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

What a plan *does* to a run lives here too: a :class:`FaultInjector`
exists only for a world that was given a plan, owns the per-link hit
counters, the held drops and the rank-fault entry counts, and is
consulted by the transport at five seams — a post (perturb, flip,
hold), a receive or probe (what a held drop hides; the timeout-retry
when nothing else matches), the revocation quiescence check, a phase
entry (stall, abort, kill) and a compute advance (slowdown).  The
transport keeps what is core state — the mailboxes, the ``dead`` set,
the message log — and never looks inside a payload.
"""

from __future__ import annotations

import json
import pickle
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .datatypes import Hop, Message
from .errors import InjectedAbortError, RankKilledError, RecvTimeoutError

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
            # the injector calls :meth:`corrupt_elems_for` with hits
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


# ------------------------------------------------- applying a plan -- #
@dataclass
class _Dropped:
    """A message lost on the wire, awaiting receiver-driven retransmits."""

    msg: Message
    flight: float  #: perturbed one-transmission flight time
    drops: int  #: transmissions that must be lost before one succeeds
    t_post: float  #: sender's clock at the original post (causality floor)
    attempts: int = 0  #: retransmit requests made by the receiver so far


def _inexact_arrays(x: Any, out: list[np.ndarray]) -> list[np.ndarray]:
    """The non-empty float/complex arrays of a payload, in a fixed walk
    order.  Only those are corruptible — integer arrays carry control
    decisions (ABFT votes), and flipping them would corrupt the
    corrector rather than the data it guards.  A :class:`Hop` is walked
    as its list of blocks."""
    if isinstance(x, np.ndarray):
        if x.size and np.issubdtype(x.dtype, np.inexact):
            out.append(x)
    elif type(x) is Hop:
        _inexact_arrays(x.blocks, out)
    elif isinstance(x, (list, tuple)):
        for y in x:
            _inexact_arrays(y, out)
    elif isinstance(x, dict):
        for k in x:
            _inexact_arrays(x[k], out)
    return out


class FaultInjector:
    """What a :class:`FaultPlan` does to one world.

    Built by the transport only when ``run_spmd(faults=...)`` was given a
    plan, and called only by whoever owns the world (like the transport
    itself).  It owns the state a plan needs — per-(rule, link) hit
    counters, messages held as dropped, per-rule phase-entry counts —
    and charges what it injects to ``world.ranks``.
    """

    def __init__(self, plan: FaultPlan, world: Any):
        self.plan = plan
        self.world = world  #: the :class:`~repro.mpi.transport.Transport`
        #: whether any rule slows compute (the advance seam's fast test)
        self.slows_compute = any(r.slowdown != 1.0 for r in plan.ranks)
        # per-(rule, src, dst) matched-message counters (fault decisions)
        self._link_hits: dict[tuple, int] = {}
        # held[(ctx, dst_world)] -> messages lost on the wire
        self._held: dict[tuple[int, int], list[_Dropped]] = defaultdict(list)
        # per-rule phase-entry counters for rank faults
        self._phase_entries: dict[int, int] = {}

    def _hit(self, key: tuple) -> int:
        hit = self._link_hits.get(key, 0)
        self._link_hits[key] = hit + 1
        return hit

    # ------------------------------------------------------------ post -- #
    def perturb(
        self, src: int, dst: int, phase: str, t_msg: float, stored: Any
    ) -> tuple[float, int, bool, Any]:
        """Apply matching link-fault rules to one posted message.

        Returns ``(perturbed_flight, drops, injected, stored)`` — the
        returned payload replaces the caller's, because corrupting a
        pickled container produces a *new* blob.  Factors from
        multiple matching rules multiply, extra delays add, and drop
        counts take the max.  Per-(rule, link) hit counters make every
        decision reproducible (one sender per link).  Rules with
        ``corrupt_phase`` draw their corruption decisions from a
        separate per-link hit counter, so adding phase-targeted
        corruption to a plan never shifts the seeded decisions of
        existing rules.
        """
        seed = self.plan.seed
        extra = 0.0
        factor = 1.0
        drops = 0
        flips: list[tuple[int, int, int]] = []
        for idx, rule in enumerate(self.plan.links):  # idx salts the rule's seeds
            if not rule.matches(src, dst, phase):
                continue
            hit = self._hit((idx, src, dst))
            dec = rule.decide(seed, idx, src, dst, hit, t_msg)
            extra += dec.extra_s
            factor *= dec.latency_factor
            drops = max(drops, dec.drops)
            if dec.corrupt_elems > 0:
                flips.append((idx, hit, dec.corrupt_elems))
            if rule.corrupt_phase is not None and phase == rule.corrupt_phase:
                chit = self._hit((idx, src, dst, "corrupt"))
                elems = rule.corrupt_elems_for(seed, idx, src, dst, chit)
                if elems > 0:
                    flips.append((idx, chit, elems))
        corrupted = False
        if flips:
            stored, corrupted = self._flip(src, dst, phase, stored, flips)
        injected = extra > 0.0 or factor != 1.0 or drops > 0 or corrupted
        return t_msg * factor + extra, drops, injected, stored

    def _flip(
        self, src: int, dst: int, phase: str, stored: Any,
        requests: list[tuple[int, int, int]],
    ) -> tuple[Any, bool]:
        """Flip seeded elements of an in-flight payload; ``(payload, hit)``.

        A raw array is flipped in place (``payload_pack`` handed the
        transport a private copy, so the sender's buffer is untouched
        and the receiver sees the corrupted bits, exactly like a
        wire-level flip), and so is a
        :class:`~repro.mpi.datatypes.Hop` — an allgather window of arrays
        or a redistribution batch, whose arrays are private copies too.
        CRC-enveloped batches and other containers of arrays travel as
        pickles: those are unpickled, flipped and re-pickled into a new
        blob.  Either way each flip lands on a
        seeded position of the virtual concatenation of the payload's
        inexact arrays — a raw array is the one-array case — and adds
        ``1 + |v|`` to it: large relative to both the value and float64
        roundoff, hence always detectable by a checksum with a sane
        tolerance.  Payloads without float arrays (ABFT vote ints,
        resend nack bools) are incorruptible by construction.
        """
        obj = stored
        if isinstance(stored, (bytes, bytearray)):
            try:
                obj = pickle.loads(bytes(stored))
            except Exception:
                return stored, False
        arrays = _inexact_arrays(obj, [])
        total = sum(a.size for a in arrays)
        if total == 0:
            return stored, False
        st = self.world.ranks[src]
        for idx, hit, elems in requests:
            for e in range(elems):
                pos = int(_mix(self.plan.seed, idx, 5, src, dst, hit, e) * total) % total
                for a in arrays:
                    if pos < a.size:
                        val = a.flat[pos]
                        a.flat[pos] = val + (1.0 + abs(val))
                        break
                    pos -= a.size
            st.corruptions_injected += 1
            by_phase = st.corruptions_injected_by_phase
            by_phase[phase] = by_phase.get(phase, 0) + 1
        if obj is not stored:
            stored = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return stored, True

    def hold(self, msg: Message, flight: float, drops: int, t_post: float) -> None:
        """Keep a message lost on the wire out of its mailbox until the
        receiver has timed out ``drops`` times.  The sender is oblivious
        — its clock and counters were charged as usual."""
        self._held[(msg.ctx, msg.dst_world)].append(
            _Dropped(msg=msg, flight=flight, drops=drops, t_post=t_post)
        )

    # ------------------------------------------------- receive / probe -- #
    def held(self, ctx: int, dst: int, src: int, tag: int) -> dict[int, _Dropped] | None:
        """Per sender, the lowest-seq held drop a ``(src, tag)`` receive
        on ``dst`` matches; ``None`` when there is none.

        The one scan both consumers read.  It caps mailbox selection: a
        drop from sender A must not be overtaken by A's later messages
        (non-overtaking is a *per-pair* property; it says nothing about
        sender B).  And it is what the receive times out against when
        nothing else matches (:meth:`retry`).
        """
        held = self._held.get((ctx, dst))
        if not held:
            return None
        lowest: dict[int, _Dropped] = {}
        for d in held:
            if d.msg.matches(src, tag):
                cur = lowest.get(d.msg.src_world)
                if cur is None or d.msg.seq < cur.msg.seq:
                    lowest[d.msg.src_world] = d
        return lowest or None

    def retry(self, lowest: dict[int, _Dropped]) -> None:
        """Charge one recv timeout against a held drop of :meth:`held` and
        either request a retransmit or raise :class:`RecvTimeoutError`.

        Across senders the drop whose original arrival would have been
        earliest is the one timed out against, with the sender rank as
        tie-break — virtual-time ordering, never the order the drops
        were registered in.  The timeout is a *simulated-time*
        construct: it fires as soon as the transport can prove the
        awaited message was dropped, and the wait it models
        (``timeout_s * backoff**(n-1)``) is charged to the receiver's
        simulated clock as an ``injected=True`` wait.
        """
        d = min(lowest.values(), key=lambda d: (d.msg.arrival, d.msg.src_world))
        world, msg, policy = self.world, d.msg, self.plan.retry
        dst = msg.dst_world
        st = world.ranks[dst]
        d.attempts += 1
        wait_s = policy.nth_timeout_s(d.attempts)
        st.timeouts += 1
        st.injected_wait_s += wait_s
        world.advance(
            dst, wait_s, "comm",
            event_kind="wait", peer=msg.src_world, seq=msg.seq, injected=True,
        )
        world.progress += 1
        if d.attempts > policy.max_retries:
            waited = sum(policy.nth_timeout_s(i) for i in range(1, d.attempts + 1))
            raise RecvTimeoutError(dst, msg.src_world, msg.tag, d.attempts, waited)
        st.retries += 1
        if d.attempts >= d.drops:
            # Retransmit succeeds: receiver-driven resend arrives one
            # flight after the request.  It leaves no earlier than the
            # receiver's request *and* no earlier than the original
            # post: a receiver whose timeouts all fired before the
            # sender even posted (e.g. the sender straggling under a
            # slowdown fault) must not receive a message from the future.
            self._held[(msg.ctx, dst)].remove(d)
            msg.arrival = max(st.clock, d.t_post) + d.flight
            world.redeliver(msg)

    # ----------------------------------------- phase entry and compute -- #
    def enter_phase(self, rank: int, name: str) -> None:
        """Fire matching :class:`RankFault` rules on phase entry (stall
        windows, scripted aborts and kills; slowdown factors are applied
        per compute advance by :meth:`slow_compute`)."""
        for idx, rule in enumerate(self.plan.ranks):
            if not rule.matches_phase(rank, name):
                continue
            count = self._phase_entries.get(idx, 0) + 1
            self._phase_entries[idx] = count
            if rule.occurrence not in (0, count):  # 0: every matching entry
                continue
            if rule.stall_s > 0.0:
                self.world.ranks[rank].injected_wait_s += rule.stall_s
                self.world.advance(
                    rank, rule.stall_s, "comm", event_kind="wait", injected=True
                )
            if rule.abort:
                raise InjectedAbortError(rank, name, count)
            if rule.kill:
                # Permanent death, not a world abort: peers learn of it
                # from the transport; this rank's strand unwinds with
                # the typed kill error.
                self.world.mark_dead(rank)
                raise RankKilledError(rank, name, count)

    def slow_compute(self, rank: int, dt: float) -> tuple[float, bool]:
        """A compute interval stretched by the slowdown rules matching the
        rank's phase, the excess charged as injected wait;
        ``(interval, whether a rule applied)``."""
        st = self.world.ranks[rank]
        factor = 1.0
        for rule in self.plan.ranks:
            if rule.slowdown != 1.0 and rule.matches_phase(rank, st.phase):
                factor *= rule.slowdown
        if factor == 1.0:
            return dt, False
        st.injected_wait_s += dt * factor - dt
        return dt * factor, True


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
