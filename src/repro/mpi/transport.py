"""The shared transport behind a virtual MPI world.

Every rank in a world is a strand of the discrete-event scheduler
(:mod:`repro.mpi.des`); the transport is the single shared object they
communicate through.  It provides:

* eager point-to-point delivery with MPI matching semantics
  (``(source, tag)`` with wildcards, non-overtaking order per pair),
* per-rank simulated clocks driven by a :class:`~repro.machine.model.MachineModel`
  (a message arrives at ``sender_clock_at_send + α + β·nbytes``; a receive
  completes at ``max(receiver_clock, arrival)``),
* per-rank, per-phase traffic counters (bytes/messages sent and received,
  simulated time) used to reproduce the paper's communication-volume and
  runtime-breakdown results from *executed* traffic, plus per-phase,
  per-collective-algorithm counters (``RankTrace.colls``: binomial vs
  scatter+allgather bcast, Bruck allgather, pairwise reduce-scatter,
  raw Cannon/redistribution ``p2p``) that the communication audit
  (:mod:`repro.obs.audit`) reads bytes-on-the-wire from,
* tagged resident-memory watermarks (:meth:`Transport.mem`), part
  of every rank summary whether or not anything is recorded,
* the ULFM-style failure surface (``dead``, ``revoke``, ``agree``), and
* the progress counter the scheduler's probe-poll livelock check
  samples.

Messages, clocks and counters — what a run records beyond them is not
here.  A recorded world builds one :class:`~repro.obs.tracer.Tracer`
(``self.tracer``; ``None`` otherwise), which owns the interval, message
and memory logs and the spans; each recording site below tests
``self.tracer is not None`` and makes one call.  Nor is what a
:class:`~repro.mpi.faults.FaultPlan` does to a run.  A world
given a plan builds one :class:`~repro.mpi.faults.FaultInjector` and
consults it at five seams: a post (perturb, corrupt, hold), a receive or
probe (what a held drop hides; the timeout-retry when nothing else
matches), the revocation quiescence check, a phase entry (stall, abort,
kill) and a compute advance (slowdown).  A world without a plan tests
``self.injector is not None`` there and makes no call.  The transport
never looks inside a payload; intervals and messages a plan touched are
tagged ``injected=True`` so the critical-path analyzer can tell injected
waits from organic ones.

There is no lock here.  Every method is called by whoever owns the
world — the running strand, or the driver while no strand runs — and
the owner holds the scheduler's world lock (:mod:`repro.mpi.des`, the
one place that rule lives).  Blocking is the scheduler's job too: a rank
that must wait is parked on its strand, and precise wake hooks ready
exactly the ranks an operation could unblock.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..machine.model import MachineModel
from ..obs.tracer import CAT_PHASE, Tracer
from .datatypes import ANY_SOURCE, ANY_TAG, Message
from .des import DesScheduler
from .errors import AbortError, CommRevokedError, RankFailedError
from .faults import FaultInjector, FaultPlan

#: Phase label used when no explicit phase is active.
DEFAULT_PHASE = "other"

#: Collective label used for raw point-to-point traffic (Cannon skew and
#: shift rounds, redistribution sends) posted outside any collective call.
DEFAULT_COLL = "p2p"

#: Memory-span purpose charged for transport packed-copy buffers: the
#: private payload copy a send hands the transport.  Charged transiently
#: sender-side inside ``post_send`` — the owning rank's program order —
#: so every watermark is a function of that rank's program alone.  There is no
#: receiver-side charge: at receipt the payload becomes engine-owned and
#: the engine's own spans (``cannon.dblbuf``, ``redist.tiles``, ...)
#: account for it.
MEM_INFLIGHT = "transport.inflight"


@dataclass
class CollStats:
    """Traffic attributed to one collective algorithm within one phase.

    Unlike :class:`PhaseStats` there is no time here: simulated seconds
    belong to phases (collectives overlap and nest), while bytes and
    messages are owned by exactly one collective algorithm — the
    *outermost* collective call active at post time, so the scatter and
    allgather inside a long broadcast account to the broadcast.
    """

    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0


@dataclass
class PhaseStats:
    """Traffic and simulated time attributed to one phase on one rank.

    ``comm_time`` is *exposed* communication: simulated seconds the rank
    clock actually spent blocked on transfers.  ``comm_covered_time`` is
    communication the async comm engine hid under concurrent compute —
    it is **not** part of ``time`` (the wall-clock identity
    ``time ≈ comm_time + compute_time`` still holds); it measures how
    much transfer time was paid on the comm timeline but never surfaced
    on the rank clock.  It stays exactly 0.0 under ``overlap="none"``.
    """

    time: float = 0.0
    comm_time: float = 0.0
    compute_time: float = 0.0
    comm_covered_time: float = 0.0
    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0


@dataclass
class RankTrace:
    """One rank's counters: declared here, once.

    The transport charges a live record per rank (:class:`RankState`,
    these fields plus the scheduling ones) and :meth:`Transport.trace`
    returns the driver an independent copy of exactly these fields, so
    a new counter is one line in this class.
    """

    rank: int
    time: float = 0.0  #: the rank's clock, stamped by :meth:`Transport.trace`
    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    #: per-phase, per-collective-algorithm traffic: phase -> label -> stats.
    colls: dict[str, dict[str, CollStats]] = field(default_factory=dict)
    resident_peak_bytes: int = 0  #: measured resident watermark (memtrace)
    resident_bytes: int = 0  #: tracked bytes currently live
    #: per-purpose high-water marks of that purpose's live bytes
    mem_peaks: dict[str, int] = field(default_factory=dict)
    #: live tracked bytes per purpose tag (``tile.a``, ``cannon.dblbuf``,
    #: ...); a snapshot keeps only the non-zero ones (leak detector)
    mem_live: dict[str, int] = field(default_factory=dict)
    #: per-phase high-water marks of total resident bytes
    phase_mem_peaks: dict[str, int] = field(default_factory=dict)
    retries: int = 0  #: retransmits requested for dropped messages
    timeouts: int = 0  #: recv timeouts charged (== retries unless fatal)
    injected_wait_s: float = 0.0  #: simulated seconds added by injected faults
    corruptions_injected: int = 0  #: corrupt-rule firings on this rank's sends
    corruptions_detected: int = 0  #: ABFT checksum mismatches this rank caught
    #: per-phase breakdown of ``corruptions_injected`` (sender's phase at post)
    corruptions_injected_by_phase: dict[str, int] = field(default_factory=dict)
    #: per-phase breakdown of ``corruptions_detected`` (detection site)
    corruptions_detected_by_phase: dict[str, int] = field(default_factory=dict)
    recomputed_flops: float = 0.0  #: flops re-executed for ABFT correction
    reused_flops: float = 0.0  #: flops avoided by reusing retained partials
    recoveries: int = 0  #: shrink-replan recovery rounds this rank survived


@dataclass
class RankState(RankTrace):
    """A rank's live counters plus the transport's scheduling fields."""

    clock: float = 0.0
    phase_stack: list[str] = field(default_factory=list)
    phase: str = DEFAULT_PHASE  #: top of ``phase_stack``
    coll_stack: list[str] = field(default_factory=list)  #: active collective calls
    coll: str = DEFAULT_COLL  #: bottom of ``coll_stack``: the outermost label wins
    #: where charges go now: ``phases[phase]`` and ``colls[phase][coll]``.
    #: Dropped when a phase or collective is pushed or popped; the next
    #: charge points them again (a phase never charged gets no entry).
    cur_ps: PhaseStats | None = None
    cur_cs: CollStats | None = None
    #: structured wait state, consulted by the revocation quiescence
    #: check: ``(ctx, src, tag)`` while blocked in :meth:`Transport.match_recv`.
    recv_wait: tuple[int, int, int] | None = None
    agree_wait: Any = None  #: the rendezvous key while blocked in an agree
    # -- async comm engine (overlap != "none") ------------------------- #
    async_depth: int = 0  #: nesting depth of open begin_async regions
    comm_clock: float = 0.0  #: comm-timeline clock while inside a region
    comm_engine_free: float = 0.0  #: when the engine last drained (partial)
    nic_free: float = 0.0  #: when this rank's NIC stream frees (partial)

    @property
    def waiting_on(self) -> str | None:
        """What the rank is blocked in (:class:`DeadlockError` detail)."""
        if self.recv_wait is not None:
            ctx, src, tag = self.recv_wait
            return f"recv(src={src}, tag={tag}, ctx={ctx})"
        if self.agree_wait is not None:
            return f"agree(key={self.agree_wait})"
        return None

    def phase_stats(self) -> PhaseStats:
        """Point ``cur_ps`` at the current phase's entry, creating it."""
        ps = self.cur_ps = self.phases.setdefault(self.phase, PhaseStats())
        return ps

    def coll_stats(self) -> CollStats:
        """Point ``cur_cs`` at the current (phase, collective) entry."""
        by_coll = self.colls.setdefault(self.phase, {})
        cs = self.cur_cs = by_coll.setdefault(self.coll, CollStats())
        return cs


_COUNTERS = [f.name for f in dataclasses.fields(RankTrace)]


def _copied(value: Any) -> Any:
    """A counter value the live record no longer shares: dicts and the
    stats records inside them are copied, numbers are themselves."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, (PhaseStats, CollStats)):
        return dataclasses.replace(value)
    return value


class Transport:
    """Mailboxes + clocks + counters for one virtual MPI world."""

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel | None = None,
        record_events: bool = False,
        faults: FaultPlan | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.machine = machine or MachineModel()
        # What ``machine.msg_time`` reads, read once: the model is frozen.
        m = self.machine
        self._per_node = m.ranks_per_node
        self._link_intra = (m.alpha_intra, m.beta_intra)
        self._link_inter = (m.alpha, m.beta)
        self._nic_queues = m.overlap == "partial"
        self.faults = faults
        #: what the plan does to this world; ``None`` without a plan.
        self.injector = FaultInjector(faults, self) if faults is not None else None
        # mailbox[(ctx, dst_world)] -> list of pending Message in seq order
        self._mail: dict[tuple[int, int], list[Message]] = defaultdict(list)
        self._seq = 0
        self.ranks = [RankState(rank=r) for r in range(nprocs)]
        #: what a recorded run records (repro.obs.tracer); ``None`` unrecorded.
        self.tracer = Tracer(self.ranks) if record_events else None
        #: bumped on every delivery/removal; the scheduler's livelock
        #: check samples it.
        self.progress = 0
        self._context_keys: dict[Any, int] = {}
        # (parent ctx, split seq) -> {color: member world ranks, in order}
        self._split_groups: dict[tuple[int, int], dict[Any, tuple[int, ...]]] = {}
        # Comm.create_groups key -> (context, member world ranks, in order)
        self._groups: dict[tuple, tuple[int, tuple[int, ...]]] = {}
        self._next_ctx = 1
        self.aborted: AbortError | None = None
        #: world ranks permanently failed by ``RankFault(kill=True)``.
        self.dead: set[int] = set()
        #: world ranks whose program has returned (see :meth:`mark_finished`).
        self.finished: set[int] = set()
        #: ULFM-style revocation flag: set by :meth:`revoke` after a
        #: failure is detected, cleared when an :meth:`agree` completes.
        self.revoked = False
        # agreement rendezvous state, keyed by the comm's (ctx, seq) key
        self._agrees: dict[Any, dict[str, Any]] = {}
        #: parks and wakes the rank strands; idle until
        #: :func:`repro.mpi.des.run_des` drives it.
        self.scheduler = DesScheduler(self)

    # ----------------------------------------------------- context ids -- #
    def context_for_key(self, key: Any) -> int:
        """Deterministically map a split/dup key to a fresh context id.

        All member ranks of a new communicator call this with the same
        key and receive the same id; the first caller allocates it.
        """
        ctx = self._context_keys.get(key)
        if ctx is None:
            ctx = self._context_keys[key] = self.fresh_context()
        return ctx

    def fresh_context(self) -> int:
        """A context id no communicator has yet — a one-rank
        communicator's, which no other rank has to agree on."""
        self._next_ctx += 1
        return self._next_ctx - 1

    def group_context(
        self, key: tuple, group: Sequence[int], parent_group: Sequence[int]
    ) -> tuple[int, tuple[int, ...]]:
        """``(context, member world ranks)`` of one ``Comm.create_groups``
        group, named by ``key``: the first member here takes a fresh
        context and maps ``group``'s parent ranks to world ranks, the
        rest share both."""
        made = self._groups.get(key)
        if made is None:
            made = self._groups[key] = (
                self.fresh_context(), tuple(parent_group[r] for r in group)
            )
        return made

    def split_groups(
        self, key: tuple[int, int], pairs: Sequence[tuple], parent_group: Sequence[int]
    ) -> dict[Any, tuple[int, ...]]:
        """``{color: member world ranks}`` of one ``Comm.split`` call: every
        member holds the same ``(color, key)`` pairs, rank r's at position
        r; the first one here orders each color by ``(key, parent rank)``,
        the rest share it."""
        groups = self._split_groups.get(key)
        if groups is None:
            members: dict[Any, list[tuple[Any, int]]] = {}
            for r, (color, k) in enumerate(pairs):
                if color is not None:
                    members.setdefault(color, []).append((k, r))
            groups = self._split_groups[key] = {
                color: tuple(parent_group[r] for _k, r in sorted(kr))
                for color, kr in members.items()
            }
        return groups

    # --------------------------------------------------------- aborting -- #
    def abort(self, err: AbortError) -> None:
        """Record a fatal error and wake all blocked ranks."""
        if self.aborted is None:
            self.aborted = err
        self.scheduler.wake_all()

    def _check_abort(self) -> None:
        if self.aborted is not None:
            raise self.aborted

    # ------------------------------------------- ULFM-style fault tolerance -- #
    def dead_ranks(self) -> frozenset[int]:
        """World ranks permanently failed so far (``RankFault(kill=True)``)."""
        return frozenset(self.dead)

    def mark_dead(self, world_rank: int) -> None:
        """Permanent death of one rank, not a world abort: wake every
        blocked peer — their next matching attempt on this rank raises
        :class:`~repro.mpi.errors.RankFailedError`."""
        self.dead.add(world_rank)
        self.progress += 1
        self.scheduler.wake_all()

    def revoke(self) -> None:
        """Revoke communication world-wide (ULFM ``MPI_Comm_revoke`` analog).

        Revocation is *quiescence-gated* so that faulted runs stay
        replay-deterministic: receivers keep delivering messages that
        are already (or still about to be) produced, and a blocked
        receiver is unwound with
        :class:`~repro.mpi.errors.CommRevokedError` only once every
        live, unfinished rank is parked in a transport wait with
        nothing deliverable (see :meth:`_quiescent`).  That
        stable cut of the computation is a property of the program, so
        the virtual timestamp at which each survivor observes the
        revocation is the same on every replay.
        The flag is cleared when a subsequent :meth:`agree` completes.
        """
        self.revoked = True
        self.progress += 1

    def mark_finished(self, world_rank: int) -> None:
        """Record that a rank's program has returned (or died).

        Finished ranks can never post another message, so the
        revocation quiescence check skips them; without this, a world
        where some ranks already returned could never quiesce and a
        revoked receiver would block forever.
        """
        self.finished.add(world_rank)
        self.progress += 1
        # A finish can complete an agree rendezvous (the voter set
        # shrinks to the ranks already voted).
        self.scheduler.wake_agree()

    def agree(
        self, key: Any, group: Sequence[int], world_rank: int, flag: bool
    ) -> tuple[bool, tuple[int, ...]]:
        """Fault-tolerant agreement over ``group`` (ULFM ``MPIX_Comm_agree``).

        Collective over the *surviving* members of ``group`` (world
        ranks): blocks until every live member has voted, then returns
        the same ``(all_ok, survivors)`` on each of them, where
        ``all_ok`` is true only when every member is alive *and* voted
        ``True``.  Works while the world is revoked — this is the
        recovery rendezvous — and completing it clears the revocation.
        Members that die mid-agreement are dropped from the required
        voter set, so the agreement itself tolerates failures.
        """
        group = tuple(group)
        st = self._agrees.setdefault(key, {"votes": {}, "result": None})
        st["votes"][world_rank] = bool(flag)
        self.progress += 1
        self.scheduler.wake_agree()
        me = self.ranks[world_rank]
        me.agree_wait = key
        try:
            while st["result"] is None:
                self._check_abort()
                alive = [
                    r for r in group
                    if r not in self.dead and r not in self.finished
                ]
                if alive and all(r in st["votes"] for r in alive):
                    ok = len(alive) == len(group) and all(
                        st["votes"][r] for r in alive
                    )
                    t = max(self.ranks[r].clock for r in alive)
                    st["result"] = (ok, tuple(alive), t)
                    self.revoked = False
                    self.progress += 1
                    self.scheduler.wake_agree()
                    break
                self.scheduler.park(world_rank, "agree")
        finally:
            me.agree_wait = None
        ok, survivors, t = st["result"]
        self.raise_clock(world_rank, t, event_kind="wait")
        return ok, survivors

    def add_ft(
        self,
        world_rank: int,
        *,
        detected: int = 0,
        recomputed_flops: float = 0.0,
        reused_flops: float = 0.0,
        recoveries: int = 0,
        phase: str | None = None,
    ) -> None:
        """Charge fault-tolerance counters (ABFT detection, recovery rounds).

        ``phase`` attributes detections to the pipeline stage whose guard
        caught them (``replicate`` / ``cannon`` / ``reduce`` / ``redist``),
        feeding the ``corruptions_detected_by_phase`` breakdown.
        """
        st = self.ranks[world_rank]
        st.corruptions_detected += detected
        if detected and phase is not None:
            st.corruptions_detected_by_phase[phase] = (
                st.corruptions_detected_by_phase.get(phase, 0) + detected
            )
        st.recomputed_flops += recomputed_flops
        st.reused_flops += reused_flops
        st.recoveries += recoveries

    # ------------------------------------------------------------ clocks -- #
    def now(self, world_rank: int) -> float:
        return self.ranks[world_rank].clock

    def advance(
        self,
        world_rank: int,
        dt: float,
        kind: str = "comm",
        event_kind: str | None = None,
        nbytes: int = 0,
        peer: int = -1,
        seq: int = -1,
        injected: bool = False,
    ) -> None:
        """Advance a rank's clock by ``dt`` and attribute it to its phase."""
        if dt < 0:
            raise ValueError("negative time advance")
        st = self.ranks[world_rank]
        inj = self.injector
        if kind == "compute" and inj is not None and inj.slows_compute:
            dt, slowed = inj.slow_compute(world_rank, dt)
            injected = injected or slowed
        if kind == "comm" and st.async_depth > 0:
            # Inside an async region the transfer progresses on the
            # rank's comm timeline, not its clock.  Time is attributed
            # (exposed vs covered) when the matching wait settles the
            # region; no phase charge and no event here.
            st.comm_clock += dt
            return
        t0 = st.clock
        st.clock += dt
        ps = st.cur_ps or st.phase_stats()
        ps.time += dt
        if kind == "comm":
            ps.comm_time += dt
        elif kind == "compute":
            ps.compute_time += dt
        if self.tracer is not None and dt > 0:
            self.tracer.interval(
                world_rank, event_kind or ("compute" if kind == "compute" else "wait"),
                st.phase, t0, st.clock, nbytes, peer, seq, injected,
            )

    def raise_clock(
        self,
        world_rank: int,
        t: float,
        event_kind: str = "wait",
        nbytes: int = 0,
        peer: int = -1,
        seq: int = -1,
        injected: bool = False,
    ) -> None:
        """Move a rank's clock up to ``t`` if it is behind, never back
        (waiting time counts as comm)."""
        st = self.ranks[world_rank]
        if st.async_depth > 0:
            # In-region completions (e.g. a blocking recv matched on the
            # comm timeline) advance the comm clock, never the rank clock.
            if t > st.comm_clock:
                st.comm_clock = t
            return
        if t > st.clock:
            dt = t - st.clock
            t0 = st.clock
            st.clock = t
            ps = st.cur_ps or st.phase_stats()
            ps.time += dt
            ps.comm_time += dt
            if self.tracer is not None:
                self.tracer.interval(
                    world_rank, event_kind, st.phase, t0, t, nbytes, peer, seq, injected
                )

    # ------------------------------------------------- async comm engine -- #
    def begin_async(self, world_rank: int) -> float:
        """Open an async region on a rank; returns the region's start time.

        While the region is open, every comm-side charge against this
        rank (``advance(kind="comm")``, ``raise_clock``)
        is redirected to the rank's *comm timeline* instead of its
        clock, and no events are recorded — the region's entire cost is
        settled later by :meth:`async_wait`.  Regions nest; only the
        outermost open/close interacts with the engine-availability
        point (``overlap="partial"`` serializes consecutive regions of
        one rank on its single comm engine).
        """
        st = self.ranks[world_rank]
        st.async_depth += 1
        if st.async_depth == 1:
            if self.machine.overlap == "partial":
                st.comm_clock = max(st.clock, st.comm_engine_free)
            else:
                st.comm_clock = st.clock
        return st.comm_clock

    def end_async(self, world_rank: int) -> float:
        """Close an async region; returns its completion time.

        The returned time is where the rank's comm timeline stands after
        the region's transfers drained.  Under ``overlap="partial"`` the
        outermost close also publishes it as the engine-free point so
        the next region queues behind this one.
        """
        st = self.ranks[world_rank]
        if st.async_depth <= 0:
            raise RuntimeError("end_async without begin_async")
        t = st.comm_clock
        st.async_depth -= 1
        if st.async_depth == 0 and self.machine.overlap == "partial":
            st.comm_engine_free = t
        return t

    def async_wait(self, world_rank: int, t_start: float, t_complete: float) -> None:
        """Settle an async region's cost at wait time.

        Charges the *uncovered* remainder ``max(0, t_complete - clock)``
        to the rank clock (a ``wait`` event, comm time) and books the
        rest of the region's span as hidden communication
        (``PhaseStats.comm_covered_time``).  With ``overlap="none"``
        regions are pre-completed at post time (``t_start ==
        t_complete == clock``), so this charges nothing and the
        covered-time counter is never touched — bit-exact with a
        blocking collective.
        """
        st = self.ranks[world_rank]
        exposed = max(0.0, t_complete - st.clock)
        covered = max(0.0, (t_complete - t_start) - exposed)
        if exposed > 0.0:
            self.raise_clock(world_rank, t_complete, event_kind="wait")
        if covered > 0.0:
            (st.cur_ps or st.phase_stats()).comm_covered_time += covered

    # ------------------------------------------------------------ phases -- #
    def push_phase(self, world_rank: int, name: str, attrs: dict | None = None) -> None:
        st = self.ranks[world_rank]
        st.phase_stack.append(name)
        st.phase, st.cur_ps, st.cur_cs = name, None, None
        if self.injector is not None:
            self.injector.enter_phase(world_rank, name)
        if self.tracer is not None:
            self.tracer.begin(world_rank, name, st.clock, CAT_PHASE, attrs)

    def push_coll(self, world_rank: int, label: str) -> None:
        """Enter a collective call: traffic posted while the stack is
        non-empty is attributed to the *outermost* label (always-on and
        cheap, unlike tracer spans)."""
        st = self.ranks[world_rank]
        st.coll_stack.append(label)
        if len(st.coll_stack) == 1:
            st.coll, st.cur_cs = label, None

    def pop_coll(self, world_rank: int) -> str:
        st = self.ranks[world_rank]
        label = st.coll_stack.pop()
        if not st.coll_stack:
            st.coll, st.cur_cs = DEFAULT_COLL, None
        return label

    def pop_phase(self, world_rank: int) -> str:
        st = self.ranks[world_rank]
        name = st.phase_stack.pop()
        st.phase = st.phase_stack[-1] if st.phase_stack else DEFAULT_PHASE
        st.cur_ps = st.cur_cs = None
        if self.tracer is not None:  # the phase's span is the rank's innermost open one
            self.tracer.end(world_rank, None, st.clock)
        return name

    # ---------------------------------------------------------- memtrace -- #
    def mem(self, world_rank: int, purpose: str, nbytes: int, kind: str) -> None:
        """The one update of a rank's tracked memory: ``kind`` ``"alloc"``
        charges ``nbytes`` to ``purpose``, ``"free"`` releases them and
        ``"pulse"`` does both at once (a send's packed copy: only the
        high-water marks move).

        A charge moves the high-water marks (resident, purpose and
        phase).  Each call is one ``MemEvent`` of its ``kind`` when
        recording, a pulse included: its ``resident_bytes`` is the total
        after it, as for every record, and it peaked ``nbytes`` above
        that.  A release of more than the purpose's live bytes raises
        :class:`ValueError` — an instrumentation bug that clamping would
        hide in every watermark downstream.  Called in the owning rank's
        program order only, so every watermark replays byte-identically.
        """
        if kind != "pulse":  # the caller's count, which may be a numpy integer
            nbytes = int(nbytes)
            if nbytes < 0:
                raise ValueError(f"mem_{kind} of negative size {nbytes}")
        st = self.ranks[world_rank]
        live = st.mem_live.get(purpose, 0)
        if kind == "free":
            if nbytes > live:
                raise ValueError(
                    f"mem_free({purpose!r}) of {nbytes} bytes exceeds live "
                    f"{live} on rank {world_rank}"
                )
            st.mem_live[purpose] = live - nbytes
            st.resident_bytes -= nbytes
        else:
            resident = st.resident_bytes + nbytes
            if resident > st.resident_peak_bytes:
                st.resident_peak_bytes = resident
            if live + nbytes > st.mem_peaks.get(purpose, 0):
                st.mem_peaks[purpose] = live + nbytes
            if resident > st.phase_mem_peaks.get(st.phase, 0):
                st.phase_mem_peaks[st.phase] = resident
            if kind == "alloc":
                st.mem_live[purpose] = live + nbytes
                st.resident_bytes = resident
            else:
                st.mem_live[purpose] = live
        if self.tracer is not None:
            self.tracer.mem(world_rank, kind, purpose, st.phase, st.clock, nbytes,
                            st.resident_bytes)

    def release_rank_memory(self, world_rank: int) -> None:
        """Free every span still open on a rank whose program unwound.

        Dead-letter reclamation for the leak table: a rank killed
        (``RankFault(kill=True)``) or aborted mid-phase never reaches
        its ``mem_free`` calls, so its open spans (``tile.a``,
        ``cannon.dblbuf``, ``transport.inflight``, ...) would sit in
        :attr:`RankTrace.mem_live` forever and every leak audit
        downstream would report false positives for memory that died
        with the rank.  The runtime calls this after the rank's program
        has fully unwound — every organic free has already run, so
        nothing here can double-free — and the frees are emitted in
        sorted purpose order at the rank's final clock, keeping the
        per-rank memory timeline replay-deterministic.
        """
        st = self.ranks[world_rank]
        for purpose in sorted(st.mem_live):
            live = st.mem_live[purpose]
            if live > 0:
                self.mem(world_rank, purpose, live, "free")

    # --------------------------------------------------------------- p2p -- #
    def post_send(
        self,
        ctx: int,
        src_world: int,
        dst_world: int,
        tag: int,
        stored: Any,
        nbytes: int,
        handed: bool,
        advance_sender: bool,
    ) -> tuple[float, int]:
        """Deposit a message; return ``(arrival_time, seq)``.

        ``advance_sender=True`` models a blocking send (the sender's
        clock moves past the transfer); ``False`` models a nonblocking
        send whose cost is accounted at ``wait`` time by the caller.
        ``seq`` identifies the message in the tracer's ``msglog`` (and on
        the send/recv events bracketing its transfer) when recording.
        """
        per_node = self._per_node
        same_node = src_world // per_node == dst_world // per_node
        alpha, beta = self._link_intra if same_node else self._link_inter
        t_msg = alpha + beta * nbytes  # machine.msg_time, to the bit
        if self.aborted is not None:  # _check_abort, without the call
            raise self.aborted
        # Sends always succeed locally, even to dead ranks and on a
        # revoked world (eager-buffered / dead-letter semantics).
        # Failure detection is the receiver's job (recv-from-dead,
        # the revocation quiescence check) with ``agree`` as the
        # collective backstop.
        st = self.ranks[src_world]
        drops = 0
        injected = False
        if self.injector is not None:
            t_msg, drops, injected, stored = self.injector.perturb(
                src_world, dst_world, st.phase, t_msg, stored
            )
        in_region = st.async_depth > 0
        base = st.comm_clock if in_region else st.clock
        nic_serialized = (
            self._nic_queues and not same_node and (in_region or not advance_sender)
        )
        if nic_serialized:
            # One NIC stream per rank in partial mode: an in-flight
            # nonblocking transfer delays the next one's start.
            # Blocking sends are untouched (their wait drags the
            # clock past nic_free anyway, keeping sync paths
            # bit-exact under every overlap mode).
            base = max(base, st.nic_free)
        t_post = base
        arrival = t_post + t_msg
        if nic_serialized:
            st.nic_free = arrival
        self._seq += 1
        seq = self._seq
        if self.tracer is not None:
            self.tracer.message(
                seq, src_world, dst_world, t_post, arrival, nbytes, tag, ctx,
                st.phase, injected, st.coll,
            )
        if in_region:
            # The transfer rides the comm timeline; its cost is
            # settled by async_wait when the region's request is
            # waited on (no event, no phase charge here).
            st.comm_clock = arrival
        elif advance_sender:
            if t_post > st.clock:
                # NIC-delayed start (partial mode): charge straight
                # to the arrival so the queueing delay is visible as
                # send time.  (a+b)-a != b in floating point, so the
                # undelayed path below must stay a plain advance.
                self.raise_clock(
                    src_world, arrival,
                    event_kind="send", nbytes=nbytes, peer=dst_world,
                    seq=seq, injected=injected,
                )
            else:
                self.advance(
                    src_world, t_msg, "comm",
                    event_kind="send", nbytes=nbytes, peer=dst_world, seq=seq,
                    injected=injected,
                )
        ps = st.cur_ps or st.phase_stats()
        ps.bytes_sent += nbytes
        ps.msgs_sent += 1
        cs = st.cur_cs or st.coll_stats()
        cs.bytes_sent += nbytes
        cs.msgs_sent += 1
        st.bytes_sent += nbytes
        st.msgs_sent += 1
        # Sender-side packed copy: charged and released at once, in the
        # sender's own program order (deterministic on replay); only the
        # high-water marks move.
        self.mem(src_world, MEM_INFLIGHT, nbytes, "pulse")
        msg = Message(
            ctx=ctx,
            src_world=src_world,
            dst_world=dst_world,
            tag=tag,
            stored=stored,
            nbytes=nbytes,
            handed=handed,
            arrival=arrival,
            seq=seq,
        )
        if drops > 0:
            # Lost on the wire: held until the receiver times out and
            # requests retransmits (see match_recv).
            self.injector.hold(msg, t_msg, drops, t_post)
        else:
            self._mail[(ctx, dst_world)].append(msg)
        self.progress += 1
        # Precise wakeup: only the receiver can be unblocked by this
        # post.  A *dropped* message readies it too — the receiver
        # must start charging its timeout/retry clock.
        self.scheduler.wake_recv(dst_world)
        return arrival, seq

    def _select(
        self,
        ctx: int,
        dst_world: int,
        src_world: int,
        tag: int,
        caps: dict[int, Any] | None = None,
    ) -> int | None:
        """Index of the deliverable mailbox message this receive takes.

        Per sender, only that pair's oldest matching message is a
        candidate (mailboxes hold each pair's messages in seq order, so
        the first hit per sender preserves MPI non-overtaking).  ``caps``
        (:meth:`FaultInjector.held <repro.mpi.faults.FaultInjector.held>`)
        maps a sender's world rank to its lowest *held dropped* message
        matching this receive: candidates at or past that seq are
        invisible until the retransmit lands.  Among
        candidates the smallest ``(arrival, src)`` wins — a virtual-time
        tie-break, so an ``ANY_SOURCE`` receive does not depend on the
        order in which the senders reached the mailbox.
        """
        box = self._mail.get((ctx, dst_world))
        if not box:
            return None
        if caps is None and src_world != ANY_SOURCE:
            # One pair, nothing held: its oldest tag match is the answer.
            for i, msg in enumerate(box):
                if msg.src_world == src_world and (tag == ANY_TAG or msg.tag == tag):
                    return i
            return None
        best_i = -1
        best_key: tuple[float, int] | None = None
        seen: set[int] = set()
        for i, msg in enumerate(box):
            if not msg.matches(src_world, tag):
                continue
            s = msg.src_world
            if s in seen:
                continue
            seen.add(s)
            if caps is not None and s in caps and msg.seq >= caps[s].msg.seq:
                continue
            key = (msg.arrival, s)
            if best_key is None or key < best_key:
                best_i, best_key = i, key
            if src_world != ANY_SOURCE:
                break  # single pair: its oldest candidate is the answer
        if best_key is None:
            return None
        return best_i

    def redeliver(self, msg: Message) -> None:
        """Put a retransmitted message, its ``arrival`` already moved,
        into its mailbox and correct its log record."""
        # Re-insert in seq order: later same-(src, tag) messages may
        # already sit in the mailbox, and matching pops in list order,
        # so an append here would let them overtake the retransmit.
        box = self._mail[(msg.ctx, msg.dst_world)]
        i = len(box)
        while i > 0 and box[i - 1].seq > msg.seq:
            i -= 1
        box.insert(i, msg)
        if self.tracer is not None:
            self.tracer.redelivered(msg.seq, msg.arrival)

    def match_recv(
        self,
        ctx: int,
        dst_world: int,
        src_world: int,
        tag: int,
        advance_receiver: bool = True,
    ) -> Message:
        """Park the calling rank until a matching message is available,
        and take it out of the mailbox.

        On return the receiver's simulated clock has been raised to the
        message arrival time (if ``advance_receiver``), and the
        receive-side counters are charged.

        Under a fault plan, a receive whose matching message was
        *dropped* times out per the plan's
        :class:`~repro.mpi.faults.RetryPolicy`: each timeout charges a
        simulated backoff wait and requests a retransmit; exhausting the
        budget raises :class:`~repro.mpi.errors.RecvTimeoutError`.
        """
        st = self.ranks[dst_world]
        st.recv_wait = (ctx, src_world, tag)
        inj = self.injector
        try:
            while True:
                if self.aborted is not None:
                    raise self.aborted
                # Non-overtaking: a held dropped message must not be
                # overtaken by a later message on the same pair, so
                # mailbox matching is capped at the dropped seqs.
                caps = inj.held(ctx, dst_world, src_world, tag) if inj is not None else None
                i = self._select(ctx, dst_world, src_world, tag, caps)
                if i is not None:
                    msg = self._mail[(ctx, dst_world)].pop(i)
                    break
                # A message already on the wire from a now-dead rank
                # is still deliverable (checked above); with nothing
                # in flight, waiting on a dead rank is hopeless.
                if src_world != ANY_SOURCE and src_world in self.dead:
                    raise RankFailedError(dst_world, src_world, op="recv from")
                if caps is not None:
                    inj.retry(caps)
                    continue
                # Quiescence-gated revocation: a deliverable message
                # always wins over the revoked flag, so the program
                # point (and virtual clock) at which each survivor
                # is unwound is replay-deterministic.
                if self.revoked and self._quiescent():
                    raise CommRevokedError(dst_world)
                self.scheduler.park(dst_world, "recv")
            self.progress += 1
            if advance_receiver:
                self.raise_clock(
                    dst_world, msg.arrival,
                    event_kind="recv", nbytes=msg.nbytes, peer=msg.src_world,
                    seq=msg.seq,
                )
            ps = st.cur_ps or st.phase_stats()
            ps.bytes_recv += msg.nbytes
            ps.msgs_recv += 1
            cs = st.cur_cs or st.coll_stats()
            cs.bytes_recv += msg.nbytes
            cs.msgs_recv += 1
            st.bytes_recv += msg.nbytes
            st.msgs_recv += 1
            # No receiver-side in-flight charge: at receipt the
            # payload is handed to the engine, whose own spans
            # (cannon.dblbuf, redist.tiles, ...) account for it —
            # charging here would double-count every received block.
            return msg
        finally:
            st.recv_wait = None

    def _quiescent(self) -> bool:
        """True when no live, unfinished rank can make progress.

        The gate for delivering :class:`CommRevokedError` (see
        :meth:`revoke`): every rank is dead, finished, parked in an
        agree rendezvous, or blocked in a receive with no matching
        message in the mailbox and no held drop a retransmit could
        still release.  Quiescence is a stable property — once reached,
        only the unwinding of a blocked receiver changes it.
        """
        for r, st in enumerate(self.ranks):
            if r in self.dead or r in self.finished or st.agree_wait is not None:
                continue
            w = st.recv_wait
            if w is None:
                return False  # still running between transport calls
            ctx, src, tag = w
            inj = self.injector
            if inj is not None and inj.held(ctx, r, src, tag) is not None:
                return False  # a retransmit can still release it
            box = self._mail.get((ctx, r))
            if box and any(m.matches(src, tag) for m in box):
                return False  # deliverable: about to make progress
        return True

    def probe(self, ctx: int, dst_world: int, src_world: int, tag: int) -> Message | None:
        """Nonblocking probe: the message a receive would take, left in
        the mailbox.

        Candidate selection is shared with :meth:`match_recv`
        (:meth:`_select`), so a probe-then-recv pair always
        agrees on the message — including under fault injection, where
        held dropped messages cap what the probe may report: a later
        message that a drop should precede is invisible until the
        retransmit lands.
        """
        self._check_abort()
        inj = self.injector
        caps = inj.held(ctx, dst_world, src_world, tag) if inj is not None else None
        i = self._select(ctx, dst_world, src_world, tag, caps)
        if i is not None:
            return self._mail[(ctx, dst_world)][i]
        # Refuse exactly where match_recv does, so a probe-polling loop
        # (``RecvRequest.test``) cannot spin forever: a dead source with
        # nothing on the wire, then a revoked world.  A deliverable
        # message wins over both.
        if src_world != ANY_SOURCE and src_world in self.dead:
            raise RankFailedError(dst_world, src_world, op="probe of")
        if self.revoked:
            raise CommRevokedError(dst_world)
        # Cooperative yield: a probe miss must not monopolise the
        # world — let every rank with real work run first.
        self.scheduler.poll_yield(dst_world)
        return None

    # ----------------------------------------------------------- tracing -- #
    def trace(self, world_rank: int) -> RankTrace:
        """An independent copy of a rank's counters, ``time`` its clock."""
        st = self.ranks[world_rank]
        snap = RankTrace(**{name: _copied(getattr(st, name)) for name in _COUNTERS})
        snap.time = st.clock
        snap.mem_live = {k: v for k, v in st.mem_live.items() if v}
        return snap

    def traces(self) -> list[RankTrace]:
        return [self.trace(r) for r in range(self.nprocs)]
