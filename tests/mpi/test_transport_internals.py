"""Transport internals: context ids, ordering, counters, wait descriptions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.model import MachineModel, laptop
from repro.mpi.transport import Transport
from repro.mpi.datatypes import payload_pack, payload_unpack


class TestContextIds:
    def test_same_key_same_id(self):
        t = Transport(2)
        a = t.context_for_key(("ctx", 1))
        b = t.context_for_key(("ctx", 1))
        assert a == b

    def test_different_keys_different_ids(self):
        t = Transport(2)
        ids = {t.context_for_key(("ctx", i)) for i in range(10)}
        assert len(ids) == 10

    def test_ids_never_collide_with_world(self):
        from repro.mpi.runtime import WORLD_CTX

        t = Transport(2)
        assert t.context_for_key("x") != WORLD_CTX


class TestPayloads:
    def test_array_pack_is_copy(self):
        arr = np.ones(4)
        stored, nbytes, is_array = payload_pack(arr)
        arr[:] = -1
        assert is_array and nbytes == 32
        assert payload_unpack(stored, True).tolist() == [1.0] * 4

    def test_noncontiguous_array_packed_contiguous(self):
        arr = np.arange(16.0).reshape(4, 4)[:, 1]
        stored, nbytes, is_array = payload_pack(arr)
        assert nbytes == 32
        assert stored.flags["C_CONTIGUOUS"]

    def test_object_pack_weighs_its_contents(self):
        """A dict travels as a private copy, not a pickle, and weighs its
        key and value."""
        value = {"a": 1}
        stored, nbytes, handed = payload_pack(value)
        assert handed and stored is not value
        assert nbytes == 1 + 8
        assert payload_unpack(stored, True) == {"a": 1}

    def test_object_pack_isolates_mutation(self):
        """A list is copied all the way down: what the sender changes
        after the pack, in the list, a list in it or an array in it, the
        receiver's copy does not see."""
        inner, arr = [2], np.ones(2)
        obj = [1, inner, arr]
        stored, _, handed = payload_pack(obj)
        obj.append(4)
        inner.append(3)
        arr[:] = -1
        got = payload_unpack(stored, handed)
        assert handed and got[:2] == [1, [2]] and got[2].tolist() == [1.0, 1.0]


class TestDirectTransport:
    def test_fifo_sequence_numbers(self):
        t = Transport(2)
        for i in range(3):
            stored, n, ia = payload_pack(i)
            t.post_send(0, 0, 1, 5, stored, n, ia, advance_sender=True)
        box = t._mail[(0, 1)]
        assert [m.seq for m in box] == sorted(m.seq for m in box)
        got = [t.match_recv(0, 1, 0, 5).unpack() for _ in range(3)]
        assert got == [0, 1, 2]

    def test_counters_track_bytes_and_msgs(self):
        t = Transport(2, laptop())
        stored, n, ia = payload_pack(np.zeros(10))
        t.post_send(0, 0, 1, 1, stored, n, ia, advance_sender=True)
        t.match_recv(0, 1, 0, 1)
        assert t.ranks[0].bytes_sent == 80 and t.ranks[0].msgs_sent == 1
        assert t.ranks[1].bytes_recv == 80 and t.ranks[1].msgs_recv == 1

    def test_probe_does_not_consume(self):
        t = Transport(2)
        stored, n, ia = payload_pack("x")
        t.post_send(0, 0, 1, 1, stored, n, ia, advance_sender=True)
        assert t.probe(0, 1, 0, 1) is not None
        assert t.probe(0, 1, 0, 1) is not None  # still there
        t.match_recv(0, 1, 0, 1)
        assert t.probe(0, 1, 0, 1) is None

    def test_negative_advance_rejected(self):
        t = Transport(1)
        with pytest.raises(ValueError):
            t.advance(0, -1.0)

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            Transport(0)


class TestPhaseStats:
    def test_trace_snapshot_shares_no_stats_record(self):
        """A ``trace()`` snapshot shares no stats record with the live rank:
        its phase and collective records are equal copies, and what the
        rank charges afterwards leaves the snapshot as it was."""
        t = Transport(2, laptop())
        stored, n, ia = payload_pack(np.zeros(10))
        t.post_send(0, 0, 1, 1, stored, n, ia, advance_sender=True)
        snap = t.trace(0)
        live = t.ranks[0]
        pairs = [(snap.phases, live.phases)] + [
            (snap.colls[phase], live.colls[phase]) for phase in live.colls]
        for copied, charged in pairs:
            assert copied == charged and copied
            assert all(copied[k] is not charged[k] for k in charged)
        t.post_send(0, 0, 1, 1, stored, n, ia, advance_sender=True)
        assert [ps.msgs_sent for ps in snap.phases.values()] == [1]
        assert [ps.msgs_sent for ps in live.phases.values()] == [2]

    def test_phase_stack_nesting(self, spmd):
        def f(comm):
            with comm.phase("outer"):
                comm.compute(100)
                with comm.phase("inner"):
                    comm.compute(200)
                comm.compute(300)

        res = spmd(1, f)
        phases = res.traces[0].phases
        # time attributes to the innermost active phase
        assert phases["inner"].compute_time == pytest.approx(
            200 * res.transport.machine.gamma
        )
        assert phases["outer"].compute_time == pytest.approx(
            400 * res.transport.machine.gamma
        )

    def test_waiting_time_attributed_to_comm(self, spmd):
        machine = MachineModel(
            alpha=1e-3, nic_beta=0.0, alpha_intra=1e-3, beta_intra=0.0,
            ranks_per_node=1,
        )

        def f(comm):
            with comm.phase("xch"):
                if comm.rank == 0:
                    comm.compute(0)
                    comm.send(b"z", dest=1)
                else:
                    comm.recv(source=0)

        res = spmd(2, f, machine=machine)
        ph = res.traces[1].phases["xch"]
        assert ph.comm_time == pytest.approx(1e-3, rel=1e-6)
        assert ph.compute_time == 0.0


class TestWatchdogInfo:
    def test_blocked_ranks_describes_wait(self):
        """A blocking call on a transport no scheduler is driving has
        nobody to wake it: it raises the typed error at once, carrying
        the ``waiting_on`` description, instead of hanging."""
        from repro.mpi.errors import DeadlockError

        t = Transport(2)
        with pytest.raises(DeadlockError) as ei:
            t.match_recv(0, 0, 1, 9)
        assert ei.value.blocked == {0: "recv(src=1, tag=9, ctx=0)"}
        assert t.ranks[0].waiting_on is None  # wait state unwound


class TestMessageLog:
    """The per-message log keying the wait-for DAG (obs.critpath)."""

    def _recorded_pingpong(self):
        from repro.mpi import run_spmd

        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(8), 1)
                comm.recv(source=1)
            else:
                comm.recv(source=0)
                comm.send(np.ones(8), 0)

        return run_spmd(2, f, machine=laptop(), record_events=True)

    def test_msglog_records_every_message(self):
        res = self._recorded_pingpong()
        log = res.tracer.msglog
        assert len(log) == 2
        assert [m.seq for m in log] == [1, 2]
        for m in log:
            assert m.arrival >= m.t_post >= 0.0
            assert m.flight == m.arrival - m.t_post
            assert m.nbytes > 0

    def test_msg_record_lookup(self):
        res = self._recorded_pingpong()
        tr = res.tracer
        assert tr is res.transport.tracer
        for m in tr.msglog:
            assert tr.msg_record(m.seq) is m
        assert tr.msg_record(0) is None
        assert tr.msg_record(99) is None

    def test_blocking_recv_events_carry_the_seq(self):
        res = self._recorded_pingpong()
        recvs = [e for e in res.tracer.events if e.kind == "recv"]
        assert recvs
        for e in recvs:
            msg = res.tracer.msg_record(e.seq)
            assert msg is not None
            assert msg.dst == e.rank
            # the clock raise landed exactly on the arrival
            assert e.t1 == msg.arrival

    def test_msglog_empty_without_recording(self):
        from repro.mpi import run_spmd

        def f(comm):
            comm.sendrecv(np.zeros(4), 1 - comm.rank, 1 - comm.rank)

        res = run_spmd(2, f, machine=laptop())
        tr = res.tracer
        assert tr.msglog == tr.events == tr.memlog == res.spans == []


class TestRecorder:
    def test_no_recording_no_tracer_and_no_log_state(self):
        clean, recorded = Transport(2), Transport(2, record_events=True)
        assert clean.tracer is None and recorded.tracer is not None
        # whatever recording needs hangs off the tracer, not the transport
        assert set(vars(clean)) == set(vars(recorded))
        assert not {"record_events", "events", "msglog", "memlog"} & set(vars(clean))
        assert "phase_span_stack" not in vars(clean.ranks[0])
