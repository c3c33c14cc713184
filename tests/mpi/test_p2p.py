"""Point-to-point semantics of the virtual MPI layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Status
from repro.mpi.errors import BufferError_, RankError, TagError


class TestSendRecv:
    def test_array_roundtrip(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.arange(10.0), dest=1, tag=7)
                return None
            if comm.rank == 1:
                got = comm.recv(source=0, tag=7)
                return got.tolist()
            return None

        res = spmd(2, f)
        assert res.results[1] == list(map(float, range(10)))

    def test_object_roundtrip(self, spmd):
        payload = {"a": [1, 2, 3], "b": ("x", 4.5)}

        def f(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1)
            elif comm.rank == 1:
                return comm.recv(source=0)

        res = spmd(2, f)
        assert res.results[1] == payload

    def test_send_copies_buffer(self, spmd):
        """Mutating the send buffer after send must not corrupt delivery."""

        def f(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, dest=1)
                buf[:] = -1.0
            elif comm.rank == 1:
                got = comm.recv(source=0)
                return got.tolist()

        res = spmd(2, f)
        assert res.results[1] == [1.0] * 4

    def test_recv_into_buffer(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.full(6, 3.5), dest=1)
            elif comm.rank == 1:
                buf = np.zeros(6)
                out = comm.recv(source=0, buf=buf)
                assert out is buf
                return buf.sum()

        res = spmd(2, f)
        assert res.results[1] == 21.0

    def test_recv_buffer_size_mismatch(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(5), dest=1)
            elif comm.rank == 1:
                with pytest.raises(BufferError_):
                    comm.recv(source=0, buf=np.zeros(3))

        spmd(2, f)

    def test_status_fields(self, spmd):
        def f(comm):
            if comm.rank == 2:
                comm.send(np.zeros(4), dest=0, tag=9)
            elif comm.rank == 0:
                st = Status()
                comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
                return (st.source, st.tag, st.nbytes)

        res = spmd(3, f)
        assert res.results[0] == (2, 9, 32)

    def test_self_send(self, spmd):
        def f(comm):
            comm.send(np.array([comm.rank]), dest=comm.rank, tag=1)
            return comm.recv(source=comm.rank, tag=1)[0]

        res = spmd(3, f)
        assert [int(v) for v in res.results] == [0, 1, 2]


class TestMatching:
    def test_fifo_per_source_tag(self, spmd):
        """Messages with the same (source, tag) arrive in send order."""

        def f(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=3)
            elif comm.rank == 1:
                return [comm.recv(source=0, tag=3) for _ in range(5)]

        res = spmd(2, f)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tag_selectivity(self, spmd):
        """A recv on tag B is not satisfied by an earlier tag-A message."""

        def f(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
            elif comm.rank == 1:
                second = comm.recv(source=0, tag=2)
                first = comm.recv(source=0, tag=1)
                return (first, second)

        res = spmd(2, f)
        assert res.results[1] == ("first", "second")

    def test_any_source(self, spmd):
        def f(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=5)
                return None
            got = sorted(comm.recv(source=ANY_SOURCE, tag=5) for _ in range(comm.size - 1))
            return got

        res = spmd(4, f)
        assert res.results[0] == [1, 2, 3]

    def test_probe(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(2), dest=1, tag=4)
            elif comm.rank == 1:
                # Spin until the message is visible, then probe its metadata.
                while comm.probe(source=0, tag=4) is None:
                    pass
                st = comm.probe(source=0, tag=4)
                got = comm.recv(source=0, tag=4)
                return (st.source, st.tag, st.nbytes, got.size)

        res = spmd(2, f)
        assert res.results[1] == (0, 4, 16, 2)


class TestNonblocking:
    def test_isend_irecv(self, spmd):
        def f(comm):
            other = 1 - comm.rank
            sreq = comm.isend(np.full(3, float(comm.rank)), dest=other, tag=2)
            rreq = comm.irecv(source=other, tag=2)
            got = rreq.wait()
            sreq.wait()
            return float(got[0])

        res = spmd(2, f)
        assert res.results == [1.0, 0.0]

    def test_irecv_test_polls(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(42, dest=1, tag=8)
            elif comm.rank == 1:
                req = comm.irecv(source=0, tag=8)
                while True:
                    done, value = req.test()
                    if done:
                        return value

        res = spmd(2, f)
        assert res.results[1] == 42

    def test_sendrecv_ring(self, spmd):
        def f(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            got = comm.sendrecv(np.array([float(comm.rank)]), nxt, prv)
            return int(got[0])

        res = spmd(5, f)
        assert res.results == [4, 0, 1, 2, 3]

    def test_sendrecv_pairwise_exchange(self, spmd):
        def f(comm):
            partner = comm.rank ^ 1
            got = comm.sendrecv(comm.rank * 10, partner, partner)
            return got

        res = spmd(4, f)
        assert res.results == [10, 0, 30, 20]


class TestValidation:
    def test_bad_dest_rank(self, spmd):
        def f(comm):
            with pytest.raises(RankError):
                comm.send(1, dest=comm.size + 3)

        spmd(2, f)

    def test_negative_tag(self, spmd):
        def f(comm):
            with pytest.raises(TagError):
                comm.send(1, dest=0, tag=-5)

        spmd(1, f)

    def test_send_any_tag_rejected(self, spmd):
        from repro.mpi import ANY_TAG

        def f(comm):
            with pytest.raises(TagError):
                comm.send(1, dest=0, tag=ANY_TAG)

        spmd(1, f)

    @pytest.mark.parametrize("door", ["send", "isend", "sendrecv"])
    def test_wildcards_are_for_receives(self, spmd, door):
        """``ANY_SOURCE`` is not a destination and ``ANY_TAG`` not a send
        tag, at any of the three send doors: refused on the calling rank
        before anything is posted or counted."""
        from repro.mpi import ANY_SOURCE, ANY_TAG

        def send(comm, dest, tag):
            if door == "sendrecv":
                return comm.sendrecv(1, dest, 0, sendtag=tag)
            return getattr(comm, door)(1, dest, tag)

        def f(comm):
            with pytest.raises(RankError, match="cannot send to rank -1"):
                send(comm, ANY_SOURCE, 0)
            with pytest.raises(TagError, match="cannot send with ANY_TAG"):
                send(comm, 0, ANY_TAG)

        res = spmd(1, f)
        assert res.traces[0].msgs_sent == 0 and not res.transport._mail

    def test_wildcard_destination_does_not_strand_a_bystander(self, spmd):
        """``send(x, dest=-1)`` used to be accepted, counted, parked in
        mailbox ``(ctx, -1)`` — and ``wake_recv(-1)`` flipped the *last*
        rank's scheduler state, so the correctly written rank 2 died with
        a spurious ``DeadlockError`` in a program that completes."""

        def f(comm):
            if comm.rank == 0:
                comm.recv(1)
                with pytest.raises(RankError):
                    comm.send(np.ones(2), dest=-1)
                sent_before = comm.transport.ranks[0].msgs_sent
                comm.send(b"go", 1, tag=9)
                comm.recv(1)
                comm.send(np.ones(3), 2)
                return sent_before
            if comm.rank == 1:
                comm.send(b"x", 0)
                comm.recv(0, tag=9)
                comm.send(b"y", 0)
                return None
            return comm.recv(0).tolist()

        res = spmd(3, f)
        assert res.results == [0, None, [1.0, 1.0, 1.0]]
        assert [t.msgs_sent for t in res.traces] == [2, 2, 0]
        assert all(dst >= 0 for _ctx, dst in res.transport._mail)
