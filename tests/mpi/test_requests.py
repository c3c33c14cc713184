"""Request objects: wait/test semantics, wait_all, buffer receives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import wait_all, wait_any
from repro.mpi.errors import BufferError_


class TestSendRequest:
    def test_wait_idempotent(self, spmd):
        def f(comm):
            other = 1 - comm.rank
            req = comm.isend(np.ones(4), dest=other)
            comm.recv(source=other)
            t1 = comm.now()
            req.wait()
            t2 = comm.now()
            req.wait()  # second wait is a no-op
            t3 = comm.now()
            return t2 >= t1 and t3 == t2

        assert all(spmd(2, f).results)

    def test_test_does_not_jump_clock(self, spmd):
        """Polling an in-flight send answers (False, None) and leaves the
        clock alone — the historical behavior silently waited."""

        def f(comm):
            other = 1 - comm.rank
            t0 = comm.now()
            req = comm.isend(np.ones(4), dest=other)
            done_early, _ = req.test()
            t1 = comm.now()
            comm.recv(source=other)  # symmetric: raises clock past arrival
            done_late, value = req.test()
            t2 = comm.now()
            req.wait()
            return (
                done_early is False
                and t1 == t0  # the poll charged nothing
                and done_late is True
                and value is None
                and comm.now() == t2  # completion was already covered
            )

        assert all(spmd(2, f).results)


class TestRecvRequest:
    def test_wait_returns_payload(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send({"k": 9}, dest=1)
            else:
                req = comm.irecv(source=0)
                return req.wait()

        assert spmd(2, f).results[1] == {"k": 9}

    def test_wait_idempotent_value(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(5, dest=1)
            else:
                req = comm.irecv(source=0)
                a = req.wait()
                b = req.wait()
                return a == b == 5

        assert spmd(2, f).results[1]

    def test_status_populated(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(3), dest=1, tag=6)
            else:
                req = comm.irecv(source=0, tag=6)
                req.wait()
                return (req.status.source, req.status.tag, req.status.nbytes)

        assert spmd(2, f).results[1] == (0, 6, 24)

    def test_irecv_into_buffer(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.full(5, 2.0), dest=1)
            else:
                buf = np.zeros(5)
                req = comm.irecv(source=0, buf=buf)
                out = req.wait()
                return out is buf and buf.sum() == 10.0

        assert spmd(2, f).results[1]

    def test_irecv_buffer_mismatch(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(5), dest=1)
            else:
                req = comm.irecv(source=0, buf=np.zeros(2))
                with pytest.raises(BufferError_):
                    req.wait()

        spmd(2, f)

    def test_test_before_arrival(self, spmd):
        def f(comm):
            if comm.rank == 1:
                req = comm.irecv(source=0, tag=3)
                done_early, _ = req.test()
                comm.send(b"go", dest=0, tag=1)
                while True:
                    done, val = req.test()
                    if done:
                        return (done_early, val)
            else:
                comm.recv(source=1, tag=1)  # wait for the probe to happen
                comm.send("late", dest=1, tag=3)

        early, val = spmd(2, f).results[1]
        assert early is False and val == "late"


class TestWaitAll:
    def test_mixed_requests(self, spmd):
        def f(comm):
            other = 1 - comm.rank
            reqs = [
                comm.isend(np.full(2, float(comm.rank)), dest=other, tag=1),
                comm.irecv(source=other, tag=1),
                comm.isend(comm.rank * 100, dest=other, tag=2),
                comm.irecv(source=other, tag=2),
            ]
            values = wait_all(reqs)
            return float(values[1][0]), values[3]

        res = spmd(2, f)
        assert res.results[0] == (1.0, 100)
        assert res.results[1] == (0.0, 0)

    def test_arrival_ordered_draining(self):
        """wait_all charges completions earliest-first: listing a big
        (late) receive before a small (early) one must not bill the
        small one the big one's wait.  The historical list-order drain
        glued both recv events to the big message's arrival."""
        from repro.machine.model import laptop
        from repro.mpi import run_spmd

        def f(comm):
            if comm.rank == 0:
                reqs = [
                    comm.isend(np.zeros(1 << 16), dest=1, tag=1),  # slow
                    comm.isend(np.zeros(8), dest=1, tag=2),  # fast, same post time
                ]
                comm.recv(source=1, tag=3)
                wait_all(reqs)
            else:
                big = comm.irecv(source=0, tag=1)
                small = comm.irecv(source=0, tag=2)
                comm.send(b"go", dest=0, tag=3)
                wait_all([big, small])  # big listed first on purpose
                return big.status.nbytes, small.status.nbytes

        res = run_spmd(2, f, machine=laptop(), record_events=True)
        assert res.results[1] == ((1 << 16) * 8, 64)
        recvs = [
            e for e in res.tracer.events if e.rank == 1 and e.kind == "recv"
        ]
        small_ev = [e for e in recvs if e.nbytes == 64]
        big_ev = [e for e in recvs if e.nbytes == (1 << 16) * 8]
        # Arrival order: the small message's wait ends before the big
        # one's begins — list-order draining produced no small event at
        # all (its arrival was already covered by the big wait).
        assert small_ev and big_ev
        assert small_ev[0].t1 <= big_ev[0].t0

    def test_wait_any_picks_earliest(self, spmd):
        def f(comm):
            if comm.rank == 0:
                comm.send(b"tiny", dest=1, tag=2)
                comm.send(np.zeros(1 << 16), dest=1, tag=1)
            else:
                reqs = [comm.irecv(source=0, tag=1), comm.irecv(source=0, tag=2)]
                idx, val = wait_any(reqs)
                t_first = comm.now()
                wait_all(reqs)  # settle the remainder; idempotent for idx
                return idx, val, comm.now() >= t_first

        idx, val, ordered = spmd(2, f).results[1]
        assert idx == 1 and val == b"tiny" and ordered

    def test_wait_any_empty_raises(self):
        with pytest.raises(ValueError):
            wait_any([])
