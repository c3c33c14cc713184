"""Machine modes in the executed engine: node-aware link pricing."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.machine.model import MachineModel, laptop, pace_phoenix_cpu
from repro.mpi import run_spmd


class TestFieldChecks:
    """A model no price can be made of is refused when built, by field:
    ``alpha=-1`` used to fail at the first send as "negative time
    advance", ``nic_share=0`` as a ``ZeroDivisionError`` at the first
    inter-node send, and ``ranks_per_node=0`` ran as one rank per node."""

    @pytest.mark.parametrize("field, value", [
        ("alpha", -1.0), ("alpha_intra", -1e-9), ("nic_beta", -1.0), ("beta_intra", math.inf),
        ("gamma", math.nan), ("gpu_stage_beta", -1.0), ("alpha", "1e-6"), ("gamma", True),
        ("peak_gamma", 0.0), ("nic_share", 0.0), ("nic_share", math.inf),
        ("rs_degrade_factor", -1.0), ("rs_degrade_threshold", -1.0),
        ("rs_degrade_threshold", math.nan), ("cores_per_node", 0), ("ranks_per_node", 0),
        ("ranks_per_node", -2), ("ranks_per_node", True), ("ranks_per_node", 2.0),
    ])
    def test_a_malformed_field_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}="):
            MachineModel(**{field: value})
        with pytest.raises(ValueError, match=f"^{field}="):
            dataclasses.replace(laptop(), **{field: value})

    def test_free_links_and_an_unbounded_threshold_are_models(self):
        m = MachineModel(alpha=0.0, alpha_intra=0.0, nic_beta=0.0, beta_intra=0.0, gamma=0.0,
                         gpu_stage_beta=0.0, rs_degrade_threshold=math.inf,
                         ranks_per_node=np.int64(2))
        assert m.msg_time(1e6, 0, 3) == 0.0
        assert m.node_of(5) == 2


class TestNodeAwareExecution:
    def test_intra_node_cheaper_than_inter(self, spmd):
        """Same transfer priced differently by rank placement."""
        machine = MachineModel(ranks_per_node=2)

        def f(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100000), dest=1)  # same node
                comm.send(np.zeros(100000), dest=2)  # across nodes
            elif comm.rank in (1, 2):
                comm.recv(source=0)
            return comm.now()

        res = spmd(4, f, machine=machine)
        t_intra = res.results[1]
        t_inter = res.results[2]
        assert t_intra < t_inter

    def test_hybrid_beta_exceeds_pure_per_node(self):
        mpi = pace_phoenix_cpu("mpi")
        hyb = pace_phoenix_cpu("hybrid")
        # per-rank inter-node bandwidth: hybrid rank owns (most of) the NIC
        assert hyb.beta < mpi.beta
        # but aggregate node bandwidth: pure MPI's 24 concurrent streams
        # extract at least as much of the wire
        assert mpi.beta / mpi.ranks_per_node <= hyb.beta / hyb.ranks_per_node / 0.59

    def test_same_schedule_cheaper_comm_on_fatter_links(self, spmd):
        from repro.core import ca3dmm_matmul
        from repro.core.plan import Ca3dmmPlan
        from repro.layout import DistMatrix, dense_random

        m = n = k = 48
        P = 8
        plan = Ca3dmmPlan(m, n, k, P)

        def f(comm):
            a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
            b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
            ca3dmm_matmul(a, b)
            tr = comm.transport.trace(comm.world_rank)
            comm_time = sum(p.comm_time for p in tr.phases.values())
            return comm_time

        slow = MachineModel(nic_beta=8e-10, ranks_per_node=2)
        fast = MachineModel(nic_beta=8e-12, ranks_per_node=2)
        t_slow = max(run_spmd(P, f, machine=slow).results)
        t_fast = max(run_spmd(P, f, machine=fast).results)
        assert t_fast < t_slow

    def test_laptop_uniform_links(self):
        from repro.machine.model import laptop

        m = laptop()
        assert m.msg_time(1000, 0, 1) == m.msg_time(1000, 0, 999999)
