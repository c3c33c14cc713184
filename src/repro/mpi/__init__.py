"""Virtual MPI: a discrete-event, traffic-measuring MPI look-alike.

This subpackage is the substrate substituting for a real MPI cluster
(see DESIGN.md §2).  Public surface:

* :func:`run_spmd` — the ``mpiexec`` equivalent,
* :class:`Comm` — communicators with mpi4py-style p2p and collectives,
* :class:`Cart2D` / :func:`grid_comms` — cartesian grid helpers,
* wildcard/op constants (:data:`ANY_SOURCE`, :data:`ANY_TAG`,
  :data:`SUM`, :data:`MAX`, :data:`MIN`, :data:`PROD`),
* :class:`SpmdResult` / :class:`RankTrace` — measured traffic and
  simulated time, the raw material of the reproduction's measurements,
* :class:`FaultPlan` / :class:`LinkFault` / :class:`RankFault` /
  :class:`RetryPolicy` — deterministic fault injection
  (:mod:`repro.mpi.faults`), passed to :func:`run_spmd` via ``faults=``.
"""

from .comm import Comm
from .datatypes import ANY_SOURCE, ANY_TAG, MAX, MIN, PROD, SUM, Op, Status
from .errors import (
    AbortError,
    BufferError_,
    CommError,
    CommRevokedError,
    DeadlockError,
    InjectedAbortError,
    RankError,
    RankFailedError,
    RankKilledError,
    RecvTimeoutError,
    TagError,
    VMpiError,
)
from .faults import ANY_RANK, FaultPlan, LinkFault, RankFault, RetryPolicy
from .request import CollRequest, Request, wait_all, wait_any
from .runtime import SpmdResult, run_spmd
from .topology import Cart2D, grid_comms
from .transport import PhaseStats, RankTrace, Transport

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "Op",
    "Status",
    "Comm",
    "Cart2D",
    "grid_comms",
    "Transport",
    "PhaseStats",
    "RankTrace",
    "CollRequest",
    "Request",
    "wait_all",
    "wait_any",
    "run_spmd",
    "SpmdResult",
    "VMpiError",
    "RankError",
    "TagError",
    "BufferError_",
    "CommError",
    "DeadlockError",
    "AbortError",
    "RecvTimeoutError",
    "InjectedAbortError",
    "RankKilledError",
    "RankFailedError",
    "CommRevokedError",
    "ANY_RANK",
    "FaultPlan",
    "LinkFault",
    "RankFault",
    "RetryPolicy",
]
