"""Message envelopes, wildcard constants, and reduction operators.

Two payload kinds are supported, mirroring mpi4py's split between
buffer-mode (numpy arrays, counted byte-exactly) and pickle-mode (arbitrary
Python objects, counted by their pickled size).  All traffic accounting in
the tracer uses the byte sizes defined here, so the executed communication
volumes can be compared against the paper's analytic formulas.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Wildcard source for :meth:`Comm.recv`.
ANY_SOURCE: int = -1
#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG: int = -1

#: Tags >= this value are reserved for internal collective traffic.
INTERNAL_TAG_BASE: int = 1 << 28


@dataclass
class Status:
    """Receive status: who sent the message, with what tag, and how big."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0


class Op:
    """A reduction operator usable by reduce / allreduce / reduce_scatter.

    Wraps a binary numpy ufunc-like callable operating elementwise on
    arrays.  ``commutative`` is informational; the provided collectives
    always apply operands in a deterministic order so non-commutative
    user ops still give reproducible results.
    """

    def __init__(self, fn: Callable[[Any, Any], Any], name: str, commutative: bool = True):
        self.fn = fn
        self.name = name
        self.commutative = commutative

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name})"


SUM = Op(lambda a, b: a + b, "sum")
PROD = Op(lambda a, b: a * b, "prod")
MAX = Op(np.maximum, "max")
MIN = Op(np.minimum, "min")


def payload_pack(value: Any) -> tuple[Any, int, bool]:
    """Prepare ``value`` for transport.

    Returns ``(stored, nbytes, is_array)``.  Arrays are copied (emulating
    MPI buffer semantics: the sender may overwrite its buffer immediately
    after ``send`` returns); everything else is pickled, which both
    isolates the receiver from later sender-side mutation and yields an
    honest byte count.
    """
    if isinstance(value, np.ndarray):
        stored = np.ascontiguousarray(value).copy()
        return stored, stored.nbytes, True
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, len(blob), False


def payload_unpack(stored: Any, is_array: bool) -> Any:
    """Inverse of :func:`payload_pack` on the receiving side."""
    if is_array:
        return stored
    return pickle.loads(stored)


@dataclass
class Message:
    """An in-flight message in a transport mailbox."""

    ctx: int  #: communicator context id
    src_world: int  #: sender's world rank
    dst_world: int  #: receiver's world rank
    tag: int
    stored: Any
    nbytes: int
    is_array: bool
    arrival: float  #: simulated time at which the payload is available
    seq: int = field(default=0)  #: global order stamp (FIFO tiebreak)

    def matches(self, src_world: int, tag: int) -> bool:
        """Whether a receive posted for ``(src_world, tag)`` takes this."""
        if src_world != ANY_SOURCE and self.src_world != src_world:
            return False
        return tag == ANY_TAG or self.tag == tag

    def unpack(self) -> Any:
        return payload_unpack(self.stored, self.is_array)
