"""Message envelopes, wildcard constants, and reduction operators.

Payloads mirror mpi4py's split between buffer-mode (numpy arrays, copied
and counted byte-exactly) and pickle-mode (arbitrary Python objects,
counted by their pickled size).  A pickle-mode value nobody can change —
numbers, strings, tuples of them — is counted the same way and then
handed to the receiver as it is instead of being unpickled from a copy.
All traffic accounting in the tracer uses the byte sizes defined here,
so the executed communication volumes can be compared against the
paper's analytic formulas.
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


SUM = Op(lambda a, b: a + b, "sum")
PROD = Op(lambda a, b: a * b, "prod")
MAX = Op(np.maximum, "max")
MIN = Op(np.minimum, "min")


#: Types no holder can change; a tuple is immutable when everything in it is.
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})


def is_immutable(value: Any) -> bool:
    """Whether ``value`` is immutable all the way down: one of
    ``None``/``bool``/``int``/``float``/``str``/``bytes`` or a tuple of
    such values.  Exact types only — a subclass may carry state."""
    todo = [value]
    for v in todo:  # grows while it is walked: nesting costs no recursion
        t = type(v)
        if t is tuple:
            todo.extend(v)
        elif t not in _ATOMS:
            return False
    return True


class Hop:
    """The window one collective hop carries: a list the collective
    built for this message and lets go of, every block of it immutable
    (:func:`is_immutable`), so nothing reachable from it can be changed
    by anyone who keeps a reference.  It costs the wire what the plain
    list costs and arrives as this object."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: list):
        self.blocks = blocks


def payload_pack(value: Any) -> tuple[Any, int, bool]:
    """Prepare ``value`` for transport.

    Returns ``(stored, nbytes, handed)``.  Arrays are copied (emulating
    MPI buffer semantics: the sender may overwrite its buffer immediately
    after ``send`` returns) and the copy is handed to the receiver.
    Everything else is priced by the length of its pickle.  An immutable
    value (and a :class:`Hop`) needs the pickle for nothing else: the
    receiver is handed the object, which it cannot change.  Any other
    object travels as the pickle, which isolates the receiver from later
    sender-side mutation.  A top-level ``bytes`` stays a pickle too: to
    whoever holds ``stored`` it would look like one.
    """
    if isinstance(value, np.ndarray):
        stored = np.ascontiguousarray(value).copy()
        return stored, stored.nbytes, True
    kind = type(value)
    blob = pickle.dumps(
        value.blocks if kind is Hop else value, protocol=pickle.HIGHEST_PROTOCOL
    )
    if kind is Hop or (kind is not bytes and is_immutable(value)):
        return value, len(blob), True
    return blob, len(blob), False


def payload_unpack(stored: Any, handed: bool) -> Any:
    """Inverse of :func:`payload_pack` on the receiving side."""
    if handed:
        return stored
    return pickle.loads(stored)


def detached(value: Any) -> Any:
    """A copy of ``value`` sharing no object with it — what every
    receiver of a pickled payload gets.  (The list is only there because
    a list is never handed over.)"""
    stored, _nbytes, handed = payload_pack([value])
    return payload_unpack(stored, handed)[0]


@dataclass
class Message:
    """An in-flight message in a transport mailbox."""

    ctx: int  #: communicator context id
    src_world: int  #: sender's world rank
    dst_world: int  #: receiver's world rank
    tag: int
    stored: Any
    nbytes: int
    handed: bool  #: ``stored`` is what the receiver gets, not its pickle
    arrival: float  #: simulated time at which the payload is available
    seq: int = field(default=0)  #: global order stamp (FIFO tiebreak)

    def matches(self, src_world: int, tag: int) -> bool:
        """Whether a receive posted for ``(src_world, tag)`` takes this."""
        if src_world != ANY_SOURCE and self.src_world != src_world:
            return False
        return tag == ANY_TAG or self.tag == tag

    def unpack(self) -> Any:
        """What the receiver gets."""
        return self.stored if self.handed else payload_unpack(self.stored, False)
