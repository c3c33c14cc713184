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


#: Atoms a pickle never memoizes.  One of them, or a flat tuple of them
#: that is an object of its own, adds the same bytes to any list it sits
#: in: nothing in it is written as a back-reference, and from protocol 4
#: on MEMOIZE takes no index.  (A ``str`` or ``bytes`` repeated in a list
#: is written once.)
_UNMEMOIZED = frozenset({type(None), bool, int, float})

#: What a list's pickle holds besides its items and their APPEND/APPENDS:
#: PROTO (2), FRAME (9), EMPTY_LIST + MEMOIZE (2), STOP (1).
_LIST_FRAMING = 14

#: The pickler's frame target, 64 KiB: a pickle this long may be cut into
#: frames, so a window this big is priced by pickling it.  It is also the
#: size :func:`detached` gives a block whose bytes depend on its neighbours.
FRAME_TARGET = 64 * 1024


class Hop:
    """A list handed to its receiver instead of pickled: one collective
    hop's window or one redistribution batch.  The sender built
    ``blocks`` for this message and lets go of it, and nobody else can
    reach what is in it to change it: every block is immutable
    (:func:`is_immutable`) or a private copy made for this message (a
    redistribution batch's ``(Rect, ndarray)`` pieces).  ``sizes[i]`` is
    what ``blocks[i]`` adds to the list's pickle — measured by
    :func:`detached` at an allgather block's origin, summed from a
    piece's parts by :mod:`repro.layout.redistribute` — or
    :data:`FRAME_TARGET` when it cannot be told without pickling.  It
    costs the wire what the plain list costs and arrives as this
    object."""

    __slots__ = ("blocks", "sizes")

    def __init__(self, blocks: list, sizes: list):
        self.blocks = blocks
        self.sizes = sizes


def payload_pack(value: Any) -> tuple[Any, int, bool]:
    """Prepare ``value`` for transport.

    Returns ``(stored, nbytes, handed)``.  Arrays are copied (emulating
    MPI buffer semantics: the sender may overwrite its buffer immediately
    after ``send`` returns) and the copy is handed to the receiver.
    Everything else is priced by the length of its pickle.  An immutable
    value needs the pickle for nothing else: the receiver is handed the
    object, which it cannot change — and so is a :class:`Hop`, whose
    blocks nobody but the receiver can change.  Any other
    object travels as the pickle, which isolates the receiver from later
    sender-side mutation.  A top-level ``bytes`` stays a pickle too: to
    whoever holds ``stored`` it would look like one.

    A :class:`Hop` is not pickled at all: the length of its list's pickle
    is the framing plus its blocks' sizes plus one APPEND after a single
    block, else a MARK/APPENDS pair per 1 000 (the pickler's batch) —
    byte for byte, until it nears the frame target or holds a block of
    unknown size, when the list is pickled after all.
    """
    if isinstance(value, np.ndarray):
        stored = np.ascontiguousarray(value).copy()
        return stored, stored.nbytes, True
    kind = type(value)
    if kind is Hop:
        n = len(value.sizes)
        nbytes = _LIST_FRAMING + sum(value.sizes) + (1 if n == 1 else (n + 999) // 1000 * 2)
        if nbytes < FRAME_TARGET:
            return value, nbytes, True
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


def detached(value: Any) -> tuple[Any, int]:
    """A copy of ``value`` sharing no object with it — what every
    receiver of a pickled payload gets — and the bytes the copy adds to
    any pickled list it sits in: its pickle's length, when ``value`` is
    an atom of :data:`_UNMEMOIZED` or a flat tuple of them, and
    ``FRAME_TARGET`` (unknown: price the list by pickling it)
    otherwise.  (The list is only there because a list is never handed
    over; its pickle is the framing, the block and one APPEND.)"""
    stored, nbytes, handed = payload_pack([value])
    kind = type(value)
    if kind in _UNMEMOIZED or (kind is tuple and _UNMEMOIZED.issuperset(map(type, value))):
        nbytes -= _LIST_FRAMING + 1
    else:
        nbytes = FRAME_TARGET
    return payload_unpack(stored, handed)[0], nbytes


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
