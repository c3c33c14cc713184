"""Message envelopes, wildcard constants, reduction operators, and what
a message weighs.

A message's ``nbytes`` is the size of the data it carries, by one rule
(:func:`nbytes_of`): an array counts its ``nbytes``, a number a word, a
string its bytes, and a container only what it holds — the latency term
α pays for the envelope, as a real MPI send of a derived datatype writes
no framing.  All traffic accounting in the tracer uses these sizes, so
the executed volumes compare with the paper's word counts (eq. (9)).

How a payload reaches its receiver is a separate matter, isolation.  As
in mpi4py's buffer mode a plain numpy array is copied; a value nobody can
change — numbers, strings, tuples of them, a frozen array or a read-only
view of one — is handed to the receiver as it is, and so is a
:class:`Hop`, a list of such values and of private copies of arrays.  A
list, tuple or dict of values the size rule knows travels as a private
copy made for the message (:func:`private_copy`: its frozen arrays
shared, every other array copied once); only a value holding something
else travels as its pickle.  Either way the receiver gets what the
sender cannot reach.
"""

from __future__ import annotations

import operator
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
    ``None``/``bool``/``int``/``float``/``str``/``bytes``, a numpy scalar
    but ``np.void`` (a view may write through it) or a tuple of such
    values.  Exact builtin types only — a subclass may carry state."""
    todo = [value]
    for v in todo:  # grows while it is walked: nesting costs no recursion
        t = type(v)
        if t is tuple:
            todo.extend(v)
        elif t not in _ATOMS and (t is np.void or not isinstance(v, np.generic)):
            return False
    return True


def is_frozen(value: Any) -> bool:
    """Whether ``value`` is an exact, non-``object``, read-only ndarray
    whose memory belongs to a read-only ndarray — itself, or the ``base``
    a view of it names.  numpy makes no view of such an array writeable
    and ``src/`` never re-enables a write, so nobody can change it."""
    if type(value) is not np.ndarray or value.dtype.hasobject or value.flags.writeable:
        return False
    owner = value if value.flags.owndata else value.base
    return type(owner) is np.ndarray and owner.flags.owndata and not owner.flags.writeable


def freeze(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: frozen (:func:`is_frozen`) if it owns its
    memory or is a view of a frozen array."""
    array.flags.writeable = False
    return array


#: What a Python scalar weighs: a word, two for a complex, nothing for None.
_SCALAR_BYTES = {type(None): 0, bool: 8, int: 8, float: 8, complex: 16}


def _blob(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def nbytes_of(value: Any) -> int:
    """What ``value`` weighs on the wire, in bytes.

    A non-``object`` ndarray or a numpy scalar weighs its ``nbytes``; a
    Python ``bool``, ``int`` or ``float`` 8, a ``complex`` 16, ``None``
    0; a ``str`` or ``bytes`` its length in bytes.  A list, tuple, dict
    (keys and values), ``object`` array or ``Rect`` weighs the sum of
    what it holds — a container adds nothing, as the latency term α
    already pays for the envelope — and a :class:`Hop` the sum of its
    blocks' sizes.  Only an object the rule does not know weighs its own
    pickle's length.  The walk keeps a stack, not the C stack: any
    nesting depth is fine."""
    total = 0
    todo = [value]
    while todo:
        v = todo.pop()
        t = type(v)
        if t is np.ndarray and not v.dtype.hasobject:
            total += v.nbytes
        elif t in _SCALAR_BYTES:
            total += _SCALAR_BYTES[t]
        elif t is tuple or t is list:
            todo.extend(v)
        elif t is str:
            total += len(v.encode("utf-8", "surrogatepass"))
        elif t is bytes or t is bytearray:
            total += len(v)
        elif t is dict:
            todo.extend(v.keys())
            todo.extend(v.values())
        elif t is np.ndarray:
            todo.extend(v.flat)
        elif t is Hop:
            total += sum(v.sizes)
        elif isinstance(v, np.generic):
            total += v.nbytes
        else:
            from ..layout.blocks import Rect  # repro.layout imports this module

            if t is Rect:
                todo.extend(v)
            else:
                total += len(_blob(v))
    return total


def handed_array(value: Any) -> bool:
    """Whether an allgather hands ``value`` over as private copies: an
    exact ndarray whose dtype holds no object references."""
    return type(value) is np.ndarray and not value.dtype.hasobject


class Hop:
    """A list handed to its receiver instead of pickled: one collective
    hop's window or one redistribution batch.  The sender built
    ``blocks`` for this message and lets go of it, and nobody else can
    change what is in it: every block is immutable (:func:`is_immutable`),
    a frozen array (:func:`is_frozen`), or a private copy made for this
    message (an allgather's other arrays, see :func:`hand_over`; a
    redistribution batch's ``(Rect, ndarray)`` pieces).  ``sizes[i]`` is
    what ``blocks[i]`` weighs (:func:`nbytes_of`), taken once where the
    block was made; the hop weighs their sum.  ``arrays`` says whether a
    block may be an array that is not frozen, which whoever forwards it
    must copy again; a hop of immutable and frozen blocks is forwarded
    without looking at them."""

    __slots__ = ("blocks", "sizes", "arrays")

    def __init__(self, blocks: list, sizes: list, arrays: bool):
        self.blocks = blocks
        self.sizes = sizes
        self.arrays = arrays


def hand_over(window: list, sizes: list) -> Hop:
    """A Bruck window, a list built for this message, as a :class:`Hop`:
    each array in it that is not frozen replaced by a private copy, in
    the order it was in (Fortran stays Fortran, anything else becomes
    C); frozen arrays and atoms travel as they are.  The list is changed
    in place, not copied: a second list per hop raised
    ``des_scale_p512``'s peak RSS by 8 %."""
    for i, block in enumerate(window):
        if type(block) is np.ndarray and not is_frozen(block):
            window[i] = block.copy("A")
    return Hop(window, sizes, True)


class _Unknown(Exception):
    """Raised by :func:`private_copy` on a value it cannot copy without a pickle."""


#: Leaves a container's private copy keeps as they are: nobody can change them.
_KEPT = _ATOMS | {complex}


def private_copy(value: Any, memo: dict | None = None) -> Any:
    """``value`` as only its receiver can reach it: atoms, numpy scalars,
    ``Rect``s, frozen arrays (:func:`is_frozen`) and tuples of nothing
    else as they are; every other array copied once (Fortran stays
    Fortran, anything else becomes C); lists, dicts and bytearrays built
    anew.  ``memo`` maps the id of each mutable value copied so far to
    its copy, so a value held twice is copied once and held twice, as a
    pickle would.  :class:`_Unknown` for anything the size rule does not
    know, and for an ``object`` array; ``RecursionError`` for a nesting
    deeper than the interpreter recurses."""
    if memo is None:
        memo = {}
    t = type(value)
    if t in _KEPT:
        return value
    if t is np.ndarray and not value.dtype.hasobject:
        if is_frozen(value):
            return value
        copy = memo.get(id(value))
        if copy is None:
            copy = memo[id(value)] = value.copy("A")
        return copy
    if t is tuple:
        items = [private_copy(v, memo) for v in value]
        return value if all(map(operator.is_, items, value)) else tuple(items)
    if t is list or t is dict or t is bytearray:
        copy = memo.get(id(value))
        if copy is None:
            if t is list:
                copy = memo[id(value)] = []
                copy.extend(private_copy(v, memo) for v in value)
            elif t is dict:
                copy = memo[id(value)] = {}
                for k, v in value.items():
                    copy[private_copy(k, memo)] = private_copy(v, memo)
            else:
                copy = memo[id(value)] = bytearray(value)
        return copy
    if isinstance(value, np.generic):  # a structured scalar may be a view
        return value.copy() if t is np.void else value
    from ..layout.blocks import Rect  # repro.layout imports this module

    if t is Rect:
        return value
    raise _Unknown


def payload_pack(value: Any) -> tuple[Any, int, bool]:
    """Prepare ``value`` for transport.

    Returns ``(stored, nbytes, handed)``; ``nbytes`` is what ``value``
    weighs (:func:`nbytes_of`).  An exact non-``object`` ndarray is
    copied once, into C order and its own shape (MPI buffer semantics:
    the sender may overwrite its buffer once ``send`` returns), and the
    copy is handed to the receiver; a frozen one (:func:`is_frozen`),
    which nobody can overwrite, is handed over as it is.  So is a value
    nobody can change (:func:`is_immutable`), and a :class:`Hop`, whose
    blocks nobody but the receiver can change.  A list, tuple or dict is
    handed over as a :func:`private_copy`.  Any other object — and a
    container holding one — travels as its pickle, which isolates the
    receiver from later sender-side mutation.  A top-level ``bytes``
    stays a pickle too: to whoever holds ``stored`` it would look like
    one.
    """
    kind = type(value)
    if kind is np.ndarray and not value.dtype.hasobject:
        stored = value if is_frozen(value) else value.copy("C")
        return stored, stored.nbytes, True
    if kind is Hop:
        return value, sum(value.sizes), True
    nbytes = nbytes_of(value)
    if kind is not bytes and is_immutable(value):
        return value, nbytes, True
    if kind is list or kind is tuple or kind is dict:
        try:
            return private_copy(value), nbytes, True
        except (_Unknown, RecursionError):
            pass
    return _blob(value), nbytes, False


def payload_unpack(stored: Any, handed: bool) -> Any:
    """Inverse of :func:`payload_pack` on the receiving side."""
    if handed:
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
