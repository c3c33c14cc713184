"""Message envelopes, wildcard constants, and reduction operators.

Payloads mirror mpi4py's split between buffer-mode (plain numpy arrays,
copied and counted byte-exactly) and pickle-mode (arbitrary Python
objects, counted by their pickled size).  A pickle-mode value nobody can
change — numbers, strings, tuples of them — is counted the same way and
then handed to the receiver as it is instead of being unpickled from a
copy, and so is a :class:`Hop`, a list of such values and of private
copies of arrays, counted as its pickle without being pickled.
All traffic accounting in the tracer uses the byte sizes defined here,
so the executed communication volumes can be compared against the
paper's analytic formulas.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
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

#: The pickler's frame target, 64 KiB.  At the first ``save()`` boundary
#: where the open frame holds this much, the pickler commits it; a buffer
#: this long commits the open frame and is written outside any, its
#: opcode included.  A committed frame costs a 9-byte FRAME header when it
#: holds 4 bytes or more.
FRAME_TARGET = 64 * 1024


def _blob(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


class _Counter:
    """A file that keeps only the number of bytes written to it."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def write(self, data) -> None:
        self.n += memoryview(data).nbytes


def pickled_size(value: Any) -> int:
    """The length of ``value``'s pickle, without the blob: the pickler
    writes each frame, and each buffer of 64 KiB or more by reference,
    into a counter."""
    counter = _Counter()
    pickle.Pickler(counter, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return counter.n


def _int_bytes(v: int) -> int | None:
    """What a pickle spends on the non-negative int ``v``: BININT1 (2)
    below 256, BININT2 (3) below 65 536, BININT (5) below 2**31."""
    return 2 if v < 256 else 3 if v < 65_536 else 5 if v < 2 ** 31 else None


def _order(a: np.ndarray) -> str | None:
    """The order numpy pickles a contiguous array's buffer in; ``None``
    for an array that is neither (numpy pickles a C-order copy of its
    bytes another way, and the receiver gets an array that owns them)."""
    flags = a.flags
    return "C" if flags.c_contiguous else "F" if flags.f_contiguous else None


def _buffer_bytes(a: np.ndarray) -> int:
    """The opcode and the bytes of the buffer an array — or its handed
    copy — is pickled with: BYTEARRAY8 (9) when it is writeable or not
    contiguous, else the shortest BINBYTES that holds it (2, 5 or 9)."""
    n = a.nbytes
    if a.flags.writeable or _order(a) is None:
        return 9 + n
    return n + (2 if n < 256 else 5 if n < 2 ** 32 else 9)


class _Probe(getattr(pickle, "_Pickler", pickle.Pickler)):
    """The pure-Python pickler, noting where each ``save()`` begins — the
    boundaries at which the C pickler may commit a frame.  (It reads the
    pure-Python pickler's internals; on a Python whose internals differ,
    :func:`measure_form` finds no form and the counter prices.)"""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.saves: list[tuple[int, Any]] = []

    def save(self, obj, save_persistent_id=True):
        self.saves.append((self.framer.current_frame.tell(), obj))
        super().save(obj, save_persistent_id)


class _Runs:
    """One block's pickle cut at its ``save()`` boundaries: ``runs[j]``
    is the bytes from one boundary to the next, less those of the int or
    the buffer it begins with (``ints``: the runs that begin with each of
    the block's variable ints, ``buf``: the run that begins with its
    buffer).  ``base`` is their sum."""

    __slots__ = ("runs", "ints", "buf", "base", "head", "tail")

    def __init__(self, saves: list, end: int, ints: list, data: np.ndarray):
        offsets = sorted({o for o, _obj in saves})
        index = {o: j for j, o in enumerate(offsets)}
        runs = [b - a for a, b in zip(offsets, offsets[1:] + [end])]
        self.ints = tuple(index[o] for o, _v in ints)
        for j, (_o, v) in zip(self.ints, ints):
            runs[j] -= _int_bytes(v)
        self.buf = index[next(o for o, obj in saves if type(obj) is pickle.PickleBuffer)]
        runs[self.buf] -= _buffer_bytes(data)
        self.runs = tuple(runs)
        self.base = sum(runs)
        #: how many of the variable ints come before the buffer
        self.head = sum(j < self.buf for j in self.ints)
        self.tail = sum(runs[self.buf + 1:])

    def of(self, ints, data: np.ndarray) -> list[int]:
        runs = list(self.runs)
        for j, v in zip(self.ints, ints):
            runs[j] += _int_bytes(v)
        runs[self.buf] += _buffer_bytes(data)
        return runs


class Form:
    """How every block of one sort — an array of one dtype and layout, or
    a redistribution piece ``(Rect, array)`` of one dtype — sits in a
    list's pickle: as the list's first such block, which also writes what
    the later ones refer back to (numpy's array constructor, the dtype
    class, the byte order and order letters; a piece's ``Rect`` class and
    field names), and as a later one.  ``parts(block)`` is the block's
    variable ints — the array's shape, after a piece's ``Rect`` fields —
    and its array; ``base`` is what a later block adds besides those ints
    and the array's buffer.  Measured once per process by
    :func:`measure_form`, so no module path is written down."""

    __slots__ = ("first", "later", "base", "extra", "sort", "parts")

    def __init__(self, first: _Runs, later: _Runs, sort: tuple, parts: Callable):
        self.first, self.later, self.sort, self.parts = first, later, sort, parts
        self.base = later.base
        self.extra = first.base - later.base  #: what the first block adds more

    def size(self, block: Any) -> int | None:
        """What ``block`` adds to a list's pickle as a later block;
        ``None`` for an int too wide to price."""
        ints, data = self.parts(block)
        total = self.base + _buffer_bytes(data)
        for v in ints:
            width = _int_bytes(v)
            if width is None:
                return None
            total += width
        return total

    def split(self, block: Any, first: bool) -> tuple[int, int, int, int]:
        """``(head, buffer, tail, large)``: the bytes of ``block``'s runs
        before the one its buffer begins, of that run and after it, and
        the buffer's bytes when the pickler writes it outside any frame
        (else 0)."""
        ints, data = self.parts(block)
        runs = self.first if first else self.later
        widths = [_int_bytes(v) for v in ints]
        buffer = _buffer_bytes(data)
        head = sum(runs.runs[:runs.buf]) + sum(widths[:runs.head])
        tail = runs.tail + sum(widths[runs.head:])
        return head, runs.runs[runs.buf] + buffer, tail, buffer * (data.nbytes >= FRAME_TARGET)

    def runs(self, block: Any, first: bool) -> tuple[list[int], int]:
        """``block``'s runs, and the index of the one its buffer begins."""
        ints, data = self.parts(block)
        runs = self.first if first else self.later
        return runs.of(ints, data), runs.buf


def measure_form(window: list, parts: Callable, sort: tuple) -> Form | None:
    """The :class:`Form` of ``window``'s two blocks, which are tiny: the
    first as a first block, the second as a later one.  Each block's
    variable ints are the ints saved before its array (a piece's ``Rect``
    fields) and its shape's.  ``None`` when the pure-Python pickler does
    not write what the C pickler does, or has not the internals
    :class:`_Probe` reads."""
    try:
        out, written = io.BytesIO(), io.BytesIO()
        probe = _Probe(out)
        probe.dump(window)
        pickle.Pickler(written, protocol=pickle.HIGHEST_PROTOCOL).dump(window)
        raw = out.getvalue()
        if raw != written.getvalue() or len(raw) >= FRAME_TARGET:
            return None
        saves = probe.saves
        starts = [next(o for o, obj in saves if obj is block) for block in window]
        ends = starts[1:] + [len(raw) - 13]  # PROTO, FRAME, EMPTY_LIST ... APPENDS, STOP
        profiles = []
        for block, start, end in zip(window, starts, ends):
            want, data = parts(block)
            mine = [(o, obj) for o, obj in saves if start <= o < end]
            head = next(k for k, (_o, obj) in enumerate(mine) if obj is data)
            shape = next(k for k, (_o, obj) in enumerate(mine)
                         if k > head and type(obj) is tuple and obj == data.shape)
            ints = [(o, v) for o, v in mine[:head] if type(v) is int]
            ints += mine[shape + 1:shape + 1 + data.ndim]
            if tuple(v for _o, v in ints) != tuple(want):
                return None
            profiles.append(_Runs(mine, end, ints, data))
    except (AttributeError, TypeError, ValueError, KeyError, IndexError, StopIteration):
        return None
    return Form(*profiles, sort, parts)


def _array_parts(a: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    return a.shape, a


@lru_cache(maxsize=None)
def _array_form(dtype: str, order: str, ndim: int) -> Form | None:
    shape = (2,) * ndim if order == "F" else (1,) * ndim
    window = [np.zeros(shape, dtype, order=order).view(np.dtype(dtype, False, True))
              for _ in range(2)]
    return measure_form(window, _array_parts, ("array", dtype, order))


def handed_array(value: Any) -> bool:
    """Whether an allgather hands ``value`` over as copies: an exact
    ndarray of a native builtin numeric or bool dtype without metadata."""
    if type(value) is not np.ndarray:
        return False
    dtype = value.dtype
    return dtype.isnative and dtype.kind in "biufc" and dtype.metadata is None


def array_form(a: np.ndarray) -> Form | None:
    """The :class:`Form` of the copy :func:`hand_over` makes of ``a`` (a
    :func:`handed_array`), ``None`` if it cannot be measured."""
    return _array_form(a.dtype.str, _order(a) or "C", a.ndim)


def _handed_copy(a: np.ndarray, dtypes: dict) -> np.ndarray:
    """What unpickling ``a`` gives: same order and writeable flag (numpy
    pickles a read-only contiguous buffer as bytes), and a dtype object of
    its own — one per dtype object of the message (``dtypes``), as the
    pickle memo shares it."""
    dtype = a.dtype
    fresh = dtypes.get(id(dtype))
    if fresh is None:
        fresh = dtypes[id(dtype)] = np.dtype(dtype.type, False, True)
    flags = a.flags
    if flags.c_contiguous:
        out = a.copy().view(fresh)
    elif flags.f_contiguous:
        out = a.copy("F").view(fresh)
    else:
        out = np.empty(a.shape, fresh)
        np.copyto(out, a)
        return out
    if not flags.writeable:
        out.flags.writeable = False
    return out


class Hop:
    """A list handed to its receiver instead of pickled: one collective
    hop's window or one redistribution batch.  The sender built
    ``blocks`` for this message and lets go of it, and nobody else can
    reach what is in it to change it: every block is immutable
    (:func:`is_immutable`) or a private copy made for this message (an
    allgather's arrays, see :func:`hand_over`; a redistribution batch's
    ``(Rect, ndarray)`` pieces).  ``sizes[i]`` is what ``blocks[i]`` adds
    to the list's pickle as a later block — measured by :func:`detached`
    at an allgather block's origin, summed by :meth:`Form.size` or from a
    piece's parts by :mod:`repro.layout.redistribute` — or ``None`` when
    it cannot be told without pickling.  ``forms[i]`` is the
    :class:`Form` of an array block (``None`` for an atom; ``forms`` is
    ``None`` when every block is one).  ``wire``, if given, is the list
    the window costs instead of ``blocks``: the sender's own array as it
    is, where numpy pickles it unlike its copy.  It costs the wire what
    the plain list costs (:func:`hop_bytes`) and arrives as this object."""

    __slots__ = ("blocks", "sizes", "forms", "wire")

    def __init__(self, blocks: list, sizes: list, forms: list | None = None,
                 wire: list | None = None):
        self.blocks = blocks
        self.sizes = sizes
        self.forms = forms
        self.wire = wire


def hand_over(window: list, sizes: list, forms: list, wire: list | None = None) -> Hop:
    """A Bruck window as a :class:`Hop`: each array in it a private copy
    made for this message, looking like the unpickled one (see
    :func:`_handed_copy`); atoms travel as they are."""
    dtypes: dict = {}
    blocks = [_handed_copy(b, dtypes) if type(b) is np.ndarray else b for b in window]
    return Hop(blocks, sizes, forms, wire)


def hop_bytes(hop: Hop) -> int | None:
    """The length of the pickle of ``hop.blocks``, or ``None`` when the
    sizes cannot vouch for it.  The framing plus the blocks' sizes, the
    first array's adding what it writes for the later ones, plus one
    APPEND after a single block or a MARK/APPENDS pair per 1 000 (the
    pickler's batch) — and a FRAME header per frame the pickler cuts.
    Arrays must share one :attr:`Form.sort`, and at most 200 blocks the
    pickle memoizes (flat tuples) may come before the first: a
    back-reference to what the first wrote is then two bytes long."""
    sizes = hop.sizes
    if None in sizes:
        return None
    n = len(sizes)
    content = _LIST_FRAMING - 11 + sum(sizes) + (1 if n == 1 else (n + 999) // 1000 * 2)
    forms, first = hop.forms, None
    if forms is not None:
        if forms[0] is not None and forms.count(forms[0]) == n:  # one form
            first = 0
        else:
            sorts = {f.sort for f in forms if f is not None}
            if len(sorts) > 1:
                return None
            if sorts:
                first = next(i for i, f in enumerate(forms) if f is not None)
                if sum(type(b) not in _UNMEMOIZED for b in hop.blocks[:first]) > 200:
                    return None
        if first is not None:
            content += forms[first].extra
    if content < FRAME_TARGET:  # one frame
        return content + 11
    return _framed(hop.blocks, sizes, forms, first, content)


def _framed(blocks: list, sizes: list, forms: list | None, first: int | None,
            content: int) -> int | None:
    """PROTO + ``content`` + 9 per FRAME header, walking the list the way
    the pickler writes it: a boundary at each block's ``save()`` (and
    within it, at each of a :class:`Form`'s runs), where a frame that
    holds :data:`FRAME_TARGET` bytes is committed; a large buffer commits
    the open frame and is written outside any.  ``None`` for a block the
    walk cannot see into (anything but an atom or a formed block)."""
    n = len(sizes)
    frames = 0
    cur = 2  # EMPTY_LIST, MEMOIZE
    for i, size in enumerate(sizes):
        if n > 1 and i % 1000 == 0:
            cur += 1  # MARK
        form = None if forms is None else forms[i]
        if i == first:
            size += form.extra
        if cur >= FRAME_TARGET:
            frames += 1
            cur = 0
        if cur + size < FRAME_TARGET:
            cur += size
        elif form is None:
            if type(blocks[i]) not in _UNMEMOIZED:
                return None
            cur += size
        else:
            head, buf, tail, large = form.split(blocks[i], i == first)
            if not large and cur + head < FRAME_TARGET <= cur + head + buf:
                # The target falls in the buffer's run, as it mostly does:
                # the frame is committed where that run ends.
                frames += 1
                cur = tail
            else:
                runs, buf = form.runs(blocks[i], i == first)
                cur, frames = _walk(runs, buf, large, cur, frames)
        if n > 1 and (i % 1000 == 999 or i == n - 1):
            cur += 1  # APPENDS
    cur += 2 if n == 1 else 1  # (APPEND,) STOP
    return 2 + content + 9 * (frames + (cur >= 4))


def _walk(runs: list[int], buf: int, large: int, cur: int, frames: int) -> tuple[int, int]:
    """One block's ``runs`` (``buf``: the one its buffer begins; ``large``:
    that buffer's bytes when it is written outside any frame, else 0),
    from an open frame of ``cur`` bytes: the open frame's bytes after it,
    and ``frames`` plus the frames committed inside it."""
    for j, run in enumerate(runs):
        if cur >= FRAME_TARGET:
            frames += 1
            cur = 0
        if large and j == buf:
            frames += cur >= 4
            cur = run - large
        else:
            cur += run
    return cur, frames


def payload_pack(value: Any) -> tuple[Any, int, bool]:
    """Prepare ``value`` for transport.

    Returns ``(stored, nbytes, handed)``.  An exact ndarray whose dtype
    holds no object references is copied (emulating MPI buffer
    semantics: the sender may overwrite its buffer immediately after
    ``send`` returns) and the copy is handed to the receiver, priced at
    its bytes.  Everything else — a masked array, a matrix, an
    ``object`` array among them — is priced by the length of its pickle.
    An immutable value needs the pickle for nothing else: the receiver is
    handed the object, which it cannot change.  (Such values are small:
    ``len(pickle.dumps(value))`` prices them in a third of the time the
    byte counter takes.)  A :class:`Hop`, whose blocks nobody but the
    receiver can change, is handed over too, priced by :func:`hop_bytes`
    — or, when that cannot vouch for it or the hop names its ``wire``,
    by pickling it into a byte counter (:func:`pickled_size`), which
    builds no blob.
    Any other object travels as the pickle, which isolates the receiver
    from later sender-side mutation.  A top-level ``bytes`` stays a pickle
    too: to whoever holds ``stored`` it would look like one.
    """
    kind = type(value)
    if kind is np.ndarray and not value.dtype.hasobject:
        stored = np.ascontiguousarray(value).copy()
        return stored, stored.nbytes, True
    if kind is Hop:
        if value.wire is not None:
            return value, pickled_size(value.wire), True
        nbytes = hop_bytes(value)
        return value, pickled_size(value.blocks) if nbytes is None else nbytes, True
    blob = _blob(value)
    if kind is not bytes and is_immutable(value):
        return value, len(blob), True
    return blob, len(blob), False


def payload_unpack(stored: Any, handed: bool) -> Any:
    """Inverse of :func:`payload_pack` on the receiving side."""
    if handed:
        return stored
    return pickle.loads(stored)


def detached(value: Any) -> tuple[Any, int | None]:
    """A copy of ``value`` sharing no object with it — what every
    receiver of a pickled payload gets — and the bytes the copy adds to
    any pickled list it sits in: its pickle's length, when ``value`` is
    an atom of :data:`_UNMEMOIZED` or a flat tuple of them, and ``None``
    (unknown: price the list by pickling it) otherwise.  (The list is
    only there because a list is never handed over; its pickle is the
    framing, the block and one APPEND.)"""
    stored, nbytes, handed = payload_pack([value])
    kind = type(value)
    if kind in _UNMEMOIZED or (kind is tuple and _UNMEMOIZED.issuperset(map(type, value))):
        nbytes -= _LIST_FRAMING + 1
    else:
        nbytes = None
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
