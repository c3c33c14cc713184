"""The argument contract: what a size, a rank count, an amount and a
fraction are, stated once (docs/API.md, "Argument contract").

Every entry point calls these rules before it does any work.  Each
returns the value its caller keeps (a numpy scalar as the Python
number) or raises a ``ValueError`` of one form, ``name=value: <rule>``.
A Python ``int`` or ``float`` skips the ABC checks, which would be most
of a memo hit's time.  Imports nothing from ``repro``.
"""

from __future__ import annotations

import math
import numbers


def is_int(value) -> bool:
    """An integer: Python's, numpy's or a ``bool``, as an MPI color may be
    (``Comm.split`` raises its own ``CommError`` on anything else)."""
    return isinstance(value, numbers.Integral)


def count(name: str, value, low: int = 1) -> int:
    """``value`` as a Python ``int``, if it is an integer ``>= low`` and
    not a ``bool``.  A matrix dimension is a count ``>= 1``."""
    if type(value) is int:
        if value >= low:
            return value
    elif is_int(value) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise ValueError(f"{name}={value!r}: must be an int >= {low}")


def problem(m, n, k, nprocs) -> tuple[int, int, int, int]:
    """:func:`count` of a multiplication's ``m``, ``n``, ``k`` and ``nprocs``."""
    if (type(m) is int and type(n) is int and type(k) is int and type(nprocs) is int
            and m >= 1 and n >= 1 and k >= 1 and nprocs >= 1):
        return m, n, k, nprocs
    return count("m", m), count("n", n), count("k", k), count("nprocs", nprocs)


def amount(name: str, value, *, positive: bool = False, inf: bool = False):
    """``value`` as a Python number, if it is a finite real ``>= 0`` (``> 0``
    when ``positive``; ``+inf`` too when ``inf``)."""
    if type(value) is int or type(value) is float:
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        number = int(value) if isinstance(value, numbers.Integral) else float(value)
    else:
        number = math.nan
    if (number > 0 or number == 0 and not positive) and (number < math.inf or inf):
        return number
    rule = f"must be a finite number {'>' if positive else '>='} 0"
    raise ValueError(f"{name}={value!r}: {rule}{' or inf' if inf else ''}")


def cap(name: str, value, *, positive: bool = False):
    """A cap: ``None`` or ``+inf`` (no cap), or an :func:`amount`."""
    return None if value is None else amount(name, value, positive=positive, inf=True)


def fraction(name: str, value) -> float:
    """``value`` as a float, if ``0 < value <= 1``."""
    if type(value) is float and 0 < value <= 1:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value <= 1:
        return float(value)
    raise ValueError(f"{name}={value!r}: must be > 0 and <= 1")
