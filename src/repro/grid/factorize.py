"""Small integer-factorization utilities for process-grid search.  Each
takes a count ``n >= 1``; the caches are typed, so ``True`` or ``8.0`` is
refused, not answered from ``1``'s or ``8``'s entry."""

from __future__ import annotations

from functools import lru_cache

from .. import args


@lru_cache(maxsize=4096, typed=True)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n``, ascending."""
    n = args.count("n", n)
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=4096, typed=True)
def prime_factors(n: int) -> tuple[int, ...]:
    """Prime factorization of ``n`` with multiplicity, ascending."""
    n = args.count("n", n)
    out: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def factor_triples(n: int):
    """Yield all ordered triples ``(a, b, c)`` with ``a*b*c == n``."""
    for a in divisors(n):
        rest = n // a
        for b in divisors(rest):
            yield a, b, rest // b


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def near_square_pair(n: int) -> tuple[int, int]:
    """The divisor pair ``(a, b)``, ``a <= b``, ``a*b == n`` with minimal b-a."""
    divs = divisors(n)
    a = max(d for d in divs if d * d <= divs[-1])
    return a, divs[-1] // a


def perfect_square_part(n: int) -> int:
    """Largest ``s`` such that ``s*s`` divides ``n``."""
    return max(d for d in divisors(n) if n % (d * d) == 0)
