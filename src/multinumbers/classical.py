"""Classical triangles: Stirling numbers of both kinds, unsigned Lah numbers,
and higher-order Bernoulli numbers.

Triangle entries come from the standard two-term recurrences, memoised per
row; the generating-function routes are kept to the test suite as
cross-checks.  Entries are plain ints (the triangles are integral), while
Bernoulli values are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import Series, _check_entry, exp_t

__all__ = ["stirling1", "stirling2", "lah", "bernoulli_higher", "bernoulli_higher_series"]


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling1_row(n - 1)
    row = [0] * (n + 1)
    for k in range(n + 1):
        v = prev[k - 1] if k >= 1 else 0
        if k <= n - 1:
            v += (n - 1) * prev[k]
        row[k] = v
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for k in range(n + 1):
        v = prev[k - 1] if k >= 1 else 0
        if k <= n - 1:
            v += k * prev[k]
        row[k] = v
    return tuple(row)


def _check_lattice(n: int, k: int) -> None:
    if not isinstance(n, int) or not isinstance(k, int) or n < 0:
        raise ValueError("triangle entries are indexed by integers with n >= 0")


def _triangle(entry, order: int) -> list[list[int]]:
    """The triangle ``entry`` by columns: entry k holds entry(0, k) .. entry(order, k)."""
    return [[entry(n, k) for n in range(order + 1)] for k in range(order + 1)]


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind; 0 off the triangle."""
    _check_lattice(n, k)
    if k < 0 or k > n:
        return 0
    return _stirling1_row(n)[k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 off the triangle."""
    _check_lattice(n, k)
    if k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]


def lah(n: int, k: int) -> int:
    """Unsigned Lah number C(n-1, k-1) * n!/k!; 0 off the triangle."""
    _check_lattice(n, k)
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1  # only k == 0 reaches here
    if k == 0:
        return 0
    return comb(n - 1, k - 1) * factorial(n) // factorial(k)


@lru_cache(maxsize=None)
def bernoulli_higher_series(r: int, order: int) -> Series:
    """(t/(e^t - 1))^r as an exact series of the requested order.

    Computed at internal order ``order + r`` so the valuation-r division
    loses no requested coefficients.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 0:
        raise ValueError("the power r must be a non-negative integer")
    work = order + r
    num = Series.t(work) ** r
    den = (exp_t(work) - 1) ** r
    return num.divide(den, r)


def bernoulli_higher(n: int, r: int, order: int | None = None) -> Fraction:
    """Higher-order Bernoulli number: n-th EGF coefficient of (t/(e^t-1))^r."""
    order = _check_entry(n, order)
    return bernoulli_higher_series(r, order).egf_coeff(n)
