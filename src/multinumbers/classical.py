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

from .series import Series, _check_entry, _check_order, _make, exp_t

__all__ = ["stirling1", "stirling2", "lah", "bernoulli_higher", "bernoulli_higher_series"]


# rows 0..len-1 of the unsigned first-kind (True) and second-kind (False) triangles
_ROWS = {True: {0: (1,)}, False: {0: (1,)}}


def _stirling_row(first_kind: bool, n: int) -> tuple[int, ...]:
    """Row n of the unsigned first-kind or the second-kind Stirling triangle.

    Both obey T(n, k) = T(n-1, k-1) + c T(n-1, k), with c = n - 1 for the
    first kind and c = k for the second.  The rows are memoised and filled
    upward from the last one held, in a loop, so a cold row costs no
    recursion.  Row m is stored only after row m - 1, and threads that
    fill the same row store equal values, so no lock is needed.
    """
    rows = _ROWS[first_kind]
    for m in range(len(rows), n + 1):
        prev = (0, *rows[m - 1], 0)  # prev[k] = T(m-1, k-1)
        mult = (m - 1,) * (m + 1) if first_kind else range(m + 1)
        rows[m] = tuple([a + c * b for a, b, c in zip(prev, prev[1:], mult)])
    return rows[n]


@lru_cache(maxsize=None)
def _stirling_columns(first_kind: bool, order: int, signed: bool = False) -> tuple:
    """The triangle of :func:`_stirling_row` by columns: entry k holds
    T(0, k) .. T(order, k), each times (-1)^(n-k) when ``signed``."""
    rows = [_stirling_row(first_kind, n) for n in range(order + 1)]
    flip = -1 if signed else 1
    return tuple(
        tuple([0] * k + [row[k] * flip ** (n - k) for n, row in enumerate(rows[k:], k)])
        for k in range(order + 1)
    )


@lru_cache(maxsize=None)
def _lah_columns(order: int) -> tuple:
    """The unsigned Lah triangle by columns, as :func:`_stirling_columns`:
    entry k holds L(0, k) .. L(order, k), from the recurrence
    L(n+1, k) = L(n, k-1) + (n+k) L(n, k) with L(0, 0) = 1."""
    rows = [(1,)]
    for n in range(order):
        prev = (0, *rows[n], 0)  # prev[k] = L(n, k-1)
        rows.append(tuple([a + (n + k) * b for k, (a, b) in enumerate(zip(prev, prev[1:]))]))
    return tuple(tuple([0] * k + [row[k] for row in rows[k:]]) for k in range(order + 1))


def _check_lattice(n: int, k: int) -> None:
    if not isinstance(n, int) or not isinstance(k, int) or n < 0:
        raise ValueError("triangle entries are indexed by integers with n >= 0")


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind; 0 off the triangle."""
    _check_lattice(n, k)
    if k < 0 or k > n:
        return 0
    return _stirling_row(True, n)[k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 off the triangle."""
    _check_lattice(n, k)
    if k < 0 or k > n:
        return 0
    return _stirling_row(False, n)[k]


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


@lru_cache(maxsize=None, typed=True)
def bernoulli_higher_series(r: int, order: int) -> Series:
    """(t/(e^t - 1))^r as an exact series of the requested order.

    The r-th power of the inverse of (e^t - 1)/t, whose coefficients are
    1/(n+1)!: every step works at the requested order, whatever r, and the
    power takes about 2 log2(r) products.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 0:
        raise ValueError("the power r must be a non-negative integer")
    # (e^t - 1)/t: the coefficients of e^t from t^1 on, shifted down
    e = exp_t(_check_order(order) + 1)
    return _make(e._num[1:], e._den).inverse() ** r


def bernoulli_higher(n: int, r: int, order: int | None = None) -> Fraction:
    """Higher-order Bernoulli number: n-th EGF coefficient of (t/(e^t-1))^r."""
    order = _check_entry(n, order)
    return bernoulli_higher_series(r, order).egf_coeff(n)
