"""Classical triangles: Stirling numbers of both kinds, unsigned Lah numbers,
and higher-order Bernoulli numbers.

The three triangles obey one two-term recurrence,
T(m, k) = T(m-1, k-1) + (a(m-1) + bk) T(m-1, k) with T(0, 0) = 1, and
differ only in the weights (a, b): (1, 0) for the unsigned first kind,
(0, 1) for the second kind and (1, 1) for the unsigned Lah numbers.  The
negated weights give the signed triangles: (0, -1) the signed second
kind S(n, k)(-1)^(n-k), (-1, 0) the signed first kind.  One row builder
fills every triangle, memoised per row; the generating-function routes
are kept to the test suite as cross-checks.  One kernel, ``_transform``,
applies a triangle to a column of integers without building it, and
``_binomial_sums`` forms the EGF product of two such columns.  Library
code applies a Stirling triangle only through that kernel: the multi
families, the moments of Poisson, binomial and geometric laws, and the
resolvent ``R``.  The memoised rows serve the entries, the check sides
and ``table``, which read them through ``_row`` and ``_columns``; so a
check that reads the rows tests a library value built without them.
Entries are plain ints (the triangles are integral), while Bernoulli
values are Fractions.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import comb, factorial

from .series import Series, _check_entry, _check_natural, _make, exp_t

__all__ = ["stirling1", "stirling2", "lah", "bernoulli_higher", "bernoulli_higher_series"]


# the weights (a, b) of each triangle
_FIRST, _SECOND, _LAH, _SIGNED_SECOND = (1, 0), (0, 1), (1, 1), (0, -1)
# rows 0..len-1 of each triangle, keyed by its weights
_ROWS = {weights: {0: (1,)} for weights in (_FIRST, _SECOND, _LAH)}


def _row(weights: tuple[int, int], n: int) -> tuple[int, ...]:
    """Row n of the triangle with ``weights``: the unsigned first-kind
    Stirling numbers (weight m - 1), the second-kind ones (k), the
    unsigned Lah numbers (m - 1 + k) or any other weights (a, b).

    The rows are memoised and filled upward from the last one held, in a
    loop, so a cold row costs no recursion.  Row m is stored only after
    row m - 1, and threads that fill the same row store equal values, so
    no lock is needed.
    """
    a, b = weights
    rows = _ROWS.setdefault(weights, {0: (1,)})
    for m in range(len(rows), n + 1):
        prev = (0, *rows[m - 1], 0)  # prev[k] = T(m-1, k-1)
        c = a * (m - 1)
        rows[m] = tuple([x + (c + b * k) * y for k, (x, y) in enumerate(zip(prev, prev[1:]))])
    return rows[n]


def _transform(weights: tuple[int, int], x) -> list[int]:
    """The triangle of :func:`_row` applied to the integers ``x``:
    b_n = sum_k T(n, k) x_k for n = 0..len(x) - 1, with no triangle built.

    By the row recurrence b_n = sum_j T(n-1, j) (D_(n-1) x)_j, where
    (D_m z)_k = (am + bk) z_k + z_(k+1).  The D_m differ only by multiples
    of the identity, so they commute and b_n = (D_(n-1) ... D_0 x)_0.  Before
    row n one list holds b_0 .. b_(n-1) and then z = D_(n-1) ... D_0 x,
    whose first entry is b_n; row n writes D_n z over it one slot to the
    right, from the top down, so b_n stays in front.  Each row is one loop
    of products by small ints.
    """
    a, b = weights
    y = list(x)
    top = len(y) - 1
    for n in range(top):
        # slot j holds z_(j-n-1) after the step, whose weight is an + b(j-n-1)
        c = a * n - b * (n + 1)
        for j in range(top, n, -1):
            y[j] = (c + b * j) * y[j - 1] + y[j]
    return y


def _binomial_sums(a: Sequence[int], b: Sequence[int], top: int) -> list[int]:
    """sum_{m=0}^{n} C(n, m) a[m] b[n-m] for n = 0..top (none when top < 0):
    the EGF product of the columns ``a`` and ``b``, with ``C(n, m)`` carried
    along each row by ``C(n, m + 1) = C(n, m) (n - m) / (m + 1)``."""
    sums = [0] * (top + 1)
    for n in range(top + 1):
        acc = 0
        c = 1
        for m in range(n + 1):
            if a[m]:
                acc += c * a[m] * b[n - m]
            c = c * (n - m) // (m + 1)
        sums[n] = acc
    return sums


@lru_cache(maxsize=None)
def _columns(weights: tuple[int, int], order: int) -> tuple:
    """The triangle of :func:`_row` by columns: entry k holds T(0, k) .. T(order, k)."""
    rows = [_row(weights, n) for n in range(order + 1)]
    return tuple(tuple([0] * k + [row[k] for row in rows[k:]]) for k in range(order + 1))


def _check_lattice(n: int, k: int) -> None:
    _check_natural(n, "n")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind; 0 off the triangle."""
    _check_lattice(n, k)
    return _row(_FIRST, n)[k] if 0 <= k <= n else 0


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 off the triangle."""
    _check_lattice(n, k)
    return _row(_SECOND, n)[k] if 0 <= k <= n else 0


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
def _bernoulli_higher_series(r: int, order: int) -> Series:
    # (e^t - 1)/t: the coefficients of e^t from t^1 on, shifted down
    e = exp_t(order + 1)
    return _make(e._num[1:], e._den).inverse() ** r


def bernoulli_higher_series(r: int, order: int) -> Series:
    """(t/(e^t - 1))^r as an exact series of the requested order.

    The r-th power of the inverse of (e^t - 1)/t, whose coefficients are
    1/(n+1)!: every step works at the requested order, whatever r, and the
    power takes about 2 log2(r) products.
    """
    return _bernoulli_higher_series(_check_natural(r, "the power r"), _check_natural(order))


def bernoulli_higher(n: int, r: int, order: int | None = None) -> Fraction:
    """Higher-order Bernoulli number: n-th EGF coefficient of (t/(e^t-1))^r."""
    order = _check_entry(n, order)
    return bernoulli_higher_series(r, order).egf_coeff(n)
