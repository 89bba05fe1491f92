"""Probabilistic number families attached to a random variable Y.

Every family replaces a deterministic building block by its moment
transform: e^t becomes the moment EGF M(t) = E[e^(Yt)], and powers of
1/(1-t) become R(t) = E[(1/(1-t))^Y].  Concretely:

    second kind          n! [t^n] (M - 1)^k / k!
    multi second kind    n! [t^n] Li(1 - e^(1 - M))
    Lah                  n! [t^n] (R - 1)^k / k!
    multi Lah            n! [t^n] Li(1 - e^(1 - R))
    Fubini, order r      n! [t^n] (1 - y (M - 1))^(-r)

Both shapes are read through the exponential Riordan array (1, u - 1)
(Shapiro et al., 1991), evaluated at a series u and cached here on the
value of u, so equal moment series share one entry.  The single-index
families (u - 1)^k / k! are its columns, one integer triangle per u,
:func:`_power_triangle`, which the entries, the identity checks and
``table`` all read.  The multi families apply it to one series: with
F_ks(s) = Li_ks(1 - e^(-s)), the cached series :func:`multilog._f_series`
the deterministic multi families are built from too,
Li_ks(1 - e^(1 - u)) = F_ks(u - 1), per (ks, u) in :func:`_li_family`, a
composition with u - 1.  At Y = point(1), where M = e^t, the multi second
kind equals the deterministic one, which ``multi`` builds from the EGF
column of the same series by a Stirling transform.

The second-kind numbers also admit an inclusion-exclusion form over the
moments of partial sums S_j = Y_1 + ... + Y_j: one integer triangle per
(Y, order) from the moment column alone, read by :func:`prob_stirling2_by_moments`
and the route-agreement check.  Powers of u - 1 come from the memo in ``series``,
and u - 1 is built once per u (:func:`_less_one`), so the triangle, the multi
families and the Fubini series at M read one series and its one memo.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, lcm

from .classical import _binomial_sums
from .moments import MomentSequence, _column, mgf, resolvent
from .multilog import _f_series, index_tuple
from .series import (
    Series,
    _check_entry,
    _check_natural,
    _compose,
    _fraction,
    _from_egf_column,
    _rational,
    _scaled,
    powers,
)

__all__ = [
    "prob_stirling2",
    "prob_stirling2_series",
    "prob_stirling2_by_moments",
    "prob_multi_stirling2",
    "prob_multi_stirling2_series",
    "prob_lah",
    "prob_lah_series",
    "prob_multi_lah",
    "prob_multi_lah_series",
    "prob_fubini",
    "prob_fubini_series",
]


@lru_cache(maxsize=None)
def _less_one(u: Series) -> Series:
    """u - 1, built once per moment series ``u``: the one key of the memo of
    its powers, which :func:`_power_triangle` and :func:`_li_family` read,
    and the series :func:`_fubini_inverse` scales."""
    return u - 1


@lru_cache(maxsize=None)
def _power_triangle(u: Series) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The exponential Riordan array (1, u - 1) at the order N of ``u``, as
    ``(columns, d)``: column k holds the EGF numerators of (u - 1)^k / k!
    for n = 0..N over the one denominator ``d``, in lowest terms.

    The powers m_k / d_k are read from the memo of powers of ``u - 1``.
    With u_0 = 1, as for M and R, (u - 1)^k vanishes below t^k, so column
    k is zero above row n = k and from there holds m_k[n] (n!/k!) (L/d_k)
    over L, the lcm of the d_k, the factor carried down the column.  The
    columns fill a preallocated list, and one content gcd over the whole
    triangle and at most one division pass in place reduce it, so the
    triangle costs a fixed number of calls, not one per column."""
    top = u.order
    memo = powers(_less_one(u), top)
    den = lcm(*[memo[k]._den for k in range(top + 1)])
    columns = [None] * (top + 1)
    for k in range(top + 1):
        power = memo[k]
        num, scale = power._num, den // power._den
        column = [0] * (top + 1)
        column[k] = num[k] * scale
        for n in range(k + 1, top + 1):
            scale *= n
            column[n] = num[n] * scale
        columns[k] = column
    g = gcd(den, *[x for column in columns for x in column])
    if g != 1:
        for k, column in enumerate(columns):
            for n in range(k, top + 1):
                column[n] //= g
    return tuple(map(tuple, columns)), den // g


def _power_column(u: Series, k: int) -> tuple[tuple[int, ...], int]:
    """Column k of :func:`_power_triangle`, the EGF numerators of
    (u - 1)^k / k! over its denominator; all zero for k > N, where the
    power vanishes mod t^(N+1) and no triangle is read."""
    if _check_natural(k, "k") > u.order:
        return (0,) * (u.order + 1), 1
    columns, d = _power_triangle(u)
    return columns[k], d


@lru_cache(maxsize=None)
def _li_family(ks: tuple[int, ...], u: Series) -> Series:
    """Li_ks(1 - e^(1 - u)) = F_ks(u - 1) at the order of ``u``: the series
    :func:`multilog._f_series` composed with u - 1, whose memo of powers
    :func:`_power_triangle` reads too.  The multi second kind at u = M and
    multi Lah at u = R.  Its arguments are valid by construction, so it
    composes by :func:`series._compose`, with no operand check."""
    return _compose(_f_series(ks, u.order), _less_one(u))


def prob_stirling2_series(ms: MomentSequence, k: int, order: int) -> Series:
    """(M - 1)^k / k!."""
    a, d = _power_column(mgf(ms, order), k)
    return _from_egf_column(list(a), d)


def prob_stirling2(ms: MomentSequence, n: int, k: int, order: int | None = None) -> Fraction:
    """Probabilistic Stirling number of the second kind (EGF route)."""
    order = _check_entry(n, order)
    a, d = _power_column(mgf(ms, order), k)
    return _fraction(a[n], d)


def _moment_route_columns(
    ms: MomentSequence, order: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The second-kind triangle by the inclusion-exclusion sum over moments
    of S_j, for n, k = 0..order, in integers:

        {n; k}_Y = (1/k!) sum_{j=0}^{k} C(k, j) (-1)^(k-j) E[S_j^n],

    returned as ``(columns, d)``: entry k of ``columns`` holds the
    numerators of {0; k}_Y .. {order; k}_Y over the one denominator ``d``.
    E[S_j^n] D^j is the j-fold binomial convolution of mu, the moments over D.
    The weights are carried, not recomputed: C(k, j) (-1)^(k-j) order!/k!
    along j by C(k, j + 1) = C(k, j) (k - j) / (j + 1), order!/k! along k,
    and D^(order - j) is formed once per j.  The convolutions and the
    columns fill preallocated lists, so the route makes one call per
    convolution and none per column.
    """
    mu, den = _column(ms, order)
    sums = [None] * (order + 1)
    sums[0] = [1] + [0] * order
    for j in range(order):
        sums[j + 1] = _binomial_sums(sums[j], mu, order)
    # lift[j] = D^(order - j), which brings E[S_j^n] D^j over D^order
    lift = [1] * (order + 1)
    for j in range(order - 1, -1, -1):
        lift[j] = lift[j + 1] * den
    top = factorial(order)
    columns, scale = [None] * (order + 1), top
    for k in range(order + 1):
        # c = C(k, j) (-1)^(k-j) order!/k!, carried along j from j = 0
        c = -scale if k % 2 else scale
        column = [0] * (order + 1)
        for j in range(k + 1):
            w = c * lift[j]
            for n, x in enumerate(sums[j]):
                column[n] += w * x
            c = -c * (k - j) // (j + 1)
        columns[k] = tuple(column)
        scale //= k + 1
    return tuple(columns), lift[0] * top


def prob_stirling2_by_moments(ms: MomentSequence, n: int, k: int) -> Fraction:
    """Same number by the inclusion-exclusion sum over moments of S_j.

    (1/k!) sum_{j=0}^{k} C(k,j) (-1)^(k-j) E[S_j^n], read from the order-n
    triangle of the moments alone; an independent cross-check of the EGF route.  Zero
    for k > n: E[S_j^n] is a polynomial of degree n in j, so its k-th
    difference vanishes.
    """
    _check_natural(k, "k")
    _check_natural(n, "n")
    columns, den = _moment_route_columns(ms, n)
    return _fraction(columns[k][n], den) if k <= n else _fraction(0, 1)


def prob_multi_stirling2_series(ms: MomentSequence, ks, order: int) -> Series:
    """Li(1 - e^(1 - M))."""
    return _li_family(index_tuple(ks), mgf(ms, order))


def prob_multi_stirling2(ms: MomentSequence, ks, n: int, order: int | None = None) -> Fraction:
    """Probabilistic multi-Stirling number of the second kind."""
    order = _check_entry(n, order)
    return prob_multi_stirling2_series(ms, ks, order).egf_coeff(n)


def prob_lah_series(ms: MomentSequence, k: int, order: int) -> Series:
    """(R - 1)^k / k!."""
    a, d = _power_column(resolvent(ms, order), k)
    return _from_egf_column(list(a), d)


def prob_lah(ms: MomentSequence, n: int, k: int, order: int | None = None) -> Fraction:
    """Probabilistic Lah number, n! [t^n] (R - 1)^k / k!."""
    order = _check_entry(n, order)
    a, d = _power_column(resolvent(ms, order), k)
    return _fraction(a[n], d)


def prob_multi_lah_series(ms: MomentSequence, ks, order: int) -> Series:
    """Li(1 - e^(1 - R))."""
    return _li_family(index_tuple(ks), resolvent(ms, order))


def prob_multi_lah(ms: MomentSequence, ks, n: int, order: int | None = None) -> Fraction:
    """Probabilistic multi-Lah number."""
    order = _check_entry(n, order)
    return prob_multi_lah_series(ms, ks, order).egf_coeff(n)


@lru_cache(maxsize=None)
def _fubini_inverse(u: Series, y: tuple[int, int]) -> Series:
    """(1 - y (u - 1))^(-1) at the order of the moment series ``u``, for the
    rational y, an integer pair (p, q): the one inversion per (u, y) whose
    powers :func:`_fubini_series` holds."""
    return (1 - _scaled(_less_one(u), *y)).inverse()


@lru_cache(maxsize=None)
def _fubini_series(u: Series, r: int, y: tuple[int, int]) -> Series:
    """(1 - y (u - 1))^(-r), power r of :func:`_fubini_inverse`: keyed like
    :func:`_li_family`, so laws with equal M share one entry.
    :func:`prob_fubini_series` once its arguments are read."""
    return _fubini_inverse(u, y) ** r


def prob_fubini_series(ms: MomentSequence, r: int, y, order: int) -> Series:
    _check_natural(r, "the order r", 1)
    y = _rational(y, "y")
    return _fubini_series(mgf(ms, order), r, y)


def prob_fubini(ms: MomentSequence, r: int, y, n: int, order: int | None = None) -> Fraction:
    """Probabilistic Fubini polynomial of order r evaluated at the rational y."""
    order = _check_entry(n, order)
    return prob_fubini_series(ms, r, y, order).egf_coeff(n)
