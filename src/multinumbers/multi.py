"""Deterministic multi-indexed families built on the multiple logarithm:
multi-Stirling numbers of the second kind, multi-Bernoulli numbers and
multi-Lah numbers.

Each family is the EGF coefficient sequence of the multiple logarithm
composed with a specific inner series:

    second kind:   Li(1 - e^(1 - e^t))
    Bernoulli:     Li(1 - e^(-t)) / (1 - e^(-t))^r
    Lah:           Li(1 - e^(-t)) / (1 - t)^r

where r is always the length of the index tuple.  None of them is built
by a composition.  With F(s) = Li(1 - e^(-s)), whose EGF entries are the
signed second-kind transform sum_m (-1)^(n-m) S(n, m) [m; ks] of the
multi first-kind numbers (the EGF entries of (1 - e^(-s))^m / m! are
(-1)^(n-m) S(n, m)), one cached series per tuple and order,
:func:`multilog._f_series`:

    second kind:   F(e^t - 1), the unsigned second-kind transform of the
                   EGF column of F;
    Bernoulli:     every chain ends at m_r >= r, so Li(w) / w^r is the
                   shifted column c_r .. c_(N+r) of the multiple logarithm
                   at w = 1 - e^(-t), its signed second-kind transform;
    Lah:           F(t) divided by (1 - t)^r, r running sums of its
                   ordinary numerators.

Each transform is :func:`classical._transform` on integer numerators, a
product by the exponential Riordan arrays (1, e^t - 1) and
(1, 1 - e^(-t)) (Shapiro et al., 1991) that multiplies by small ints only.

The probabilistic multi families Li_ks(1 - e^(1 - u)) at the moment
series u = M and u = R are F(u - 1), the same series composed with
u - 1 in ``probabilistic``.  :func:`li_argument`, the inner series
1 - e^(1 - u) of the definition, is kept for the identity checks, which
read its cache :func:`_li_argument` and compose with it directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .classical import _SECOND, _SIGNED_SECOND, _transform
from .multilog import _f_series, _multilog, index_tuple
from .series import Series, _check_entry, _check_natural, _from_egf_column, _make

__all__ = [
    "li_argument",
    "multi_stirling2",
    "multi_stirling2_series",
    "multi_bernoulli",
    "multi_bernoulli_series",
    "multi_lah",
    "multi_lah_series",
]


def li_argument(u: Series) -> Series:
    """1 - exp(1 - u) for a series with unit constant term.

    This is the substitution that turns a moment-type series into a valid
    (nilpotent) argument of the multiple logarithm.  The argument is
    checked here and the series built by :func:`_li_argument`.
    """
    if not isinstance(u, Series):
        raise TypeError("li_argument needs a Series argument")
    if u._num[0] != u._den:
        raise ValueError("li_argument requires a unit constant term")
    return _li_argument(u)


@lru_cache(maxsize=None)
def _li_argument(u: Series) -> Series:
    return 1 - (1 - u).exp()


@lru_cache(maxsize=None)
def _stirling2_series(ks: tuple[int, ...], order: int) -> Series:
    f, d = _f_series(ks, order).egf_column
    return _from_egf_column(_transform(_SECOND, f), d)


def multi_stirling2_series(ks, order: int) -> Series:
    return _stirling2_series(index_tuple(ks), _check_natural(order))


def multi_stirling2(ks, n: int, order: int | None = None) -> Fraction:
    """Multi-Stirling number of the second kind; zero for n < r."""
    order = _check_entry(n, order)
    return multi_stirling2_series(ks, order).egf_coeff(n)


@lru_cache(maxsize=None)
def _bernoulli_series(ks: tuple[int, ...], order: int) -> Series:
    r = len(ks)
    li = _multilog(ks, order + r)
    shifted, d = _make(li._num[r:], li._den).egf_column
    return _from_egf_column(_transform(_SIGNED_SECOND, shifted), d)


def multi_bernoulli_series(ks, order: int) -> Series:
    return _bernoulli_series(index_tuple(ks), _check_natural(order))


def multi_bernoulli(ks, n: int, order: int | None = None) -> Fraction:
    """Multi-Bernoulli number of the given index tuple."""
    order = _check_entry(n, order)
    return multi_bernoulli_series(ks, order).egf_coeff(n)


@lru_cache(maxsize=None)
def _lah_series(ks: tuple[int, ...], order: int) -> Series:
    # dividing by (1 - t)^r is r running sums of the ordinary coefficients,
    # each one in full: a chain of r lazy sums would nest r C-level calls
    f = _f_series(ks, order)
    num = f._num
    for _ in ks:
        num = list(accumulate(num))
    return _make(num, f._den)


def multi_lah_series(ks, order: int) -> Series:
    return _lah_series(index_tuple(ks), _check_natural(order))


def multi_lah(ks, n: int, order: int | None = None) -> Fraction:
    """Multi-Lah number; the second classical argument is always len(ks)."""
    order = _check_entry(n, order)
    return multi_lah_series(ks, order).egf_coeff(n)
