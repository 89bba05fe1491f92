"""Deterministic multi-indexed families built on the multiple logarithm:
multi-Stirling numbers of the second kind, multi-Bernoulli numbers and
multi-Lah numbers.

Each family is the EGF coefficient sequence of the multiple logarithm
composed with a specific inner series:

    second kind:   Li(1 - e^(1 - e^t))
    Bernoulli:     Li(1 - e^(-t)) / (1 - e^(-t))^r
    Lah:           Li(1 - e^(-t)) / (1 - t)^r

where r is always the length of the index tuple.  Every chain ends at
m_r >= r, so Li(w) / w^r is the shifted outer column c_r .. c_(N+r) of
the multiple logarithm composed with w = 1 - e^(-t) at order N.

The second kind is one case of the shape Li_ks(1 - e^(1 - u)) that the
probabilistic module evaluates at the moment series M and R as well:
:func:`_li_family` caches it once per ``(ks, u)``, keyed on the value of
``u``, so equal series share one entry whichever family asks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .multilog import index_tuple, multilog
from .series import Series, _check_entry, _make, exp_t, geometric, one_minus_exp_neg_t

__all__ = [
    "li_argument",
    "multi_stirling2",
    "multi_stirling2_series",
    "multi_bernoulli",
    "multi_bernoulli_series",
    "multi_lah",
    "multi_lah_series",
]


@lru_cache(maxsize=None)
def li_argument(u: Series) -> Series:
    """1 - exp(1 - u) for a series with unit constant term.

    This is the substitution that turns a moment-type series into a valid
    (nilpotent) argument of the multiple logarithm.
    """
    if u._num[0] != u._den:
        raise ValueError("li_argument requires a unit constant term")
    return 1 - (1 - u).exp()


@lru_cache(maxsize=None)
def _li_family(ks: tuple[int, ...], u: Series) -> Series:
    """Li_ks(1 - e^(1 - u)) at the order of ``u``: the multi second kind at
    u = e^t and its probabilistic forms at u = M and u = R."""
    return multilog(ks, u.order).compose(li_argument(u))


def multi_stirling2_series(ks, order: int) -> Series:
    return _li_family(index_tuple(ks), exp_t(order))


def multi_stirling2(ks, n: int, order: int | None = None) -> Fraction:
    """Multi-Stirling number of the second kind; zero for n < r."""
    order = _check_entry(n, order)
    return multi_stirling2_series(ks, order).egf_coeff(n)


@lru_cache(maxsize=None, typed=True)
def _bernoulli_series(ks: tuple[int, ...], order: int) -> Series:
    li = multilog(ks, order + len(ks))
    return _make(li._num[len(ks) :], li._den).compose(one_minus_exp_neg_t(order))


def multi_bernoulli_series(ks, order: int) -> Series:
    return _bernoulli_series(index_tuple(ks), order)


def multi_bernoulli(ks, n: int, order: int | None = None) -> Fraction:
    """Multi-Bernoulli number of the given index tuple."""
    order = _check_entry(n, order)
    return multi_bernoulli_series(ks, order).egf_coeff(n)


@lru_cache(maxsize=None, typed=True)
def _lah_series(ks: tuple[int, ...], order: int) -> Series:
    r = len(ks)
    w = one_minus_exp_neg_t(order)
    return multilog(ks, order).compose(w) * geometric(order) ** r


def multi_lah_series(ks, order: int) -> Series:
    return _lah_series(index_tuple(ks), order)


def multi_lah(ks, n: int, order: int | None = None) -> Fraction:
    """Multi-Lah number; the second classical argument is always len(ks)."""
    order = _check_entry(n, order)
    return multi_lah_series(ks, order).egf_coeff(n)
