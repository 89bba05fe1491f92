"""The multiple logarithm and multi-Stirling numbers of the first kind.

For an index tuple ``(k_1, ..., k_r)`` the multiple logarithm is the
nested sum

    Li_{k_1,...,k_r}(t) = sum over chains 0 < m_1 < ... < m_r of
                          t^(m_r) / (m_1^k_1 * ... * m_r^k_r),

so the coefficient of ``t^m`` collects every ascending chain ending at
``m``.  A prefix-sum dynamic program produces the first ``order``
coefficients in O(r * order) exact operations and accepts any integer
indices, including zero and negative ones (the coefficients are then
rationals with growing numerators, which exact arithmetic absorbs).
It runs on integer numerators over one denominator: with
``L = lcm(1..order)`` a positive index ``k`` multiplies the denominator
by ``L^k`` and the term at ``m`` by ``(L/m)^k``, a zero or negative one
multiplies the term by ``m^|k|``, and the result is one series in lowest
terms, with no ``Fraction`` built on the way.

The unsigned multi-Stirling numbers of the first kind are the
EGF-normalised coefficients ``n! * [t^n]`` of that series; for the
all-ones tuple they reduce to the classical unsigned Stirling numbers of
the first kind.

:func:`_f_series` holds F(s) = Li_ks(1 - e^(-s)) as one cached series per
tuple and order, the one value all four multi families are read from:
``multi`` takes its EGF column or its ordinary numerators, and
``probabilistic`` composes it with u - 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .classical import _SIGNED_SECOND, _transform
from .series import Series, _check_entry, _check_natural, _from_egf_column, _make

__all__ = [
    "index_tuple",
    "multilog",
    "multi_stirling1",
]


def index_tuple(ks) -> tuple[int, ...]:
    """Canonicalise an index tuple: at least one entry, all integers."""
    try:
        out = tuple(ks)
    except TypeError:
        raise ValueError(f"index tuple must be an iterable of integers, got {ks!r}") from None
    if not out:
        raise ValueError("index tuple needs at least one entry")
    for k in out:
        if type(k) is not int and (type(k) is bool or not isinstance(k, int)):
            raise ValueError(f"index entries must be integers, got {k!r}")
    return out


@lru_cache(maxsize=None)
def _multilog(ks: tuple[int, ...], order: int) -> Series:
    # prev[m] / den = sum over chains of the processed prefix ending exactly
    # at m; the empty prefix contributes the single empty chain "ending" at 0.
    # With L = lcm(1..order), m^(-k) = (L/m)^k / L^k for k > 0, so each
    # positive index multiplies den by L^k and a zero or negative one
    # leaves it.
    top = lcm(*range(1, order + 1))
    prev = [1] + [0] * order
    den = 1
    for k in ks:
        if k > 0:
            weights = [(top // m) ** k for m in range(1, order + 1)]
            den *= top**k
        else:
            weights = [m**-k for m in range(1, order + 1)]
        cur = [0] * (order + 1)
        below = prev[0]
        for m, w in enumerate(weights, 1):
            if below:
                cur[m] = below * w
            below += prev[m]
        prev = cur
    return _make(prev, den)


def multilog(ks, order: int) -> Series:
    """Multiple-logarithm series truncated at ``order``."""
    order = _check_natural(order)
    return _multilog(index_tuple(ks), order)


@lru_cache(maxsize=None)
def _f_series(ks: tuple[int, ...], order: int) -> Series:
    """F(s) = Li_ks(1 - e^(-s)), whose EGF entries are
    v_l = sum_{m=r}^{l} (-1)^(l-m) S(l, m) [m; ks] for l = 0..order (zero
    below r), the signed second-kind transform of the column [m; ks].  One
    value per tuple and order; each reader takes the form it needs, and the
    EGF column is kept as the series is built from it.  Its callers pass a
    checked tuple and order, so it reads :func:`_multilog`."""
    first, d = _multilog(ks, order).egf_column
    return _from_egf_column(_transform(_SIGNED_SECOND, first), d)


def multi_stirling1(ks, n: int, order: int | None = None) -> Fraction:
    """Unsigned multi-Stirling number of the first kind, ``n! * [t^n] Li``."""
    order = _check_entry(n, order)
    return multilog(ks, order).egf_coeff(n)
