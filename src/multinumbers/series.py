"""Truncated formal power series with exact rational coefficients.

A :class:`Series` stores the ordinary coefficients ``c_0, ..., c_N`` of

    f(t) = c_0 + c_1 t + ... + c_N t^N

with every ``c_n`` a :class:`fractions.Fraction`, so all arithmetic is
exact and nothing is ever rounded.  The truncation order ``N`` is fixed
per value: binary operations require both operands to carry the same
order, and the few operations that shorten a series (``derivative``,
``divide``) say so explicitly.  Constant-coefficient preconditions
(``exp`` wants c_0 = 0, ``log`` wants c_0 = 1, composition wants a
nilpotent inner argument) are enforced, not assumed.

The product of two series, and with it ``compose``, ``**`` and
``divide``, is computed in integers: each operand is brought to integer
numerators over the least common multiple of its denominators, the
truncated convolution is formed with plain ``int`` arithmetic, and each
output coefficient is reduced by a single ``Fraction(c, d_a * d_b)``.
This replaces one ``Fraction`` multiply and add, each with its own gcd,
per pair of terms.

Exponential-generating-function coefficients ``a_n = n! * c_n`` are read
off with :meth:`Series.egf_coeff`; storage stays in ordinary form so that
products and compositions need no factorial bookkeeping.

Values are immutable after construction and every operation is pure, so
series may be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = ["Series", "exp_t", "geometric", "neg_log1m", "one_minus_exp_neg_t"]


def _exact(value: Scalar) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are inexact; pass int, Fraction or str")
    return Fraction(value)


def _over_common_denominator(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators ``m_n`` and one denominator ``d`` with ``c_n = m_n / d``."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _check_order(order: int) -> int:
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValueError(f"truncation order must be a non-negative integer, got {order!r}")
    return order


class Series:
    """Formal power series in ``t`` truncated after the ``t^order`` term."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_exact(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = cs

    @classmethod
    def _of(cls, coeffs: tuple[Fraction, ...]) -> "Series":
        """Wrap a non-empty tuple of results of ``Fraction`` arithmetic as is."""
        s = object.__new__(cls)
        s._coeffs = coeffs
        return s

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([Fraction(0)] * (_check_order(order) + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        coeffs = [Fraction(0)] * (_check_order(order) + 1)
        coeffs[0] = _exact(value)
        return cls(coeffs)

    @classmethod
    def t(cls, order: int) -> "Series":
        """The variable itself (zero when truncated at order 0)."""
        coeffs = [Fraction(0)] * (_check_order(order) + 1)
        if order >= 1:
            coeffs[1] = Fraction(1)
        return cls(coeffs)

    # ------------------------------------------------------------ inspection

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, n: int) -> Fraction:
        """Ordinary coefficient of ``t^n``; ``n`` must lie within the truncation."""
        self._check_index(n)
        return self._coeffs[n]

    def egf_coeff(self, n: int) -> Fraction:
        """Exponential-generating-function coefficient ``n! * c_n``."""
        self._check_index(n)
        return factorial(n) * self._coeffs[n]

    def _check_index(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("coefficient index must be an integer")
        if n < 0 or n > self.order:
            raise ValueError(
                f"coefficient index {n} outside truncation order {self.order}"
            )

    def _check_same_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    # ------------------------------------------------------------ ring ops

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "Series":
        return Series._of(tuple([-c for c in self._coeffs]))

    def __add__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            self._check_same_order(other)
            return Series._of(tuple([a + b for a, b in zip(self._coeffs, other._coeffs)]))
        if isinstance(other, (int, Fraction)):
            coeffs = list(self._coeffs)
            coeffs[0] += _exact(other)
            return Series._of(tuple(coeffs))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            self._check_same_order(other)
            return Series._of(tuple([a - b for a, b in zip(self._coeffs, other._coeffs)]))
        if isinstance(other, (int, Fraction)):
            return self + (-_exact(other))
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "Series":
        if isinstance(other, (int, Fraction)):
            return (-self) + _exact(other)
        return NotImplemented

    def __mul__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            self._check_same_order(other)
            n = self.order
            a, da = _over_common_denominator(self._coeffs)
            b, db = _over_common_denominator(other._coeffs)
            out = [0] * (n + 1)
            for i, ai in enumerate(a):
                if ai:
                    for j in range(n + 1 - i):
                        out[i + j] += ai * b[j]
            d = da * db
            return Series._of(tuple([Fraction(c, d) for c in out]))
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return Series._of(tuple([c * a for a in self._coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("series exponent must be a non-negative integer")
        result = Series.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------ transcendental

    def exp(self) -> "Series":
        """exp of a series with zero constant term, via b' = a' * b."""
        a = self._coeffs
        if a[0] != 0:
            raise ValueError("exp requires a zero constant term")
        n_max = self.order
        b = [Fraction(0)] * (n_max + 1)
        b[0] = Fraction(1)
        for n in range(1, n_max + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                if a[j]:
                    acc += j * a[j] * b[n - j]
            b[n] = acc / n
        return Series._of(tuple(b))

    def log(self) -> "Series":
        """log of a series with unit constant term, via b' = a' / a."""
        a = self._coeffs
        if a[0] != 1:
            raise ValueError("log requires a unit constant term")
        n_max = self.order
        b = [Fraction(0)] * (n_max + 1)
        for n in range(1, n_max + 1):
            acc = Fraction(0)
            for j in range(1, n):
                if b[j] and a[n - j]:
                    acc += j * b[j] * a[n - j]
            b[n] = a[n] - acc / n
        return Series._of(tuple(b))

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be nonzero."""
        a = self._coeffs
        if a[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        n_max = self.order
        b = [Fraction(0)] * (n_max + 1)
        b[0] = 1 / a[0]
        for n in range(1, n_max + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                if a[j]:
                    acc += a[j] * b[n - j]
            b[n] = -acc / a[0]
        return Series._of(tuple(b))

    def compose(self, inner: "Series") -> "Series":
        """Substitution self(inner(t)); the inner constant term must vanish.

        Evaluated by Horner's scheme in the series ring, which is exact at
        every kept order because the inner series is nilpotent mod t^(N+1).
        """
        if not isinstance(inner, Series):
            raise TypeError("composition needs a Series argument")
        self._check_same_order(inner)
        if inner._coeffs[0] != 0:
            raise ValueError("composition requires a zero inner constant term")
        result = Series.constant(self._coeffs[self.order], self.order)
        for i in range(self.order - 1, -1, -1):
            result = result * inner + self._coeffs[i]
        return result

    def divide(self, den: "Series", valuation: int) -> "Series":
        """Quotient of two series that both vanish to the stated valuation.

        ``den`` must have coefficients 0 strictly below ``valuation`` and a
        nonzero coefficient there; ``self`` must vanish at least as far.
        The quotient is well defined only up to order ``order - valuation``
        and the result carries that shorter truncation order.
        """
        if not isinstance(den, Series):
            raise TypeError("division needs a Series denominator")
        self._check_same_order(den)
        if not isinstance(valuation, int) or isinstance(valuation, bool) or valuation < 0:
            raise ValueError("valuation must be a non-negative integer")
        if valuation > self.order:
            raise ValueError("valuation exceeds the truncation order")
        if any(den._coeffs[i] for i in range(valuation)) or den._coeffs[valuation] == 0:
            raise ValueError(f"denominator does not have valuation {valuation}")
        if any(self._coeffs[i] for i in range(valuation)):
            raise ValueError(f"numerator valuation is below {valuation}")
        num_shift = Series._of(self._coeffs[valuation:])
        den_shift = Series._of(den._coeffs[valuation:])
        return num_shift * den_shift.inverse()

    def derivative(self) -> "Series":
        """Termwise derivative; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        return Series._of(tuple([n * c for n, c in enumerate(self._coeffs) if n >= 1]))

    def __repr__(self) -> str:
        shown = []
        for n, c in enumerate(self._coeffs):
            if c:
                shown.append(f"{c}" if n == 0 else f"{c}*t^{n}")
            if len(shown) == 4:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"<Series order={self.order}: {body}>"


# ------------------------------------------------------------ stock series


def exp_t(order: int) -> Series:
    """e^t, coefficients 1/n!."""
    return Series(Fraction(1, factorial(n)) for n in range(_check_order(order) + 1))


def geometric(order: int) -> Series:
    """1/(1-t), all coefficients 1."""
    return Series([Fraction(1)] * (_check_order(order) + 1))


def neg_log1m(order: int) -> Series:
    """-log(1-t), coefficients 1/n for n >= 1."""
    coeffs = [Fraction(0)] * (_check_order(order) + 1)
    for n in range(1, order + 1):
        coeffs[n] = Fraction(1, n)
    return Series(coeffs)


def one_minus_exp_neg_t(order: int) -> Series:
    """1 - e^(-t), coefficients (-1)^(n+1)/n! for n >= 1."""
    coeffs = [Fraction(0)] * (_check_order(order) + 1)
    for n in range(1, order + 1):
        coeffs[n] = Fraction((-1) ** (n + 1), factorial(n))
    return Series(coeffs)
