"""Truncated formal power series with exact rational coefficients.

A :class:`Series` stands for the ordinary coefficients ``c_0, ..., c_N`` of

    f(t) = c_0 + c_1 t + ... + c_N t^N

with every ``c_n`` an exact rational, so nothing is ever rounded.  The
truncation order ``N`` is fixed per value: binary operations require both
operands to carry the same order, and the few operations that shorten a
series (``derivative``, ``divide``) say so explicitly.  Constant-coefficient
preconditions (``exp`` wants c_0 = 0, ``log`` wants c_0 = 1, composition
wants a nilpotent inner argument) are enforced, not assumed.

Storage is one vector of integer numerators over one positive integer
denominator, ``c_n = m_n / d``, kept in lowest terms: ``gcd(d, m_0, ...,
m_N) == 1``, so ``d`` is the lcm of the reduced denominators and equal
series have equal ``(m, d)``.  Every operation works on that form in
plain ``int`` arithmetic and reduces its result by one content gcd:
sums rescale both vectors to the lcm of the two denominators, a product
is one integer convolution over ``d_a * d_b``.  ``Fraction`` values are
built only where a caller reads coefficients, one per entry read.

``compose`` is the baby-step/giant-step scheme of Paterson and
Stockmeyer (SIAM J. Comput. 1973): it reads the inner powers
``g^0 .. g^k``, sums each block of ``k`` outer coefficients against
``g^0 .. g^(k-1)`` over one common denominator, and runs Horner's scheme
in ``g^k`` over the blocks.  The Horner sum from block ``start`` on is
later multiplied by ``g^start``, which vanishes below ``t^start``, so it
is formed only up to ``t^(N - start)``: each giant step is a truncated
product, written out in ``compose`` and reduced once, that skips the
``k`` leading zeros of ``g^k``, and the steps shrink from the last block
to the first.  The powers come from :func:`powers`, one memo per series
value and the only store of them, and the block size from that memo's
length.  A first composition with ``g`` takes ``k = isqrt(N) + 1``, about
``2 sqrt(N)`` products and steps instead of ``N`` products.  Once the
memo holds ``g^k``, a later composition with an equal ``g`` extends it
to ``g^N`` and takes ``k = N + 1``: one block, the product by the
Riordan array ``(1, g)`` (Shapiro et al., 1991), and no series product
once the memo is full.  ``verify`` on the default grid composes 14
distinct inner series 147 times, at any order, and this rule about
halves cold ``verify --order 64`` (3.05 to 1.58 s, medians of 4
alternating pairs on a 2-vCPU Xeon VM, CPython 3.11.7); a single
``table`` composes each inner once and does the same work as with ``k``
fixed.

``exp``, ``log`` and ``inverse`` are triangular recurrences
(``n b_n = sum j a_j b_(n-j)``, the same for ``t b'`` against ``a``,
and ``a_0 b_n = -sum a_j b_(n-j)``) solved in integers: the coefficients
found so far share one denominator, each new one is reduced by a single
gcd, and the shared denominator is rescaled only when it must grow.

Exponential-generating-function coefficients ``a_n = n! * c_n`` come
from one table built once per series, :attr:`Series.egf_column`: the
integer numerators ``n! m_n`` over ``d``, reduced once by their content,
so that the column is in lowest terms like the series.  The identity
checks sum and compare those integers directly; :attr:`Series.egf_coeffs`
and :meth:`Series.egf_coeff` read the same table as ``Fraction`` values,
built afresh on each read.  Storage stays in ordinary form so that
products and compositions need no factorial bookkeeping.

Values are immutable after construction and every operation is pure, so
series may be shared freely across threads; the one cached table,
``egf_column``, is filled on first use with a value independent of who fills it.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

Scalar = "int | Fraction"

__all__ = ["Series", "exp_t", "geometric", "neg_log1m", "one_minus_exp_neg_t", "powers"]

_ZERO = Fraction(0)


def _exact(value: Scalar) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are inexact; pass int, Fraction or str")
    return Fraction(value)


def _check_natural(value: int, what: str = "truncation order", least: int = 0) -> int:
    """``value``, if it is an ``int`` (not a ``bool``) of at least ``least``,
    which is 0 or 1; else ``ValueError`` naming the argument ``what``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
    return value


def _check_entry(n: int, order: int | None) -> int:
    """Truncation order for the single entry ``n``, by default ``n``; both are checked."""
    _check_natural(n, "n")
    order = n if order is None else _check_natural(order)
    if n > order:
        raise ValueError(f"n={n} exceeds truncation order {order}")
    return order


def _make(num: list[int], den: int) -> "Series":
    """The series ``num[n] / den`` (``den > 0``), brought to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [m // g for m in num]
        den //= g
    s = object.__new__(Series)
    s._num = tuple(num)
    s._den = den
    s._egf = None
    return s


def _from_egf_column(num: list[int], den: int) -> "Series":
    """The series with EGF coefficients ``num[n] / den``, n = 0..N: the
    ordinary coefficients ``num[n] / (n! den)``, each brought over
    ``N! den`` by the factor ``N!/n!``.  ``num`` is scaled in place."""
    scale = 1
    for n in range(len(num) - 1, 0, -1):
        scale *= n
        num[n - 1] *= scale
    return _make(num, den * scale)


def _over_lcm(columns) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer columns ``(a, d)``, each standing for the values ``a[n] / d``,
    rescaled to one denominator, the lcm of theirs: ``(numerators, lcm)``,
    in lowest terms when every column is."""
    den = lcm(*[d for _, d in columns])
    return tuple([tuple([x * (den // d) for x in a]) for a, d in columns]), den


def _solve(
    w: list[int], c: list[int] | None, d: list[int], x0: tuple[int, int]
) -> tuple[list[int], int]:
    """Integer numerators ``X`` and one denominator ``L`` of the sequence

        x_0 = p / q,  x_n = (c_n + sum_{j=1..n} w_j x_(n-j)) / d_n,

    for ``n`` up to ``len(w) - 1``, with the seed ``x0 = (p, q)`` in lowest
    terms and ``q > 0``; ``w``, ``c`` (``None`` for zeros) and nonzero ``d``
    are integers, entry 0 of each unused.  ``L`` is the lcm of the reduced
    denominators of ``x_0 .. x_N``.
    """
    xs, den = [x0[0]], x0[1]
    terms = [j for j in range(1, len(w)) if w[j]]
    for n in range(1, len(w)):
        acc = c[n] * den if c else 0
        for j in terms:
            if j > n:
                break
            acc += w[j] * xs[n - j]
        full = d[n] * den
        g = gcd(acc, full)
        if full < 0:
            g = -g
        num, new_den = acc // g, full // g
        if den % new_den:
            grow = new_den // gcd(den, new_den)
            xs = [x * grow for x in xs]
            den *= grow
        xs.append(num * (den // new_den))
    return xs, den


class Series:
    """Formal power series in ``t`` truncated after the ``t^order`` term."""

    __slots__ = ("_num", "_den", "_egf")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple([_exact(c) for c in coeffs])
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        den = lcm(*[c.denominator for c in cs])
        self._num = tuple([c.numerator * (den // c.denominator) for c in cs])
        self._den = den
        self._egf = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, order: int) -> "Series":
        return _make([0] * (_check_natural(order) + 1), 1)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        # an int carries its own numerator and denominator
        c = value if isinstance(value, (int, Fraction)) else _exact(value)
        num = [0] * (_check_natural(order) + 1)
        num[0] = c.numerator
        return _make(num, c.denominator)

    @classmethod
    def t(cls, order: int) -> "Series":
        """The variable itself (zero when truncated at order 0)."""
        num = [0] * (_check_natural(order) + 1)
        if order >= 1:
            num[1] = 1
        return _make(num, 1)

    # ------------------------------------------------------------ inspection

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple([Fraction(m, d) if m else _ZERO for m in self._num])

    def coeff(self, n: int) -> Fraction:
        """Ordinary coefficient of ``t^n``; ``n`` must lie within the truncation."""
        self._check_index(n)
        return Fraction(self._num[n], self._den)

    @property
    def egf_column(self) -> tuple[tuple[int, ...], int]:
        """EGF coefficients as integers over one denominator: ``(a, d)`` with
        ``n! c_n = a[n] / d`` for n = 0..order, in lowest terms
        (``gcd(d, *a) == 1``), so equal EGF values give equal columns."""
        column = self._egf
        if column is None:
            a = list(self._num)
            fact = 1
            for n, m in enumerate(a):
                if n > 1:
                    fact *= n
                    a[n] = m * fact
            g = gcd(self._den, *a)
            if g != 1:
                a = [m // g for m in a]
            column = self._egf = (tuple(a), self._den // g)
        return column

    @property
    def egf_coeffs(self) -> tuple[Fraction, ...]:
        """Exponential-generating-function coefficients ``(0! c_0, ..., N! c_N)``."""
        a, d = self.egf_column
        return tuple([Fraction(m, d) if m else _ZERO for m in a])

    def egf_coeff(self, n: int) -> Fraction:
        """Exponential-generating-function coefficient ``n! * c_n``."""
        self._check_index(n)
        a, d = self.egf_column
        return Fraction(a[n], d)

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
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __neg__(self) -> "Series":
        return _make([-m for m in self._num], self._den)

    def _plus(self, other: "Series", sign: int) -> "Series":
        self._check_same_order(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return _make([a * fa + b * fb for a, b in zip(self._num, other._num)], den)

    def _plus_scalar(self, value: Scalar) -> "Series":
        den = lcm(self._den, value.denominator)
        f = den // self._den
        num = [m * f for m in self._num]
        num[0] += value.numerator * (den // value.denominator)
        return _make(num, den)

    def __add__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            return self._plus(other, 1)
        if isinstance(other, (int, Fraction)):
            return self._plus_scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            return self._plus(other, -1)
        if isinstance(other, (int, Fraction)):
            return self._plus_scalar(-other)
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "Series":
        if isinstance(other, (int, Fraction)):
            return (-self)._plus_scalar(other)
        return NotImplemented

    def __mul__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            self._check_same_order(other)
            a, b = self._num, other._num
            n = len(a) - 1
            out = [0] * (n + 1)
            for i, ai in enumerate(a):
                if ai:
                    for j in range(n + 1 - i):
                        out[i + j] += ai * b[j]
            return _make(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            # an int carries its own numerator and denominator
            p = other.numerator
            return _make([p * m for m in self._num], self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        _check_natural(exponent, "series exponent")
        result = None
        base, e = self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Series.one(self.order) if result is None else result

    # ------------------------------------------------------------ transcendental

    def exp(self) -> "Series":
        """exp of a series with zero constant term, via b' = a' * b."""
        a, d = self._num, self._den
        if a[0] != 0:
            raise ValueError("exp requires a zero constant term")
        w = [j * m for j, m in enumerate(a)]
        xs, den = _solve(w, None, [n * d for n in range(len(a))], (1, 1))
        return _make(xs, den)

    def log(self) -> "Series":
        """log of a series with unit constant term, via t b' = t a' / a."""
        a, d = self._num, self._den
        if a[0] != d:
            raise ValueError("log requires a unit constant term")
        # e_n = n b_n solves a * e = t a'; with a_j = m_j / d that is
        # d e_n = n m_n - sum_{j>=1} m_j e_(n-j)
        n_max = len(a) - 1
        xs, den = _solve(
            [-m for m in a], [n * m for n, m in enumerate(a)], [d] * (n_max + 1), (0, 1)
        )
        scale = lcm(*range(1, n_max + 1))
        return _make([0] + [xs[n] * (scale // n) for n in range(1, n_max + 1)], den * scale)

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be nonzero."""
        a, d = self._num, self._den
        if a[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        # the seed d / a_0 in lowest terms, over a positive denominator
        g = gcd(d, a[0]) if a[0] > 0 else -gcd(d, a[0])
        xs, den = _solve([-m for m in a], None, [a[0]] * len(a), (d // g, a[0] // g))
        return _make(xs, den)

    def compose(self, inner: "Series") -> "Series":
        """Substitution self(inner(t)); the inner constant term must vanish.

        Baby-step/giant-step: each block of ``k`` outer coefficients is
        summed against the baby steps ``inner^0 .. inner^(k-1)`` over their
        common denominator, and the blocks are combined by Horner's scheme
        in the giant step ``inner^k``.  Exact at every kept order because
        the inner series is nilpotent mod t^(N+1); ``inner^i`` vanishes
        below ``t^i``.

        The Horner sum from block ``start`` on is multiplied by
        ``inner^start`` in the end, so it is formed only up to
        ``t^(N - start)``.  Each Horner step is one truncated integer
        product written out here, not through ``__mul__``: the later sum
        times ``inner^k`` from its term ``k`` on (the terms below vanish),
        plus the block, over one common denominator and reduced once.

        The block size comes from the memo of powers of ``inner``, by one
        rule: while the memo holds fewer than ``k + 1`` powers, with
        ``k = isqrt(order) + 1``, that ``k`` is kept: a first composition
        makes at most the ``k - 1`` series products ``inner^2 .. inner^k`` and
        about ``sqrt(N)`` Horner steps.  Otherwise ``k = N + 1``: the memo
        is extended to ``inner^N`` and the whole outer column is
        one block, the product by the Riordan array ``(1, inner)``, with no
        giant step and no Horner product.  A repeat composition with an
        equal inner therefore makes only the products that extend the memo,
        and none once it holds ``inner^N``.
        """
        if not isinstance(inner, Series):
            raise TypeError("composition needs a Series argument")
        self._check_same_order(inner)
        if inner._num[0] != 0:
            raise ValueError("composition requires a zero inner constant term")
        n = self.order
        k = isqrt(n) + 1
        if len(_power_memo(inner)) > k:
            k = n + 1
        # the giant step g^k is read only when there is a second block, k <= n
        memo = powers(inner, min(k, n))
        den = lcm(*[memo[i]._den for i in range(k)])
        block_den = den * self._den
        f = self._num
        result = None
        for start in range(n - n % k, -1, -k):
            # the sum from this block on is multiplied by inner^start, which
            # vanishes below t^start, so it is needed only up to t^(n - start)
            top = n - start
            acc = [0] * (top + 1)
            step_den = block_den
            if result is not None:
                # the later sum times inner^k, whose first k terms vanish
                giant = memo[k]
                prod_den = result._den * giant._den
                step_den = lcm(prod_den, block_den)
                h, gk, fp = result._num, giant._num, step_den // prod_den
                for j in range(k, top + 1):
                    c = gk[j]
                    if c:
                        c *= fp
                        for m in range(j, top + 1):
                            acc[m] += c * h[m - j]
            # plus this block, summed against the baby steps
            fb = step_den // block_den
            for i, c in enumerate(f[start : start + k]):
                if c:
                    c *= den // memo[i]._den * fb
                    row = memo[i]._num
                    for m in range(i, top + 1):
                        acc[m] += c * row[m]
            result = _make(acc, step_den)
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
        _check_natural(valuation, "valuation")
        if valuation > self.order:
            raise ValueError("valuation exceeds the truncation order")
        if any(den._num[:valuation]) or den._num[valuation] == 0:
            raise ValueError(f"denominator does not have valuation {valuation}")
        if any(self._num[:valuation]):
            raise ValueError(f"numerator valuation is below {valuation}")
        num_shift = _make(self._num[valuation:], self._den)
        den_shift = _make(den._num[valuation:], den._den)
        return num_shift * den_shift.inverse()

    def derivative(self) -> "Series":
        """Termwise derivative; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        a = self._num
        return _make([n * a[n] for n in range(1, len(a))], self._den)

    def __repr__(self) -> str:
        shown = []
        for n, c in enumerate(self.coeffs):
            if c:
                shown.append(f"{c}" if n == 0 else f"{c}*t^{n}")
            if len(shown) == 4:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"<Series order={self.order}: {body}>"


@lru_cache(maxsize=None)
def _power_memo(g: Series) -> dict[int, Series]:
    """The memo of powers ``{j: g^j}`` of the value ``g``, the only store of
    them: equal series share one memo."""
    return {0: Series.one(g.order), 1: g}


def powers(g: Series, k: int) -> dict[int, Series]:
    """The memo of powers ``{j: g^j}`` of the value ``g``, filled upward in a loop
    to j = k at least.  Threads that fill a power store equal values."""
    memo = _power_memo(g)
    for j in range(len(memo), k + 1):
        memo[j] = memo[j - 1] * g
    return memo


# ------------------------------------------------------------ stock series
# Built once per order from integer numerators; a Series is immutable, so
# every caller may share the value.  ``typed`` keeps ``True`` from reading
# the entry of order 1 past the order check.


@lru_cache(maxsize=None, typed=True)
def exp_t(order: int) -> Series:
    """e^t, coefficients 1/n!: the numerators N!/n! over N!."""
    return _from_egf_column([1] * (_check_natural(order) + 1), 1)


@lru_cache(maxsize=None, typed=True)
def geometric(order: int) -> Series:
    """1/(1-t), all coefficients 1."""
    return _make([1] * (_check_natural(order) + 1), 1)


@lru_cache(maxsize=None, typed=True)
def neg_log1m(order: int) -> Series:
    """-log(1-t), coefficients 1/n for n >= 1."""
    den = lcm(*range(1, _check_natural(order) + 1))
    return _make([0] + [den // n for n in range(1, order + 1)], den)


@lru_cache(maxsize=None, typed=True)
def one_minus_exp_neg_t(order: int) -> Series:
    """1 - e^(-t), coefficients (-1)^(n+1)/n! for n >= 1."""
    e = exp_t(order)
    num = [m if n % 2 else -m for n, m in enumerate(e._num)]
    num[0] = 0
    return _make(num, e._den)
