"""Truncated formal power series with exact rational coefficients.

A :class:`Series` stands for the ordinary coefficients ``c_0, ..., c_N`` of

    f(t) = c_0 + c_1 t + ... + c_N t^N

with every ``c_n`` an exact rational, so nothing is ever rounded.  The
truncation order ``N`` is fixed per value: binary operations require both
operands to carry the same order, and the one operation that shortens a
series, ``derivative``, says so explicitly.  Constant-coefficient
preconditions (``exp`` wants c_0 = 0, ``inverse`` a nonzero c_0, composition
wants a nilpotent inner argument) are enforced, not assumed.

Storage is one vector of integer numerators over one positive integer
denominator, ``c_n = m_n / d``, kept in lowest terms: ``gcd(d, m_0, ...,
m_N) == 1``, so ``d`` is the lcm of the reduced denominators and equal
series have equal ``(m, d)``.  Every operation works on that form in
plain ``int`` arithmetic and reduces its result by one content gcd:
sums rescale both vectors to the lcm of the two denominators, a product
is one integer convolution over ``d_a * d_b``.

This module owns the boundary between those integers and
``fractions.Fraction``.  Inside the package every exact rational is an
integer pair ``(p, q)`` in lowest terms, ``q > 0``: :func:`_rational`
reads one from an ``int``, from text of the form ``a`` or ``a/b`` with
``int`` alone, and from anything else (a ``Fraction``, a ``Decimal``, a
decimal or exponent literal) through ``Fraction``, imported there.
:func:`_fraction` builds the ``Fraction`` values that the public readers
hand out, one per value read, and :func:`_value_strings` writes a column
as the canonical strings ``str(Fraction)`` gives, with no ``Fraction``
made.  So ``fractions`` is imported only when a caller passes or reads a
``Fraction``, a ``Decimal`` or a decimal literal, and a ``table`` or
``verify`` command whose rationals are all integers or ``a/b`` text, as
on the default grid, does not import it.

Composition is :func:`_compose`, which ``compose`` calls after its operand
checks and callers with valid operands call directly: the baby-step/giant-step
scheme of Paterson and Stockmeyer (SIAM J. Comput. 1973).  It reads the inner
powers ``g^0 .. g^k``, sums each block of ``k`` outer coefficients against
``g^0 .. g^(k-1)`` over one common denominator, and runs Horner's scheme
in ``g^k`` over the blocks.  The Horner sum from block ``start`` on is
later multiplied by ``g^start``, which vanishes below ``t^start``, so it
is formed only up to ``t^(N - start)``: each giant step is a truncated
product, written out in ``_compose`` and reduced once, that skips the
``k`` leading zeros of ``g^k``, and the steps shrink from the last block
to the first.  The powers come from the memo of :func:`powers`, one per
series value and the only store of them, looked up once per composition,
and the block size from that memo's length.  A memo is filled by the
product :func:`_product` with no operand check, which ``__mul__`` calls
after its own; an even power is the square of its half, and a square,
``x is y``, forms each cross term once and doubles it, about half the
multiplications of a product.  A first composition with ``g`` takes
``k = isqrt(N // 2) + 1``: about ``sqrt(N / 2)`` full-length products fill
the memo and about ``sqrt(2 N)`` truncated giant steps combine the blocks,
instead of ``N`` products; the giant steps are the cheaper half.  Once the
memo holds ``g^k``, a later composition with an equal ``g`` extends it
to ``g^N`` and takes ``k = N + 1``: one block, the product by the
Riordan array ``(1, g)`` (Shapiro et al., 1991), and no series product
once the memo is full.  ``verify`` composes over the series u - 1, whose
memos reach ``g^N`` through the (1, u - 1) triangles or this rule, and
over the series 1 - e^(1 - M) of one identity check.  A single ``table``
composes each inner once and does the same work as with ``k`` fixed.

``exp`` and ``inverse`` are triangular recurrences
(``n b_n = sum j a_j b_(n-j)`` and ``a_0 b_n = -sum a_j b_(n-j)``) solved
in integers: the coefficients found so far share one denominator, each new
one is reduced by a single gcd, and the shared denominator is rescaled only
when it must grow.  Where a definition divides by a series that vanishes
at 0, the identity checks multiply instead.

Exponential-generating-function coefficients ``a_n = n! * c_n`` come
from one table built once per series, :attr:`Series.egf_column`: the
integer numerators ``n! m_n`` over ``d``, reduced once by their content,
so that the column is in lowest terms like the series.  The identity
checks sum and compare those integers directly; :attr:`Series.egf_coeffs`
and :meth:`Series.egf_coeff` read the same table as ``Fraction`` values,
built afresh on each read.  A series built from an EGF column keeps
that column as its table, reduced once, for a reader that takes it next.
Storage stays in ordinary form so that products and compositions need no
factorial bookkeeping.

Values are immutable after construction and every operation is pure, so
series may be shared freely across threads.  A series hashes by value,
its numerators and denominator, and computes that hash once, on the first
cache lookup it keys.  The hash and the one cached table, ``egf_column``,
are filled on first use with a value independent of who fills them, and
so is the memo of powers.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import gcd, isqrt, lcm

Scalar = "int | Fraction"

__all__ = ["Series", "exp_t", "geometric", "neg_log1m", "powers"]

# CPython's default limit on the digits of an int read from or written as text
_MAX_DIGITS = 4300


def _check_digits(text: str, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``what`` when the decimal ``text`` would write
    out a numerator or denominator of more than ``_MAX_DIGITS`` digits,
    before ``Fraction`` builds them from its digits, point and exponent; an
    ``a/b`` literal, whose parts ``int`` bounds, and text that ``Fraction``
    refuses anyway pass."""
    if "/" in text:
        return
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, frac = mantissa.strip().lstrip("+-").replace("_", "").partition(".")
    try:
        shift = int(exponent or 0) - len(frac)
    except ValueError:
        return
    # the numerator has the mantissa's digits and, for shift > 0, `shift`
    # zeros; the denominator 10^-shift has 1 - shift digits
    if max(len((whole + frac).lstrip("0")) + max(shift, 0), 1 - shift) > _MAX_DIGITS:
        raise error(f"{what} {text!r} writes out more than {_MAX_DIGITS} digits")


def _int_pair(text: str) -> tuple[int, int] | None:
    """``text`` of the form ``a`` or ``a/b``, read by ``int`` as ``Fraction``
    reads it: ``(p, q)`` in lowest terms, or None for any other text and
    for a zero denominator, which ``Fraction`` then judges.  ``int`` takes
    the same surrounding whitespace, sign, underscores and Unicode digits as
    ``Fraction``; only a bare ``b``, with no space or sign between it and
    the slash and none before the slash, is its denominator."""
    num, slash, den = text.partition("/")
    try:
        if not slash:
            return int(text), 1
        if not (num[-1:].isdecimal() and den[:1].isdecimal()):
            return None
        p, q = int(num), int(den)
    except ValueError:
        return None
    if not q:
        return None
    g = gcd(p, q)
    return p // g, q // g


def _rational(value, what: str | None = None) -> tuple[int, int]:
    """The exact rational ``value`` as the integer pair ``(p, q)`` of
    ``Fraction(value)``, in lowest terms with ``q > 0``.

    An ``int`` is ``(value, 1)`` and text of the form ``a`` or ``a/b`` is
    read by ``int``; anything else (a ``Fraction``, a ``Decimal``, a
    decimal or exponent literal) goes to ``Fraction``, imported here, which
    costs nothing when the caller already holds one.  Text past
    :func:`_check_digits` is refused by a ``ValueError`` before any number
    is built from it.  With ``what`` the value is the parameter it names: a
    ``float`` or ``bool`` is refused too, and every refusal is a
    ``ValueError`` naming it.  Without, it is a series coefficient: a
    ``float`` is a ``TypeError``, a ``bool`` reads as 0 or 1, and the other
    errors of ``Fraction`` pass unchanged.
    """
    if type(value) is int:
        return value, 1
    if what is not None and isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise ValueError(f"{what} must be exact (int, Fraction or 'a/b' string), not {kind}")
    if isinstance(value, float):
        raise TypeError("float coefficients are inexact; pass int, Fraction or str")
    if type(value) is str:
        _check_digits(value, what or "series coefficient")
        pair = _int_pair(value)
        if pair is not None:
            return pair
    from fractions import Fraction

    if not isinstance(value, Fraction):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            if what is None:
                raise
            raise ValueError(f"cannot parse {what} from {value!r}") from exc
    return value.numerator, value.denominator


def _scalar(value) -> tuple[int, int] | None:
    """``(numerator, denominator)`` of an ``int`` or a ``Fraction`` operand,
    None for any other; ``fractions`` is imported only to tell a value that
    is no ``int``."""
    if isinstance(value, int):
        return value.numerator, value.denominator
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


def _fraction(a: int, d: int) -> "Fraction":
    """``Fraction(a, d)``, for a public reader that hands one out."""
    from fractions import Fraction

    return Fraction(a, d)


def _value_strings(a, d: int) -> list[str]:
    """The values ``a[n] / d`` (``d > 0``) as ``str(Fraction(a[n], d))``
    writes them: ``p`` or ``p/q`` in lowest terms, the sign on ``p``.  Each
    value is reduced by its own gcd, so any column is written exactly; over
    ``d = 1`` each value is its numerator."""
    if d == 1:
        return [str(m) for m in a]
    return [f"{m // h}/{d // h}" if (h := gcd(m, d)) != d else str(m // h) for m in a]


def _text(pair: tuple[int, int]) -> str:
    """The rational ``a / d`` of the pair ``(a, d)`` (``d > 0``) as
    :func:`_value_strings` writes it."""
    return _value_strings((pair[0],), pair[1])[0]


def _check_natural(value: int, what: str = "truncation order", least: int = 0) -> int:
    """``value``, if it is an ``int`` (not a ``bool``) of at least ``least``,
    which is 0 or 1; else ``ValueError`` naming the argument ``what``."""
    if type(value) is int and value >= least:
        return value
    if type(value) is bool or not isinstance(value, int) or value < least:
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
    s._hash = s._egf = None
    return s


def _from_egf_column(num: list[int], den: int) -> "Series":
    """The series with EGF coefficients ``num[n] / den``, n = 0..N: the
    ordinary coefficients ``num[n] / (n! den)``, each brought over
    ``N! den`` by the factor ``N!/n!``.  ``num`` is scaled in place.  The
    series keeps the column, reduced by one gcd, as its
    :attr:`Series.egf_column`, which is then not rebuilt from the ordinary
    coefficients by the factors ``n!`` and a second gcd."""
    g = gcd(den, *num)
    column = tuple([m // g for m in num]) if g != 1 else tuple(num), den // g
    scale = 1
    for n in range(len(num) - 1, 0, -1):
        scale *= n
        num[n - 1] *= scale
    s = _make(num, den * scale)
    s._egf = column
    return s


def _product(x: "Series", y: "Series") -> "Series":
    """The product of two series of one order, one integer convolution over
    ``d_x * d_y``, with no operand check: ``Series.__mul__`` makes its check
    first, and :func:`_fill` multiplies powers of one series.

    A square, ``x is y``, forms each cross term ``a_i a_j`` (``i < j``)
    once, as ``2 a_i`` times ``a_j``, and each diagonal term ``a_i^2`` once:
    about half the multiplications of the general convolution."""
    a, b = x._num, y._num
    n = len(a) - 1
    out = [0] * (n + 1)
    if x is y:
        # a_i a_j with i <= j lands at t^(i + j) <= t^n only for i <= n / 2
        for i in range(n // 2 + 1):
            ai = a[i]
            if ai:
                out[2 * i] += ai * ai
                ai += ai
                for j in range(i + 1, n + 1 - i):
                    out[i + j] += ai * a[j]
        return _make(out, x._den * x._den)
    for i, ai in enumerate(a):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
    return _make(out, x._den * y._den)


def _compose(outer: "Series", inner: "Series") -> "Series":
    """Substitution outer(inner(t)) for series of one order with inner(0) = 0,
    with no operand check: :meth:`Series.compose` makes its checks first.

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
    ``k = isqrt(order // 2) + 1``, that ``k`` is kept: a first composition
    makes at most the ``k - 1`` series products ``inner^2 .. inner^k``,
    about ``sqrt(N / 2)``, and about ``sqrt(2 N)`` Horner steps, which are
    truncated and so cheaper than a full product.  Otherwise
    ``k = N + 1``: the memo is extended to ``inner^N`` and the whole outer
    column is one block, the product by the Riordan array ``(1, inner)``,
    with no giant step and no Horner product.  A repeat composition with an
    equal inner therefore makes only the products that extend the memo,
    and none once it holds ``inner^N``.
    """
    n = outer.order
    k = isqrt(n // 2) + 1
    memo = _power_memo(inner)
    if len(memo) > k:
        k = n + 1
    # the giant step g^k is read only when there is a second block, k <= n
    _fill(memo, inner, min(k, n))
    den = lcm(*[memo[i]._den for i in range(k)])
    block_den = den * outer._den
    f = outer._num
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


def _scaled(s: "Series", p: int, q: int) -> "Series":
    """The series ``s`` times the rational ``p / q`` (``q > 0``)."""
    return _make([p * m for m in s._num], s._den * q)


def _solve(w: list[int], d: list[int], x0: tuple[int, int]) -> tuple[list[int], int]:
    """Integer numerators ``X`` and one denominator ``L`` of the sequence

        x_0 = p / q,  x_n = (sum_{j=1..n} w_j x_(n-j)) / d_n,

    for ``n`` up to ``len(w) - 1``, with the seed ``x0 = (p, q)`` in lowest
    terms and ``q > 0``; ``w`` and nonzero ``d`` are integers, entry 0 of
    each unused.  ``L`` is the lcm of the reduced denominators of
    ``x_0 .. x_N``.
    """
    xs, den = [x0[0]], x0[1]
    terms = [j for j in range(1, len(w)) if w[j]]
    for n in range(1, len(w)):
        acc = 0
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

    __slots__ = ("_num", "_den", "_hash", "_egf")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [_rational(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        den = lcm(*[q for _, q in cs])
        self._num = tuple([p * (den // q) for p, q in cs])
        self._den = den
        self._hash = self._egf = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, order: int) -> "Series":
        return _make([0] * (_check_natural(order) + 1), 1)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        p, q = _rational(value)
        num = [0] * (_check_natural(order) + 1)
        num[0] = p
        return _make(num, q)

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
        return tuple([_fraction(m, d) for m in self._num])

    def coeff(self, n: int) -> Fraction:
        """Ordinary coefficient of ``t^n``; ``n`` must lie within the truncation."""
        self._check_index(n)
        return _fraction(self._num[n], self._den)

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
        return tuple([_fraction(m, d) for m in a])

    def egf_coeff(self, n: int) -> Fraction:
        """Exponential-generating-function coefficient ``n! * c_n``."""
        self._check_index(n)
        a, d = self.egf_column
        return _fraction(a[n], d)

    def _check_index(self, n: int) -> None:
        if type(n) is bool or not isinstance(n, int):
            raise TypeError("coefficient index must be an integer")
        if n < 0 or n > self.order:
            raise ValueError(
                f"coefficient index {n} outside truncation order {self.order}"
            )

    def _check_same_order(self, other: "Series") -> None:
        if len(self._num) != len(other._num):
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    # ------------------------------------------------------------ ring ops

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._num, self._den))
        return h

    def __neg__(self) -> "Series":
        return _make([-m for m in self._num], self._den)

    def _plus(self, other: "Series", sign: int) -> "Series":
        self._check_same_order(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return _make([a * fa + b * fb for a, b in zip(self._num, other._num)], den)

    def _plus_scalar(self, p: int, q: int) -> "Series":
        den = lcm(self._den, q)
        f = den // self._den
        num = [m * f for m in self._num]
        num[0] += p * (den // q)
        return _make(num, den)

    def __add__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            return self._plus(other, 1)
        pair = _scalar(other)
        if pair is None:
            return NotImplemented
        return self._plus_scalar(*pair)

    __radd__ = __add__

    def __sub__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            return self._plus(other, -1)
        pair = _scalar(other)
        if pair is None:
            return NotImplemented
        return self._plus_scalar(-pair[0], pair[1])

    def __rsub__(self, other: Scalar) -> "Series":
        pair = _scalar(other)
        if pair is None:
            return NotImplemented
        return (-self)._plus_scalar(*pair)

    def __mul__(self, other: "Series | Scalar") -> "Series":
        if isinstance(other, Series):
            self._check_same_order(other)
            return _product(self, other)
        pair = _scalar(other)
        if pair is None:
            return NotImplemented
        return _scaled(self, *pair)

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
        xs, den = _solve(w, [n * d for n in range(len(a))], (1, 1))
        return _make(xs, den)

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be nonzero."""
        a, d = self._num, self._den
        if a[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        # the seed d / a_0 in lowest terms, over a positive denominator
        g = gcd(d, a[0]) if a[0] > 0 else -gcd(d, a[0])
        xs, den = _solve([-m for m in a], [a[0]] * len(a), (d // g, a[0] // g))
        return _make(xs, den)

    def compose(self, inner: "Series") -> "Series":
        """Substitution self(inner(t)); the inner constant term must vanish.
        The operands are checked here and composed by :func:`_compose`."""
        if not isinstance(inner, Series):
            raise TypeError("composition needs a Series argument")
        self._check_same_order(inner)
        if inner._num[0] != 0:
            raise ValueError("composition requires a zero inner constant term")
        return _compose(self, inner)

    def derivative(self) -> "Series":
        """Termwise derivative; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        a = self._num
        return _make([n * a[n] for n in range(1, len(a))], self._den)

    def __repr__(self) -> str:
        shown = []
        for n, (m, c) in enumerate(zip(self._num, _value_strings(self._num, self._den))):
            if m:
                shown.append(c if n == 0 else f"{c}*t^{n}")
            if len(shown) == 4:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"<Series order={self.order}: {body}>"


@lru_cache(maxsize=None)
def _power_memo(g: Series) -> dict[int, Series]:
    """The memo of powers ``{j: g^j}`` of the value ``g``, the only store of
    them: equal series share one memo."""
    return {0: _make([1] + [0] * g.order, 1), 1: g}


def _fill(memo: dict[int, Series], g: Series, k: int) -> dict[int, Series]:
    """``memo``, the memo of powers of ``g``, filled upward in a loop to
    j = k at least by :func:`_product`, which needs no operand check for
    powers of one series: an even power is the square of its half, an odd
    one the power below times ``g``.  Threads that fill a power store
    equal values."""
    for j in range(len(memo), k + 1):
        if j % 2:
            memo[j] = _product(memo[j - 1], g)
        else:
            half = memo[j // 2]
            memo[j] = _product(half, half)
    return memo


def powers(g: Series, k: int) -> dict[int, Series]:
    """The memo of powers ``{j: g^j}`` of the value ``g``, filled upward in a loop
    to j = k at least.  The arguments are checked here and the memo filled
    by :func:`_fill`."""
    if not isinstance(g, Series):
        raise TypeError("powers needs a Series argument")
    return _fill(_power_memo(g), g, _check_natural(k, "k"))


# ------------------------------------------------------------ stock series
# Built from integer numerators on each call.


def exp_t(order: int) -> Series:
    """e^t, coefficients 1/n!: the numerators N!/n! over N!."""
    return _from_egf_column([1] * (_check_natural(order) + 1), 1)


def geometric(order: int) -> Series:
    """1/(1-t), all coefficients 1."""
    return _make([1] * (_check_natural(order) + 1), 1)


def neg_log1m(order: int) -> Series:
    """-log(1-t), coefficients 1/n for n >= 1."""
    den = lcm(*range(1, _check_natural(order) + 1))
    return _make([0] + [den // n for n in range(1, order + 1)], den)

