"""Exact raw moments of a discrete random variable Y and the two series
every probabilistic family is built from: the moment EGF E[e^(Yt)] and
the resolvent-style transform R(t) = E[(1/(1-t))^Y].

Y is represented purely by its moment sequence; there is no sampling and
no density object anywhere.  One table, ``_KINDS``, holds each kind of
law (point mass, Bernoulli, binomial, Poisson, geometric counting the
failures before a success of probability q, finite support, raw moment
list): its public constructor, how the text after the colon of a spec
becomes the constructor's arguments, and its moment provider.

A provider returns the integer numerators of mu_0..mu_N over one
denominator.  Poisson, binomial and geometric moments (Bernoulli is the
binomial with one trial) are the second-kind Stirling transform of their
factorial moments over ``b^N``, for a parameter over ``b``; for Poisson
that is the Touchard polynomial ``mu_n = sum_k S(n, k) lam^k``.  Finite
laws (a point mass has a single point) sum ``w x^n b^(N-n)`` over
``c b^N``, ``c`` and ``b`` the lcms of the weight and point denominators.
:class:`MomentSequence` keeps that column reduced by one gcd, the key its
caches hash, and ``mgf`` scales it by ``N!/n!`` as ``exp_t`` does; a
``Fraction`` per moment is built only when ``mu`` is read.

The coefficient of t^n in (1-t)^(-y) is y (y+1) ... (y+n-1) / n!, so the
EGF coefficients of ``R`` are the rising-factorial moments
E[<Y>_n] = sum_k [n; k] mu_k: ``resolvent`` is the first-kind transform
of the moment column, scaled as in ``mgf``, with no series composition
(the route M(-log(1-t)) is a test oracle).  Both transforms are
``classical._transform``, the one kernel through which library code
applies a Stirling triangle.
:func:`sum_power_moment` squares ``M`` up to ``M^j`` in about ``2 log2 j`` products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm

from .classical import _FIRST, _SECOND, _transform
from .report import FrozenRecord
from .series import Series, _check_entry, _check_natural, _from_egf_column

__all__ = [
    "MomentSequence",
    "DistributionSpec",
    "point",
    "bernoulli",
    "binomial",
    "poisson",
    "geometric",
    "finite",
    "raw_moments",
    "parse_distribution",
    "moments",
    "mgf",
    "resolvent",
    "sum_power_moment",
]


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


def _rational(value, what: str) -> Fraction:
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise ValueError(f"{what} must be exact (int, Fraction or 'a/b' string), not {kind}")
    if type(value) is str:
        _check_digits(value, what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"cannot parse {what} from {value!r}") from exc


class MomentSequence(FrozenRecord):
    """Raw moments mu_0..mu_N of Y, with mu_0 = 1.

    The slot ``column`` holds them as ``(numerators, denominator)`` in
    lowest terms, ``gcd(denominator, *numerators) == 1``, so the
    denominator is the lcm of the reduced ones and equal sequences have
    equal columns; equality and the hash, ``hash(column)``, read it.  The
    field ``mu`` is the tuple of ``Fraction`` values, built from the column
    on its first read and kept (a sequence made from ``mu`` keeps it)."""

    _fields = ("mu",)
    __match_args__ = _fields
    __slots__ = ("column", "_mu", "_hash")

    def __init__(self, mu: tuple[Fraction, ...]) -> None:
        if not isinstance(mu, tuple):
            raise ValueError(f"mu must be a tuple, got {type(mu).__name__}")
        if not mu:
            raise ValueError("a moment sequence needs at least mu_0")
        for n, m in enumerate(mu):
            if type(m) not in (int, Fraction):
                raise ValueError(f"mu_{n} must be an int or a Fraction, got {m!r}")
        if mu[0] != 1:
            raise ValueError(f"mu_0 must equal 1, got {mu[0]}")
        dens = [m.denominator for m in mu]
        den = lcm(*dens)
        _set_column(self, tuple([m.numerator * (den // d) for m, d in zip(mu, dens)]), den)
        object.__setattr__(self, "_mu", mu)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.column == other.column

    def __hash__(self) -> int:
        return self._hash

    @property
    def mu(self) -> tuple[Fraction, ...]:
        mu = self._mu
        if mu is None:
            nums, den = self.column
            mu = tuple([Fraction(m, den) for m in nums])
            object.__setattr__(self, "_mu", mu)
        return mu

    @property
    def order(self) -> int:
        return len(self.column[0]) - 1

    def moment(self, n: int) -> Fraction:
        _check_natural(n, "n")
        if n > self.order:
            raise ValueError(f"moment index {n} outside available order {self.order}")
        return self.mu[n]


def _set_column(ms: MomentSequence, nums: tuple[int, ...], den: int) -> None:
    """Set the lowest-terms ``column`` of ``ms`` and its hash; caches keyed
    on a sequence hash the column once, not per lookup."""
    object.__setattr__(ms, "column", (nums, den))
    object.__setattr__(ms, "_hash", hash((nums, den)))


def _from_column(nums: list[int], den: int) -> MomentSequence:
    """The moment sequence ``nums[n] / den`` with ``nums[0] == den``, reduced
    by one gcd; ``mu`` is left to its first read."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [m // g for m in nums]
        den //= g
    ms = object.__new__(MomentSequence)
    _set_column(ms, tuple(nums), den)
    object.__setattr__(ms, "_mu", None)
    return ms


class DistributionSpec(FrozenRecord):
    """A validated distribution description; ``label`` is its canonical text form."""

    _fields = ("kind", "params", "label")
    __match_args__ = _fields
    __slots__ = ("kind", "params", "label", "_hash")

    kind: str
    params: tuple
    label: str

    def __init__(self, kind: str, params: tuple, label: str) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "label", label)
        # grid deduplication and the moment cache look specs up by hash
        object.__setattr__(self, "_hash", hash((kind, params, label)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.label


def point(c) -> DistributionSpec:
    c = _rational(c, "point mass location")
    return DistributionSpec("point", (c,), f"point:{c}")


def bernoulli(p) -> DistributionSpec:
    p = _rational(p, "bernoulli parameter")
    if not 0 < p <= 1:
        raise ValueError(f"bernoulli parameter must lie in (0, 1], got {p}")
    return DistributionSpec("bernoulli", (p,), f"bernoulli:{p}")


def binomial(m, p) -> DistributionSpec:
    _check_natural(m, "binomial count", 1)
    p = _rational(p, "binomial parameter")
    if not 0 < p <= 1:
        raise ValueError(f"binomial parameter must lie in (0, 1], got {p}")
    return DistributionSpec("binomial", (m, p), f"binomial:{m},{p}")


def poisson(lam) -> DistributionSpec:
    lam = _rational(lam, "poisson rate")
    if lam < 0:
        raise ValueError(f"poisson rate must be non-negative, got {lam}")
    return DistributionSpec("poisson", (lam,), f"poisson:{lam}")


def geometric(q) -> DistributionSpec:
    q = _rational(q, "geometric success probability")
    if not 0 < q <= 1:
        raise ValueError(f"geometric success probability must lie in (0, 1], got {q}")
    return DistributionSpec("geometric", (q,), f"geometric:{q}")


def finite(pairs) -> DistributionSpec:
    entries = [(_rational(x, "support point"), _rational(w, "weight")) for x, w in pairs]
    if not entries:
        raise ValueError("finite distribution needs at least one support point")
    support = sorted(entries)
    xs = [x for x, _ in support]
    if len(set(xs)) != len(xs):
        raise ValueError("finite distribution has a duplicated support point")
    if any(w < 0 for _, w in support):
        raise ValueError("finite distribution weights must be non-negative")
    total = sum(w for _, w in support)
    if total != 1:
        raise ValueError(f"finite distribution weights must sum to 1, got {total}")
    label = "finite:" + ";".join(f"{x}={w}" for x, w in support)
    return DistributionSpec("finite", tuple(support), label)


def raw_moments(mus) -> DistributionSpec:
    vals = tuple(_rational(v, "raw moment") for v in mus)
    if not vals:
        raise ValueError("raw moment list must not be empty")
    if vals[0] != 1:
        raise ValueError(f"raw moment list must start with mu_0 = 1, got {vals[0]}")
    label = "raw:" + ",".join(str(v) for v in vals)
    return DistributionSpec("raw", vals, label)


def _stirling_expansion(rate: Fraction, factors, order: int) -> tuple[list[int], int]:
    """mu_n = sum_k S(n, k) E[(Y)_k] for the factorial moments
    E[(Y)_k] = rate^k s_1 ... s_k, all over b^order for rate = a/b, with
    ``factors`` the integers s_1 .. s_order."""
    a, b = rate.numerator, rate.denominator
    f = b**order  # a^k s_1 ... s_k b^(order-k): each k drops one b
    fm = [f]
    for s in factors:
        f = f * s * a // b
        fm.append(f)
    return _transform(_SECOND, fm), fm[0]


def _binomial(params: tuple, order: int) -> tuple[list[int], int]:
    m, p = params  # E[(Y)_k] = (m)_k p^k, zero past k = m
    return _stirling_expansion(p, range(m, m - order, -1), order)


def _finite(params: tuple, order: int) -> tuple[list[int], int]:
    # mu_n = sum w x^n; weights over their lcm c, points over their lcm b,
    # and x^n scaled by b^(order-n), so that every moment is over c b^order
    c = lcm(*[w.denominator for _, w in params])
    b = lcm(*[x.denominator for x, _ in params])
    terms = [w.numerator * (c // w.denominator) * b**order for _, w in params]
    points = [x.numerator * (b // x.denominator) for x, _ in params]
    nums = [sum(terms)]
    for _ in range(order):
        terms = [t * x // b for t, x in zip(terms, points)]
        nums.append(sum(terms))
    return nums, c * b**order


def _raw(params: tuple, order: int) -> tuple[list[int], int]:
    if len(params) - 1 < order:
        raise ValueError(f"raw spec provides moments up to order {len(params) - 1}, needed {order}")
    mu = params[: order + 1]
    den = lcm(*[m.denominator for m in mu])
    return [m.numerator * (den // m.denominator) for m in mu], den


def _binomial_args(body: str) -> tuple:
    m_text, _, p_text = body.partition(",")
    try:
        return int(m_text), p_text
    except ValueError as exc:
        raise ValueError(f"cannot parse binomial count from {m_text!r}") from exc


def _finite_args(body: str) -> tuple:
    pairs = []
    for chunk in body.split(";"):
        x_text, sep, w_text = chunk.partition("=")
        if not sep:
            raise ValueError(f"finite entry {chunk!r} is not 'x=w'")
        pairs.append((x_text, w_text))
    return (pairs,)


def _whole(body: str) -> tuple:
    return (body,)


# kind -> (constructor, spec text after the colon -> its arguments, moment
# provider); geometric has E[(Y)_k] = k! theta^k with theta = (1-q)/q
_KINDS = {
    "point": (point, _whole, lambda ps, order: _finite(((ps[0], 1),), order)),
    "bernoulli": (bernoulli, _whole, lambda ps, order: _binomial((1, ps[0]), order)),
    "binomial": (binomial, _binomial_args, _binomial),
    "poisson": (
        poisson,
        _whole,
        lambda ps, order: _stirling_expansion(ps[0], repeat(1, order), order),
    ),
    "geometric": (
        geometric,
        _whole,
        lambda ps, order: _stirling_expansion((1 - ps[0]) / ps[0], range(1, order + 1), order),
    ),
    "finite": (finite, _finite_args, _finite),
    "raw": (raw_moments, lambda body: (body.split(","),), _raw),
}


def parse_distribution(text: str) -> DistributionSpec:
    """Parse the textual grammar, e.g. ``bernoulli:1/2`` or ``finite:0=1/2;2=1/2``."""
    if not isinstance(text, str) or ":" not in text:
        raise ValueError(f"malformed distribution spec {text!r}")
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    make, args, _ = _KINDS[kind]
    try:
        return make(*args(body.strip()))
    except ValueError as exc:
        raise ValueError(f"invalid distribution spec {text!r}: {exc}") from exc


@lru_cache(maxsize=None)
def _moments_cached(spec: DistributionSpec, order: int) -> MomentSequence:
    _, _, provide = _KINDS[spec.kind]
    return _from_column(*provide(spec.params, order))


def moments(spec: DistributionSpec, order: int) -> MomentSequence:
    """Exact raw moments of the specified distribution up to ``order``."""
    return _moments_cached(spec, _check_natural(order))


def _column(ms: MomentSequence, order: int) -> tuple[tuple[int, ...], int]:
    """The integer moment column of ``ms``, checked to reach ``order``."""
    if ms.order < _check_natural(order):
        raise ValueError(f"need moments up to order {order}, have {ms.order}")
    return ms.column


# ``typed`` keeps ``True`` from reading the entry of order 1 past the order check
@lru_cache(maxsize=None, typed=True)
def mgf(ms: MomentSequence, order: int) -> Series:
    """Moment EGF: ordinary coefficients mu_n / n!."""
    mu, den = _column(ms, order)
    return _from_egf_column(list(mu[: order + 1]), den)


@lru_cache(maxsize=None, typed=True)
def resolvent(ms: MomentSequence, order: int) -> Series:
    """E[(1/(1-t))^Y], whose EGF coefficients are the rising-factorial
    moments E[<Y>_n] = sum_k [n; k] mu_k, the first-kind transform of the
    moments."""
    mu, den = _column(ms, order)
    return _from_egf_column(_transform(_FIRST, mu[: order + 1]), den)


def sum_power_moment(ms: MomentSequence, j: int, n: int, order: int | None = None) -> Fraction:
    """E[(Y_1 + ... + Y_j)^n] for independent copies of Y; j = 0 gives 0^n."""
    _check_natural(j, "number of copies")
    order = _check_entry(n, order)
    return (mgf(ms, order) ** j).egf_coeff(n)
