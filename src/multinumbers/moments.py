"""Exact raw moments of a discrete random variable Y and the two series
every probabilistic family is built from: the moment EGF E[e^(Yt)] and
the resolvent-style transform R(t) = E[(1/(1-t))^Y].

Y is represented purely by its moment sequence; there is no sampling and
no density object anywhere.  One table, ``_KINDS``, holds each kind of
law (point mass, Bernoulli, binomial, Poisson, geometric counting the
failures before a success of probability q, finite support, raw moment
list): its public constructor, how the text after the colon of a spec
becomes the constructor's arguments, and its moment provider.  Every
rational parameter is read by ``series._rational`` into an integer pair
``(p, q)`` in lowest terms, which the checks, the labels and the
providers read; :attr:`DistributionSpec.params` holds them as
``Fraction`` values only once it is read.

A provider returns the integer numerators of mu_0..mu_N over one
denominator.  Poisson, binomial and geometric moments (Bernoulli is the
binomial with one trial) are the second-kind Stirling transform of their
factorial moments over ``b^N``, for a parameter over ``b``; for Poisson
that is the Touchard polynomial ``mu_n = sum_k S(n, k) lam^k``.  Finite
laws (a point mass has a single point) sum ``w x^n b^(N-n)`` over
``c b^N``, ``c`` and ``b`` the lcms of the weight and point denominators.
:class:`MomentSequence` keeps that column reduced by one gcd, the key the
``mgf`` and ``resolvent`` caches hash, the only caches keyed on a law:
every cache below them reads its series.  ``mgf`` scales the column by
``N!/n!`` as ``exp_t`` does; a ``Fraction`` per moment is built only when
``mu`` is read.

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

from functools import lru_cache
from itertools import repeat
from math import gcd, lcm

from .classical import _FIRST, _SECOND, _transform
from .report import FrozenRecord
from .series import (
    Series,
    _check_entry,
    _check_natural,
    _fraction,
    _from_egf_column,
    _rational,
    _text,
)

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
            if type(m) is not int:
                from fractions import Fraction

                if type(m) is not Fraction:
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
            mu = tuple([_fraction(m, den) for m in nums])
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
    """A validated distribution description; ``label`` is its canonical text form.

    The slot ``pairs`` holds the parameters with each rational an integer
    pair ``(p, q)`` in lowest terms (the binomial count stays an ``int``);
    the providers read it, and equality and the hash,
    ``hash((kind, pairs, label))``, read it too.  The field ``params``
    holds the rationals as ``Fraction`` values, built from the pairs on
    its first read and kept (a spec made from ``params`` keeps them)."""

    _fields = ("kind", "params", "label")
    __match_args__ = _fields
    __slots__ = ("kind", "pairs", "label", "_params", "_hash")

    kind: str
    params: tuple
    label: str

    def __init__(self, kind: str, params: tuple, label: str) -> None:
        # the binomial count is the one parameter that is no rational
        pairs = (params[0], _to_pairs(params[1])) if kind == "binomial" else _to_pairs(params)
        _set_spec(self, kind, pairs, label)
        object.__setattr__(self, "_params", params)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.pairs, self.label) == (other.kind, other.pairs, other.label)

    def __hash__(self) -> int:
        return self._hash

    @property
    def params(self) -> tuple:
        params = self._params
        if params is None:
            params = tuple([_to_fractions(v) for v in self.pairs])
            object.__setattr__(self, "_params", params)
        return params

    def __str__(self) -> str:
        return self.label


def _to_pairs(value):
    """A rational, or a nested tuple of them, with each rational as its
    integer pair."""
    if isinstance(value, tuple):
        return tuple([_to_pairs(v) for v in value])
    return value.numerator, value.denominator


def _to_fractions(value):
    """A parameter of ``DistributionSpec.pairs`` with each integer pair as
    its ``Fraction``; an ``int``, the binomial count, is kept."""
    if type(value) is int:
        return value
    if type(value[0]) is int:
        return _fraction(*value)
    return tuple([_to_fractions(v) for v in value])


def _set_spec(spec: DistributionSpec, kind: str, pairs: tuple, label: str) -> None:
    setattr_ = object.__setattr__
    setattr_(spec, "kind", kind)
    setattr_(spec, "pairs", pairs)
    setattr_(spec, "label", label)
    # grid deduplication and the moment cache look specs up by hash
    setattr_(spec, "_hash", hash((kind, pairs, label)))


def _spec(kind: str, pairs: tuple, label: str) -> DistributionSpec:
    """The spec with the parameter ``pairs``; ``params`` is left to its first read."""
    spec = object.__new__(DistributionSpec)
    _set_spec(spec, kind, pairs, label)
    object.__setattr__(spec, "_params", None)
    return spec


def _check_unit(p: tuple[int, int], what: str) -> None:
    if not 0 < p[0] <= p[1]:
        raise ValueError(f"{what} must lie in (0, 1], got {_text(p)}")


def point(c) -> DistributionSpec:
    c = _rational(c, "point mass location")
    return _spec("point", (c,), f"point:{_text(c)}")


def bernoulli(p) -> DistributionSpec:
    p = _rational(p, "bernoulli parameter")
    _check_unit(p, "bernoulli parameter")
    return _spec("bernoulli", (p,), f"bernoulli:{_text(p)}")


def binomial(m, p) -> DistributionSpec:
    _check_natural(m, "binomial count", 1)
    p = _rational(p, "binomial parameter")
    _check_unit(p, "binomial parameter")
    return _spec("binomial", (m, p), f"binomial:{m},{_text(p)}")


def poisson(lam) -> DistributionSpec:
    lam = _rational(lam, "poisson rate")
    if lam[0] < 0:
        raise ValueError(f"poisson rate must be non-negative, got {_text(lam)}")
    return _spec("poisson", (lam,), f"poisson:{_text(lam)}")


def geometric(q) -> DistributionSpec:
    q = _rational(q, "geometric success probability")
    _check_unit(q, "geometric success probability")
    return _spec("geometric", (q,), f"geometric:{_text(q)}")


def finite(pairs) -> DistributionSpec:
    entries = [(_rational(x, "support point"), _rational(w, "weight")) for x, w in pairs]
    if not entries:
        raise ValueError("finite distribution needs at least one support point")
    # the points over their lcm b sort as their numerators
    b = lcm(*[x[1] for x, _ in entries])
    support = sorted(entries, key=lambda e: e[0][0] * (b // e[0][1]))
    xs = [x for x, _ in support]
    if len(set(xs)) != len(xs):
        raise ValueError("finite distribution has a duplicated support point")
    if any(w[0] < 0 for _, w in support):
        raise ValueError("finite distribution weights must be non-negative")
    c = lcm(*[w[1] for _, w in support])
    total = sum([w[0] * (c // w[1]) for _, w in support])
    if total != c:
        raise ValueError(f"finite distribution weights must sum to 1, got {_text((total, c))}")
    label = "finite:" + ";".join(f"{_text(x)}={_text(w)}" for x, w in support)
    return _spec("finite", tuple(support), label)


def raw_moments(mus) -> DistributionSpec:
    vals = tuple(_rational(v, "raw moment") for v in mus)
    if not vals:
        raise ValueError("raw moment list must not be empty")
    if vals[0] != (1, 1):
        raise ValueError(f"raw moment list must start with mu_0 = 1, got {_text(vals[0])}")
    label = "raw:" + ",".join(map(_text, vals))
    return _spec("raw", vals, label)


def _stirling_expansion(rate: tuple[int, int], factors, order: int) -> tuple[list[int], int]:
    """mu_n = sum_k S(n, k) E[(Y)_k] for the factorial moments
    E[(Y)_k] = rate^k s_1 ... s_k, all over b^order for the pair
    rate = (a, b), with ``factors`` the integers s_1 .. s_order."""
    a, b = rate
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
    c = lcm(*[w[1] for _, w in params])
    b = lcm(*[x[1] for x, _ in params])
    terms = [w[0] * (c // w[1]) * b**order for _, w in params]
    points = [x[0] * (b // x[1]) for x, _ in params]
    nums = [sum(terms)]
    for _ in range(order):
        terms = [t * x // b for t, x in zip(terms, points)]
        nums.append(sum(terms))
    return nums, c * b**order


def _raw(params: tuple, order: int) -> tuple[list[int], int]:
    if len(params) - 1 < order:
        raise ValueError(f"raw spec provides moments up to order {len(params) - 1}, needed {order}")
    mu = params[: order + 1]
    den = lcm(*[q for _, q in mu])
    return [p * (den // q) for p, q in mu], den


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
# provider of the parameter pairs); geometric has E[(Y)_k] = k! theta^k
# with theta = (1-q)/q, which is (b - a)/a in lowest terms for q = a/b
_KINDS = {
    "point": (point, _whole, lambda ps, order: _finite(((ps[0], (1, 1)),), order)),
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
        lambda ps, order: _stirling_expansion(
            (ps[0][1] - ps[0][0], ps[0][0]), range(1, order + 1), order
        ),
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
    return _from_column(*provide(spec.pairs, order))


def moments(spec: DistributionSpec, order: int) -> MomentSequence:
    """Exact raw moments of the specified distribution up to ``order``."""
    return _moments_cached(spec, _check_natural(order))


def _column(ms: MomentSequence, order: int) -> tuple[tuple[int, ...], int]:
    """The integer moment column of ``ms``, checked to be a moment sequence
    that reaches ``order``, a natural number its caller has checked."""
    if ms.__class__ is not MomentSequence:
        raise TypeError(f"moments must be a MomentSequence, got {type(ms).__name__}")
    if ms.order < order:
        raise ValueError(f"need moments up to order {order}, have {ms.order}")
    return ms.column


@lru_cache(maxsize=None)
def _mgf(ms: MomentSequence, order: int) -> Series:
    mu, den = _column(ms, order)
    return _from_egf_column(list(mu[: order + 1]), den)


def mgf(ms: MomentSequence, order: int) -> Series:
    """Moment EGF: ordinary coefficients mu_n / n!."""
    return _mgf(ms, _check_natural(order))


@lru_cache(maxsize=None)
def _resolvent(ms: MomentSequence, order: int) -> Series:
    mu, den = _column(ms, order)
    return _from_egf_column(_transform(_FIRST, mu[: order + 1]), den)


def resolvent(ms: MomentSequence, order: int) -> Series:
    """E[(1/(1-t))^Y], whose EGF coefficients are the rising-factorial
    moments E[<Y>_n] = sum_k [n; k] mu_k, the first-kind transform of the
    moments."""
    return _resolvent(ms, _check_natural(order))


def sum_power_moment(ms: MomentSequence, j: int, n: int, order: int | None = None) -> Fraction:
    """E[(Y_1 + ... + Y_j)^n] for independent copies of Y; j = 0 gives 0^n."""
    _check_natural(j, "number of copies")
    order = _check_entry(n, order)
    return (mgf(ms, order) ** j).egf_coeff(n)
