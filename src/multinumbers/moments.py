"""Exact raw moments of a discrete random variable Y and the two series
every probabilistic family is built from: the moment EGF E[e^(Yt)] and
the resolvent-style transform R(t) = E[(1/(1-t))^Y].

Y is represented purely by its moment sequence; there is no sampling and
no density object anywhere.  Built-in providers cover point masses,
Bernoulli, binomial, Poisson, geometric (failures before the first
success, success probability q), finitely supported laws, and raw moment
lists.

The providers compute in plain ``int``: for parameters with denominator
``b`` the n-th moment is an integer numerator over ``c b^n``.  Poisson,
binomial and geometric moments (Bernoulli is the binomial with one
trial) expand their factorial moments in the second-kind Stirling
numbers; for Poisson, whose k-th factorial moment is ``lam^k``, that is
the Touchard polynomial ``mu_n = sum_k S(n, k) lam^k``.  Finite laws (a
point mass is one with a single point) sum ``w x^n`` over the lcm of the
weight denominators and of the point denominators.  Each moment becomes
one ``Fraction``; :class:`MomentSequence` also keeps them as one integer
column, which ``mgf`` scales by ``N!/n!`` as ``exp_t`` does.

The coefficient of t^n in (1-t)^(-y) is the rising factorial
y (y+1) ... (y+n-1) / n!, so the EGF coefficients of ``R`` are the
rising-factorial moments E[<Y>_n] = sum_k [n; k] mu_k: ``resolvent``
applies the unsigned first-kind rows of ``classical._row`` to the integer
moment column and scales the result by ``N!/n!`` as ``mgf`` does, with no
series composition.  The composition route M(-log(1-t)) is kept in the
tests as the oracle it is checked against.
:func:`sum_power_moment` squares ``M`` up to ``M^j`` in about ``2 log2 j`` products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .classical import _FIRST, _ROWS, _SECOND, _row
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


def _rational(value, what: str) -> Fraction:
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise ValueError(f"{what} must be exact (int, Fraction or 'a/b' string), not {kind}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"cannot parse {what} from {value!r}") from exc


class MomentSequence(FrozenRecord):
    """Raw moments mu_0..mu_N of Y, with mu_0 = 1; the slot ``column``, not a
    field, holds them as ``(numerators, lcm of the denominators)``."""

    _fields = ("mu",)
    __match_args__ = _fields
    __slots__ = ("mu", "column", "_hash")

    mu: tuple[Fraction, ...]

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
        column = tuple([m.numerator * (den // d) for m, d in zip(mu, dens)])
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "column", (column, den))
        # Caches keyed on a sequence would otherwise re-hash every moment per
        # lookup; the value is hash of the field tuple, as for every record.
        object.__setattr__(self, "_hash", hash((mu,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return len(self.mu) - 1

    def moment(self, n: int) -> Fraction:
        _check_natural(n, "n")
        if n > self.order:
            raise ValueError(f"moment index {n} outside available order {self.order}")
        return self.mu[n]


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


def parse_distribution(text: str) -> DistributionSpec:
    """Parse the textual grammar, e.g. ``bernoulli:1/2`` or ``finite:0=1/2;2=1/2``."""
    if not isinstance(text, str) or ":" not in text:
        raise ValueError(f"malformed distribution spec {text!r}")
    kind, _, body = text.partition(":")
    kind = kind.strip()
    body = body.strip()
    try:
        if kind == "point":
            return point(body)
        if kind == "bernoulli":
            return bernoulli(body)
        if kind == "binomial":
            m_text, _, p_text = body.partition(",")
            return binomial(int(m_text), p_text)
        if kind == "poisson":
            return poisson(body)
        if kind == "geometric":
            return geometric(body)
        if kind == "finite":
            pairs = []
            for chunk in body.split(";"):
                x_text, sep, w_text = chunk.partition("=")
                if not sep:
                    raise ValueError(f"finite entry {chunk!r} is not 'x=w'")
                pairs.append((x_text, w_text))
            return finite(pairs)
        if kind == "raw":
            return raw_moments(body.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid distribution spec {text!r}: {exc}") from exc
    raise ValueError(f"unknown distribution kind {kind!r}")


# Each provider maps (params, order) to integer numerators N_0..N_order,
# a denominator c and a base b with mu_n = N_n / (c b^n).


def _stirling_expansion(a: int, b: int, step, order: int) -> tuple[list[int], int, int]:
    """mu_n = sum_k S(n, k) E[(Y)_k] for the factorial moments
    E[(Y)_k] = (a/b)^k step(1) ... step(k), over b^n."""
    fm = [1]  # a^k step(1) ... step(k)
    for k in range(1, order + 1):
        fm.append(fm[-1] * step(k) * a)
    nums = []
    for n in range(order + 1):
        acc = 0
        for s2, f in zip(_row(_SECOND, n), fm):
            acc = acc * b + s2 * f
        nums.append(acc)
    return nums, 1, b


def _geometric(params: tuple, order: int) -> tuple[list[int], int, int]:
    # E[(Y)_k] = k! theta^k, theta = (1-q)/q; q = s/t in lowest terms gives
    # theta = (t-s)/s, also in lowest terms
    (q,) = params
    return _stirling_expansion(q.denominator - q.numerator, q.numerator, lambda k: k, order)


def _binomial(params: tuple, order: int) -> tuple[list[int], int, int]:
    # E[(Y)_k] = (m)_k p^k, zero past k = m
    m, p = params
    return _stirling_expansion(p.numerator, p.denominator, lambda k: m - k + 1, order)


def _finite(params: tuple, order: int) -> tuple[list[int], int, int]:
    # mu_n = sum w x^n; weights over their lcm c, points over their lcm b
    c = lcm(*[w.denominator for _, w in params])
    b = lcm(*[x.denominator for x, _ in params])
    terms = [w.numerator * (c // w.denominator) for _, w in params]
    points = [x.numerator * (b // x.denominator) for x, _ in params]
    nums = []
    for _ in range(order + 1):
        nums.append(sum(terms))
        terms = [t * x for t, x in zip(terms, points)]
    return nums, c, b


_PROVIDERS = {
    "point": lambda params, order: _finite(((params[0], 1),), order),
    "bernoulli": lambda params, order: _binomial((1, params[0]), order),
    "binomial": _binomial,
    "poisson": lambda params, order: _stirling_expansion(
        params[0].numerator, params[0].denominator, lambda k: 1, order
    ),
    "geometric": _geometric,
    "finite": _finite,
}


@lru_cache(maxsize=None)
def _moments_cached(spec: DistributionSpec, order: int) -> MomentSequence:
    if spec.kind == "raw":
        vals = spec.params
        if len(vals) - 1 < order:
            raise ValueError(
                f"raw spec provides moments up to order {len(vals) - 1}, needed {order}"
            )
        return MomentSequence(vals[: order + 1])
    nums, den, base = _PROVIDERS[spec.kind](spec.params, order)
    mu = []
    for num in nums:
        mu.append(Fraction(num, den))
        den *= base
    return MomentSequence(tuple(mu))


def moments(spec: DistributionSpec, order: int) -> MomentSequence:
    """Exact raw moments of the specified distribution up to ``order``."""
    return _moments_cached(spec, _check_natural(order))


def _column(ms: MomentSequence, order: int) -> tuple[tuple[int, ...], int]:
    """The integer moment column of ``ms``, checked to reach ``order``."""
    if ms.order < _check_natural(order):
        raise ValueError(f"need moments up to order {order}, have {ms.order}")
    return ms.column


# ``typed``, as for the stock series: ``True`` never reads the entry of order 1
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
    _row(_FIRST, order)
    rows = _ROWS[_FIRST]
    return _from_egf_column([sum(map(mul, rows[n], mu)) for n in range(order + 1)], den)


def sum_power_moment(ms: MomentSequence, j: int, n: int, order: int | None = None) -> Fraction:
    """E[(Y_1 + ... + Y_j)^n] for independent copies of Y; j = 0 gives 0^n."""
    _check_natural(j, "number of copies")
    order = _check_entry(n, order)
    return (mgf(ms, order) ** j).egf_coeff(n)
