"""Exact raw moments of a discrete random variable Y and the two series
every probabilistic family is built from: the moment EGF E[e^(Yt)] and
the resolvent-style transform E[(1/(1-t))^Y].

Y is represented purely by its moment sequence; there is no sampling and
no density object anywhere.  Built-in providers cover point masses,
Bernoulli, binomial, Poisson, geometric (failures before the first
success, success probability q), finitely supported laws, and raw moment
lists.  Binomial and geometric moments go through Stirling-number
expansions of the factorial moments, which keeps everything inside exact
rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

from .classical import _stirling_row
from .report import FrozenRecord
from .series import Series, _check_entry, neg_log1m

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
    if isinstance(value, float):
        raise ValueError(f"{what} must be exact (int, Fraction or 'a/b' string), not float")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"cannot parse {what} from {value!r}") from exc


class MomentSequence(FrozenRecord):
    """Raw moments mu_0..mu_N of Y, with mu_0 = 1."""

    _fields = ("mu",)
    __match_args__ = _fields
    __slots__ = ("mu", "_hash")

    mu: tuple[Fraction, ...]

    def __init__(self, mu: tuple[Fraction, ...]) -> None:
        if not mu:
            raise ValueError("a moment sequence needs at least mu_0")
        if mu[0] != 1:
            raise ValueError(f"mu_0 must equal 1, got {mu[0]}")
        object.__setattr__(self, "mu", mu)
        # Caches keyed on a sequence would otherwise re-hash every moment per
        # lookup; the value is hash of the field tuple, as for every record.
        object.__setattr__(self, "_hash", hash((mu,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return len(self.mu) - 1

    def moment(self, n: int) -> Fraction:
        if n < 0 or n > self.order:
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
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"binomial count must be a positive integer, got {m!r}")
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


@lru_cache(maxsize=None)
def _moments_cached(spec: DistributionSpec, order: int) -> MomentSequence:
    mu = [Fraction(1)] + [Fraction(0)] * order
    if spec.kind == "point":
        (c,) = spec.params
        for n in range(1, order + 1):
            mu[n] = c**n
    elif spec.kind == "bernoulli":
        (p,) = spec.params
        for n in range(1, order + 1):
            mu[n] = p
    elif spec.kind == "binomial":
        m, p = spec.params
        # mu_n through factorial moments: E[(Y)_k] = (m)_k p^k
        for n in range(1, order + 1):
            row = _stirling_row(False, n)
            mu[n] = sum((row[k] * perm(m, k)) * p**k for k in range(1, min(n, m) + 1))
    elif spec.kind == "poisson":
        (lam,) = spec.params
        for n in range(order):
            mu[n + 1] = lam * sum(comb(n, i) * mu[i] for i in range(n + 1))
    elif spec.kind == "geometric":
        (q,) = spec.params
        theta = (1 - q) / q
        for n in range(1, order + 1):
            row = _stirling_row(False, n)
            mu[n] = sum(row[k] * factorial(k) * theta**k for k in range(1, n + 1))
    elif spec.kind == "finite":
        for n in range(1, order + 1):
            mu[n] = sum(w * x**n for x, w in spec.params)
    elif spec.kind == "raw":
        vals = spec.params
        if len(vals) - 1 < order:
            raise ValueError(
                f"raw spec provides moments up to order {len(vals) - 1}, needed {order}"
            )
        mu = list(vals[: order + 1])
    else:  # pragma: no cover - factories exhaust the kinds
        raise ValueError(f"unknown distribution kind {spec.kind!r}")
    return MomentSequence(tuple(mu))


def moments(spec: DistributionSpec, order: int) -> MomentSequence:
    """Exact raw moments of the specified distribution up to ``order``."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValueError(f"moment order must be a non-negative integer, got {order!r}")
    return _moments_cached(spec, order)


@lru_cache(maxsize=None)
def mgf(ms: MomentSequence, order: int) -> Series:
    """Moment EGF: ordinary coefficients mu_n / n!."""
    if ms.order < order:
        raise ValueError(f"need moments up to order {order}, have {ms.order}")
    return Series(ms.mu[n] / factorial(n) for n in range(order + 1))


@lru_cache(maxsize=None)
def resolvent(ms: MomentSequence, order: int) -> Series:
    """E[(1/(1-t))^Y], the moment EGF composed with -log(1-t)."""
    return mgf(ms, order).compose(neg_log1m(order))


@lru_cache(maxsize=None)
def _powers(u, ms: MomentSequence, order: int, scaled: bool) -> dict[int, Series]:
    """The powers of :func:`power_table` held for one key, from k = 0."""
    return {0: Series.one(order)}


def power_table(u, ms: MomentSequence, k: int, order: int, scaled: bool) -> Series:
    """``u(ms, order) ** k``, divided by ``k!`` when ``scaled``.

    The powers of each (u, Y, order, scaled) are memoised and filled upward
    from the highest one held, one series product per new power, in a loop:
    a table of k = 0..K costs K products and no recursion.  As with the
    Stirling rows, threads that fill the same power store equal values.
    """
    powers = _powers(u, ms, order, scaled)
    for j in range(len(powers), k + 1):
        power = powers[j - 1] * u(ms, order)
        powers[j] = power * Fraction(1, j) if scaled else power
    return powers[k]


def sum_power_moment(ms: MomentSequence, j: int, n: int, order: int | None = None) -> Fraction:
    """E[(Y_1 + ... + Y_j)^n] for independent copies of Y; j = 0 gives 0^n."""
    if not isinstance(j, int) or isinstance(j, bool) or j < 0:
        raise ValueError(f"number of copies must be a non-negative integer, got {j!r}")
    order = _check_entry(n, order)
    return power_table(mgf, ms, j, order, False).egf_coeff(n)
