"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (exhaustive enumeration or textbook
recurrences) and shares no code with the library paths it checks.
:func:`multilog_coefficient` is the literal enumeration of ascending
chains that defines the multiple logarithm, kept to check its dynamic
program.  There are exceptions.  The literal identity sums at the end
read each number through the library's per-entry functions and check only
how the identity checks sum those numbers.
:func:`resolvent_by_composition` is the library's composition route to
``R``, kept to check its rising-factorial route.
:func:`argparse_namespace` is the ``argparse`` parser the command line
used to have, kept to check its flag table, and :func:`fraction_rational`
the ``Fraction`` reader the library used to have, kept to check the
integer-pair reader ``series._rational``; it shares the library's
digit-count refusal, which it ran first.  :func:`fubini_by_inverted_power`
and :func:`moment_route_by_comb` are the forms the library's Fubini series
and moment route had before they carried their work, kept to check that
they give the same values, the second in the same integers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, perm

from multinumbers.series import _check_digits, _check_natural
from multinumbers import (
    Series,
    bernoulli_higher,
    index_tuple,
    mgf,
    multi_bernoulli,
    multi_lah,
    multi_stirling1,
    multi_stirling2,
    neg_log1m,
    prob_fubini,
    prob_multi_lah,
    prob_multi_stirling2,
    prob_stirling2,
    stirling1,
    stirling2,
)


def fraction_rational(value, what: str | None = None) -> tuple[int, int]:
    """``(numerator, denominator)`` of ``value`` read by ``Fraction``: as a
    parameter named ``what``, which refuses a float or a bool and wraps a
    refusal in one ``ValueError``, or, with ``what`` None, as a series
    coefficient, which refuses a float and lets ``Fraction``'s errors pass.
    Either way text past ``_check_digits`` is refused before ``Fraction``
    builds its numerator and denominator."""
    if what is None:
        if isinstance(value, float):
            raise TypeError("float coefficients are inexact; pass int, Fraction or str")
        if type(value) is str:
            _check_digits(value, "series coefficient")
        f = Fraction(value)
        return f.numerator, f.denominator
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise ValueError(f"{what} must be exact (int, Fraction or 'a/b' string), not {kind}")
    if type(value) is str:
        _check_digits(value, what)
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"cannot parse {what} from {value!r}") from exc
    return f.numerator, f.denominator


def set_partitions(elements: list):
    """Yield every partition of ``elements`` as a list of blocks."""
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [head]] + partial[i + 1 :]
        yield partial + [[head]]


def stirling2_count(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k blocks, by enumeration."""
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return cycles


def stirling1_count(n: int, k: int) -> int:
    """Permutations of n elements with exactly k cycles, by enumeration."""
    return sum(1 for p in permutations(range(n)) if cycle_count(p) == k)


def ordered_partition_count(n: int) -> int:
    """Ordered set partitions of an n-set, by recursive block choice."""

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        bits = [i for i in range(n) if mask & (1 << i)]
        total = 0
        # choose the first block: any nonempty subset of the remaining points
        for sub in range(1, 1 << len(bits)):
            block = 0
            for j, b in enumerate(bits):
                if sub & (1 << j):
                    block |= 1 << b
            total += count(mask & ~block)
        return total

    return count((1 << n) - 1)


def bell_numbers(count: int) -> list[int]:
    """First ``count`` Bell numbers via the Bell triangle."""
    values = [1]
    row = [1]
    while len(values) < count:
        nxt = [row[-1]]
        for entry in row:
            nxt.append(nxt[-1] + entry)
        row = nxt
        values.append(row[0])
    return values


def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0..B_{count-1} from sum_{j<=n} C(n+1, j) B_j = 0."""
    values: list[Fraction] = []
    for n in range(count):
        if n == 0:
            values.append(Fraction(1))
            continue
        acc = sum((comb(n + 1, j) * values[j] for j in range(n)), Fraction(0))
        values.append(-acc / (n + 1))
    return values


def bernoulli_higher_oracle(n_max: int, r: int) -> list[Fraction]:
    """EGF coefficients of (t/(e^t-1))^r by plain list convolution."""
    base = [b / factorial(n) for n, b in enumerate(bernoulli_numbers(n_max + 1))]
    acc = [Fraction(0)] * (n_max + 1)
    acc[0] = Fraction(1)
    for _ in range(r):
        nxt = [Fraction(0)] * (n_max + 1)
        for i, a in enumerate(acc):
            if not a:
                continue
            for j in range(n_max + 1 - i):
                nxt[i + j] += a * base[j]
        acc = nxt
    return [factorial(n) * c for n, c in enumerate(acc)]


def multilog_coefficient(ks, m: int) -> Fraction:
    """Coefficient of ``t^m`` by literal enumeration of ascending chains.

    Deliberately naive (it walks every chain); kept as an independent
    cross-check for the dynamic program.
    """
    ks = index_tuple(ks)
    _check_natural(m, "chain endpoint", 1)
    r = len(ks)
    total = Fraction(0)
    for head in combinations(range(1, m), r - 1):
        chain = head + (m,)
        term = Fraction(1)
        for mi, ki in zip(chain, ks):
            term *= Fraction(mi) ** (-ki)
        total += term
    return total


def one_minus_exp_neg_t(order: int) -> Series:
    """1 - e^(-t) up to t^order, from its coefficients (-1)^(n+1)/n!."""
    return Series([Fraction((-1) ** (n + 1), factorial(n)) if n else 0 for n in range(order + 1)])


def shifted(s: Series, v: int) -> Series:
    """``s`` divided by t^v, for ``s`` vanishing below t^v: its order drops by v."""
    return Series(s.coeffs[v:])


def series_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Truncated product of two equal-length coefficient lists, term by term
    in schoolbook ``Fraction`` arithmetic."""
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def series_compose(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Coefficients of f(g(t)) for g with zero constant term, by Horner's
    scheme over :func:`series_product`."""
    result = [Fraction(0)] * len(f)
    for c in reversed(f):
        result = series_product(result, g)
        result[0] += c
    return result


def series_exp(a: list[Fraction]) -> list[Fraction]:
    """exp of a coefficient list with a[0] == 0, from b' = a' b in ``Fraction``
    arithmetic, one term at a time."""
    b = [Fraction(0)] * len(a)
    b[0] = Fraction(1)
    for n in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if a[j]:
                acc += j * a[j] * b[n - j]
        b[n] = acc / n
    return b


def series_log(a: list[Fraction]) -> list[Fraction]:
    """log of a coefficient list with a[0] == 1, from b' = a' / a in
    ``Fraction`` arithmetic, one term at a time."""
    b = [Fraction(0)] * len(a)
    for n in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, n):
            if b[j] and a[n - j]:
                acc += j * b[j] * a[n - j]
        b[n] = a[n] - acc / n
    return b


def series_inverse(a: list[Fraction]) -> list[Fraction]:
    """Multiplicative inverse of a coefficient list with a[0] != 0, from
    a b = 1 in ``Fraction`` arithmetic, one term at a time."""
    b = [Fraction(0)] * len(a)
    b[0] = 1 / a[0]
    for n in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if a[j]:
                acc += a[j] * b[n - j]
        b[n] = -acc / a[0]
    return b


def fraction_moments(spec, order: int) -> tuple[Fraction, ...]:
    """Raw moments mu_0..mu_order of a distribution spec, each provider a
    textbook formula summed in ``Fraction`` arithmetic term by term."""
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
            mu[n] = sum(stirling2(n, k) * perm(m, k) * p**k for k in range(1, min(n, m) + 1))
    elif spec.kind == "poisson":
        (lam,) = spec.params
        for n in range(order):
            mu[n + 1] = lam * sum(comb(n, i) * mu[i] for i in range(n + 1))
    elif spec.kind == "geometric":
        (q,) = spec.params
        theta = (1 - q) / q
        for n in range(1, order + 1):
            mu[n] = sum(stirling2(n, k) * factorial(k) * theta**k for k in range(1, n + 1))
    elif spec.kind == "finite":
        for n in range(1, order + 1):
            mu[n] = sum(w * x**n for x, w in spec.params)
    else:
        mu = list(spec.params[: order + 1])
    return tuple(mu)


def fraction_multilog(ks, order: int) -> list[Fraction]:
    """Coefficients of Li_ks up to t^order by the prefix-sum recurrence
    ``cur[m] = m^(-k) sum_{j<m} prev[j]`` in ``Fraction`` arithmetic."""
    prev = [Fraction(1)] + [Fraction(0)] * order
    for k in ks:
        cur = [Fraction(0)] * (order + 1)
        below = Fraction(0)
        for m in range(order + 1):
            if m >= 1 and below:
                cur[m] = below * Fraction(m) ** (-k)
            below += prev[m]
        prev = cur
    return prev


def rising_factorial_stirling1(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the unsigned first-kind triangle, row n holding the
    coefficients of the rising factorial x (x + 1) ... (x + n - 1) in x."""
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([(prev[k - 1] if k else 0) + n * prev[k] for k in range(n + 2)])
    return rows


def rising_factorial_resolvent(ms, order: int) -> list[Fraction]:
    """[t^n] E[(1-t)^(-Y)] = sum_k [n; k] mu_k / n! for n = 0..order: the
    coefficient of t^n in (1-t)^(-y) is the rising factorial y^(n) / n!."""
    rows = rising_factorial_stirling1(order)
    return [
        sum((c * ms.mu[k] for k, c in enumerate(rows[n])), Fraction(0)) / factorial(n)
        for n in range(order + 1)
    ]


def resolvent_by_composition(ms, order: int):
    """E[(1-t)^(-Y)] = E[e^(Y (-log(1-t)))], the moment EGF composed with
    -log(1-t): the library's composition route, kept to test the
    rising-factorial route of ``resolvent`` against."""
    return mgf(ms, order).compose(neg_log1m(order))


# ---------------------------------------------------------------- whole-column family oracle


def _integral(a: list[Fraction]) -> list[Fraction]:
    """Antiderivative with zero constant term, one coefficient longer."""
    return [Fraction(0)] + [c / (n + 1) for n, c in enumerate(a)]


def li_family(ks, u, order: int) -> list[Fraction]:
    """Coefficients of Li_ks(g), g = 1 - e^(1 - u), up to t^order, from the
    derivative rules of the multiple logarithm instead of a composition:

        d/dt Li_(ks,1)(g) = g' / (1 - g) Li_ks(g),
        d/dt Li_(ks,k)(g) = g' / g Li_(ks,k-1)(g),

    integrated upward from Li_() = 1 (the Li of a nonempty tuple vanishes at
    t = 0), and for a last index k <= 0 read downward,
    Li_(ks,k-1)(g) = (g / g') d/dt Li_(ks,k)(g), which costs one order per
    step; so the work runs at ``order`` plus the number of those steps.
    ``u(m)`` gives the coefficients of u up to t^m, with u_0 = 1 and
    u_1 != 0 (a nonzero mean), so that g / t and g' are invertible.
    """
    top = order + sum(1 - k for k in ks if k <= 0)
    # one coefficient past the working order keeps every weight nonempty
    e = series_exp([Fraction(0)] + [-c for c in u(top + 1)[1:]])
    g = [Fraction(0)] + [-c for c in e[1:]]
    dg = [n * c for n, c in enumerate(g)][1:]  # g'
    h = g[1:]  # g / t
    one = series_product(dg, series_inverse([Fraction(1)] + [-c for c in g[1:-1]]))  # g'/(1-g)
    up = series_product(dg, series_inverse(h))  # t g'/g
    down = series_product(h, series_inverse(dg))  # g/(t g')
    f = [Fraction(1)] + [Fraction(0)] * top
    for k in ks:
        f = _integral(series_product(one[: len(f) - 1], f[:-1]))
        for _ in range(k - 1):
            f = _integral(series_product(up[: len(f) - 1], f[1:]))
        for _ in range(1 - k):
            df = [n * c for n, c in enumerate(f)][1:]
            f = [Fraction(0)] + series_product(down[: len(df) - 1], df[:-1])
    return f


# ---------------------------------------------------------------- literal identity sums
# The sums of the identity checks exactly as the identities are written,
# one entry at a time in ``Fraction`` arithmetic: O(N^3) per cell for the
# double sums, kept to test the integer O(N^2) forms of the checks.


def _sign(e: int) -> int:
    return 1 if e % 2 == 0 else -1


def first_kind_inversion_sum(ms, ks, order: int) -> list[Fraction]:
    """sum_{l=r}^{n} sum_{m=r}^{l} (-1)^(l-m) S(l, m) {n; l}_Y [m; ks], n = 0..order."""
    r = len(ks)
    out = []
    for n in range(order + 1):
        rhs = Fraction(0)
        for l in range(r, n + 1):
            for m in range(r, l + 1):
                rhs += (
                    _sign(l - m)
                    * stirling2(l, m)
                    * prob_stirling2(ms, n, l, order)
                    * multi_stirling1(ks, m, order)
                )
        out.append(rhs)
    return out


def bernoulli_expansion_sum(ms, ks, order: int) -> list[Fraction]:
    """r! sum_m sum_{l=r}^{n-m} (-1)^(l-r) C(m+l, m) S(l, r) {n; m+l}_Y B_m(ks),
    n = 0..order-r."""
    r = len(ks)
    out = []
    for n in range(order - r + 1):
        rhs = Fraction(0)
        for m in range(n - r + 1):
            for l in range(r, n - m + 1):
                rhs += (
                    factorial(r)
                    * _sign(l - r)
                    * comb(m + l, m)
                    * stirling2(l, r)
                    * prob_stirling2(ms, n, m + l, order)
                    * multi_bernoulli(ks, m, order)
                )
        out.append(rhs)
    return out


def bernoulli_expansion_single_index_sum(ms, r: int, order: int) -> list[Fraction]:
    """sum_m sum_{l=r}^{n-m} (-1)^(m+l-r) C(m+l, m) S(l, r) {n; m+l}_Y B_m^(r),
    n = 0..order-r."""
    out = []
    for n in range(order - r + 1):
        rhs = Fraction(0)
        for m in range(n - r + 1):
            for l in range(r, n - m + 1):
                rhs += (
                    _sign(m + l - r)
                    * comb(m + l, m)
                    * stirling2(l, r)
                    * prob_stirling2(ms, n, m + l, order)
                    * bernoulli_higher(m, r, order)
                )
        out.append(rhs)
    return out


def fubini_sums(ms, ks, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """sum_{k=r}^{n} {n; k}_Y L(k; ks) and sum_{k=r}^{n} C(n, k) {k; ks}_Y F_(n-k),
    n = 0..order."""
    r = len(ks)
    lhs, rhs = [], []
    for n in range(order + 1):
        lhs.append(
            sum(
                (
                    prob_stirling2(ms, n, k, order) * multi_lah(ks, k, order)
                    for k in range(r, n + 1)
                ),
                Fraction(0),
            )
        )
        rhs.append(
            sum(
                (
                    comb(n, k)
                    * prob_multi_stirling2(ms, ks, k, order)
                    * prob_fubini(ms, r, 1, n - k, order)
                    for k in range(r, n + 1)
                ),
                Fraction(0),
            )
        )
    return lhs, rhs


def _prefix_entry(entry, prefix, m: int, order: int) -> Fraction:
    """``entry(prefix, m, order)``, or the delta value [m == 0] for an empty prefix."""
    if not prefix:
        return Fraction(int(m == 0))
    return entry(prefix, m, order)


def append_one_deterministic_sums(prefix, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """sum_m C(n, m) ms2(prefix, m) and ms2(prefix + (1,), n + 1), n = 0..order-1."""
    full = tuple(prefix) + (1,)
    lhs = [
        sum(
            (
                comb(n, m) * _prefix_entry(multi_stirling2, prefix, m, order)
                for m in range(len(prefix), n + 1)
            ),
            Fraction(0),
        )
        for n in range(order)
    ]
    return lhs, [multi_stirling2(full, n + 1, order) for n in range(order)]


def append_one_sums(ms, prefix, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """sum_m C(n, m) mu_(n-m+1) {m; prefix}_Y and {n+1; prefix + (1,)}_Y,
    n = 0..order-1."""
    full = tuple(prefix) + (1,)

    def head(ks, m, order):
        return prob_multi_stirling2(ms, ks, m, order)

    lhs = [
        sum(
            (
                comb(n, m) * ms.mu[n - m + 1] * _prefix_entry(head, prefix, m, order)
                for m in range(len(prefix), n + 1)
            ),
            Fraction(0),
        )
        for n in range(order)
    ]
    return lhs, [prob_multi_stirling2(ms, full, n + 1, order) for n in range(order)]


def append_one_single_index_sums(ms, r: int, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """sum_m C(n-1, m) {m; r-1}_Y mu_(n-m) and {n; r}_Y, n = 0..order (zero below r)."""
    lhs = [Fraction(0)] * (order + 1)
    rhs = [Fraction(0)] * (order + 1)
    for n in range(r, order + 1):
        lhs[n] = sum(
            (
                comb(n - 1, m) * prob_stirling2(ms, m, r - 1, order) * ms.mu[n - m]
                for m in range(r - 1, n)
            ),
            Fraction(0),
        )
        rhs[n] = prob_stirling2(ms, n, r, order)
    return lhs, rhs


def append_one_classical_sums(r: int, order: int) -> tuple[list[int], list[int]]:
    """sum_m C(n-1, m) S(m, r-1) and S(n, r), n = 0..order (zero below r)."""
    lhs = [0] * (order + 1)
    for n in range(r, order + 1):
        lhs[n] = sum(comb(n - 1, m) * stirling2(m, r - 1) for m in range(r - 1, n))
    return lhs, [stirling2(n, r) for n in range(order + 1)]


def lah_sums(ms, ks, order: int) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """The probabilistic multi-Lah numbers, sum_{k=r}^{n} {k; ks}_Y [n; k]
    (corrected) and sum_{k=r}^{n} {n; ks}_Y [n; k] (literal), n = 0..order."""
    r = len(ks)
    direct = [prob_multi_lah(ms, ks, n, order) for n in range(order + 1)]
    corrected = [
        sum(
            (prob_multi_stirling2(ms, ks, k, order) * stirling1(n, k) for k in range(r, n + 1)),
            Fraction(0),
        )
        for n in range(order + 1)
    ]
    literal = [
        sum(
            (prob_multi_stirling2(ms, ks, n, order) * stirling1(n, k) for k in range(r, n + 1)),
            Fraction(0),
        )
        for n in range(order + 1)
    ]
    return direct, corrected, literal


def bernoulli_convolution_sum(ms, ks, order: int) -> list[Fraction]:
    """sum_{j=0}^{n} B_j(ks) {n; j}_Y, n = 0..order."""
    return [
        sum(
            (
                multi_bernoulli(ks, j, order) * prob_stirling2(ms, n, j, order)
                for j in range(n + 1)
            ),
            Fraction(0),
        )
        for n in range(order + 1)
    ]


def moment_route(ms, order: int) -> list[list[Fraction]]:
    """T[k][n] = (1/k!) sum_{j=0}^{k} C(k, j) (-1)^(k-j) E[S_j^n] for
    n, k = 0..order, with E[S_j^n] = n! [t^n] M(t)^j from
    :func:`series_product` on the moment EGF M."""
    mgf = [ms.mu[n] / factorial(n) for n in range(order + 1)]
    power = [Fraction(1)] + [Fraction(0)] * order
    sums = []
    for _ in range(order + 1):
        sums.append([factorial(n) * c for n, c in enumerate(power)])
        power = series_product(power, mgf)
    return [
        [
            sum(
                (_sign(k - j) * comb(k, j) * sums[j][n] for j in range(k + 1)), Fraction(0)
            )
            / factorial(k)
            for n in range(order + 1)
        ]
        for k in range(order + 1)
    ]


def fubini_by_inverted_power(ms, r: int, y, order: int) -> Series:
    """(1 - y (M - 1))^(-r) as the inverse of the r-th power of
    1 - y (M - 1), the Fubini series the library once formed anew for each r."""
    return ((1 - (mgf(ms, order) - 1) * Fraction(y)) ** r).inverse()


def moment_route_by_comb(ms, order: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The moment route's integer triangle ``(columns, d)`` as the library
    once wrote it: E[S_j^n] D^j as j binomial convolutions of the moment
    column mu / D of ``ms``, and each weight C(k, j) (-1)^(k-j) order!/k!
    D^(order-j) formed anew from ``comb`` and ``factorial``."""
    mu, den = ms.column
    sums = [[1] + [0] * order]
    for j in range(order):
        sums.append([
            sum(comb(n, m) * sums[j][m] * mu[n - m] for m in range(n + 1))
            for n in range(order + 1)
        ])
    top = factorial(order)
    columns = []
    for k in range(order + 1):
        column = [0] * (order + 1)
        for j in range(k + 1):
            c = _sign(k - j) * comb(k, j) * (top // factorial(k)) * den ** (order - j)
            for n, x in enumerate(sums[j]):
                column[n] += c * x
        columns.append(tuple(column))
    return tuple(columns), den**order * top


def argparse_namespace(argv: list[str]) -> dict | None:
    """The attributes ``argparse`` parses from ``argv`` with the command
    line's former parser, or None where it refuses ``argv`` (its usage
    message is swallowed)."""
    from multinumbers.cli import FAMILIES, ORDER_CAP, _cmd_table, _cmd_verify

    parser = argparse.ArgumentParser(
        prog="multinum",
        description="Exact tables of multiple-logarithm number families and a mechanical "
        "identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit one family's values as JSON lines or CSV")
    table.add_argument("family", choices=FAMILIES)
    table.add_argument("--ks", help="comma-separated integer index tuple, e.g. 1,2")
    table.add_argument("--dist", help="distribution spec, e.g. bernoulli:1/2")
    table.add_argument("--order", type=int, default=12, help="truncation order (default 12)")
    table.add_argument("--r", type=int, help="power for bernoulli-higher / prob-fubini")
    table.add_argument("--y", help="rational argument for prob-fubini")
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument(
        "--force-order",
        action="store_true",
        help=f"allow --order above {ORDER_CAP} and values past the size cap",
    )
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run the identity suite and stream JSON reports")
    verify.add_argument("--order", type=int, default=12, help="truncation order (default 12)")
    verify.add_argument("--grid", help="JSON file: list of {dist, ks} grid cells")
    verify.add_argument(
        "--identity",
        default="all",
        help="restrict to one identity id (see --list-identities), or 'all'",
    )
    verify.add_argument(
        "--list-identities", action="store_true", help="print identity ids and exit"
    )
    verify.add_argument(
        "--force-order",
        action="store_true",
        help=f"allow --order above {ORDER_CAP} and grid cells past the size cap",
    )
    verify.set_defaults(func=_cmd_verify)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        if exc.code != 2:
            raise
        return None
