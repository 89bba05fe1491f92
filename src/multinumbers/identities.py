"""Mechanical verification of the identity catalogue over a grid of
(distribution, index tuple) cells.

Every check compares exact rationals computed along two independent code
paths (a direct series extraction against a finite sum over number
tables), so a shared bug cannot certify itself.  A check lists its
comparisons as data, ``(lhs, rhs, ns, detail)``: two columns of integer
numerators over one denominator each, the n compared and a label.  One
runner, :func:`_verdict`, scans them by cross-multiplication and builds
the report: ``pass`` only under exact equality of every coefficient in
range, else the first mismatch (the only ``Fraction`` built) and its label.

Every check-side sum has one of two shapes and is formed by one kernel
each, in ``int`` arithmetic: a binomial convolution
sum_m C(n, m) a_m b_(n-m), the EGF product of two columns
(:func:`_binomial_sums`), or a lower-triangular array applied to a
vector, sum_j w_j T(n, j) (:func:`_triangle_sums`), as for the
exponential Riordan array (1, M - 1) of the {n; j}_Y triangle.  The
first-kind weights of ``first-kind-inversion`` are not such a sum: they
are the column :func:`multilog._f_column` that the deterministic
families are built from.

Two comparisons are known to disagree and are reported as
``expected-discrepancy`` rather than failures, each with its first
counterexample attached:

* ``lah-via-first-kind-literal``: the variant of the Lah expansion whose
  summand fixes the outer index (sum of {n; ks}_Y [n; k]) does not match
  the defining series; the corrected variant that sums {k; ks}_Y [n; k]
  does.
* ``point-mass-collapse-multi-lah``: at Y = point(1) the probabilistic
  multi-Lah numbers agree with the deterministic multi-Lah numbers only
  for all-ones index tuples; general indices genuinely differ (first at
  n = 3 for the tuple (2,)).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from .classical import _FIRST, _LAH, _SECOND, _SIGNED_SECOND, _columns, bernoulli_higher_series
from .moments import (
    DistributionSpec,
    MomentSequence,
    bernoulli,
    binomial,
    finite,
    geometric as geometric_dist,
    mgf,
    moments,
    point,
    poisson,
)
from .multi import li_argument, multi_bernoulli_series, multi_lah_series, multi_stirling2_series
from .multilog import _f_column, index_tuple, multilog
from .probabilistic import (
    _moment_route_columns,
    prob_fubini_series,
    prob_lah_series,
    prob_multi_lah_series,
    prob_multi_stirling2_series,
    prob_stirling2_series,
)
from .report import (
    EXPECTED_DISCREPANCY,
    FAIL,
    SKIPPED,
    Mismatch,
    VerificationReport,
)
from .series import Series, _check_natural, _over_lcm, geometric, neg_log1m

__all__ = [
    "ALL_IDENTITIES",
    "IDENTITIES",
    "Identity",
    "default_grid",
    "run_full_suite",
    "check_derivative_rules",
    "check_append_one_deterministic",
    "check_append_one",
    "check_bernoulli_convolution",
    "check_first_kind_inversion",
    "check_lah_via_first_kind",
    "check_bernoulli_expansion",
    "check_bernoulli_expansion_single_index",
    "check_fubini_convolution",
    "check_route_agreement",
    "check_all_ones_deterministic",
    "check_all_ones_probabilistic",
    "check_point_mass_collapse_classical",
    "check_point_mass_collapse_multi",
]

# A column is ``(a, d)``: integer numerators over one positive denominator,
# standing for the values a[n] / d.  A triangle is ``(columns, d)``: several
# numerator columns over one denominator, entry ``columns[k][n]``.
Column = "tuple[Sequence[int], int]"
Triangle = "tuple[Sequence[Sequence[int]], int]"

_DEFAULT_TUPLES: tuple[tuple[int, ...], ...] = (
    (1,),
    (2,),
    (1, 1),
    (1, 2),
    (2, 1),
    (1, 1, 1),
    (2, 3),
    (1, 2, 3),
)


def default_grid() -> list[tuple[DistributionSpec, tuple[int, ...]]]:
    """Distribution x index-tuple grid used by the command line verifier."""
    dists = (
        point(1),
        point(2),
        bernoulli(Fraction(1, 2)),
        binomial(3, Fraction(1, 3)),
        poisson(1),
        geometric_dist(Fraction(1, 2)),
        finite([(0, Fraction(1, 2)), (2, Fraction(1, 2))]),
    )
    return [(spec, ks) for spec in dists for ks in _DEFAULT_TUPLES]


def _verdict(
    identity: str,
    order: int,
    comparisons: Iterable[tuple[Column, Column, Iterable, str]],
    ks: tuple[int, ...] | None = None,
    dist: str | None = None,
) -> VerificationReport:
    """The report of ``identity`` on its comparisons ``(lhs, rhs, ns, detail)``,
    each of a[n] / da against b[n] / db for n in ``ns``, with ``lhs = (a, da)``
    and ``rhs = (b, db)``.  The first mismatch, with its ``detail``, is a
    failure or, for an identity the registry flags ``expected``, an expected
    discrepancy; with none the report is a pass."""
    for (a, da), (b, db), ns, detail in comparisons:
        for n in ns:
            if a[n] * db != b[n] * da:
                # a triangle entry is keyed (n, k) and reported at its row n
                row = n if type(n) is int else n[0]
                mismatch = Mismatch(row, Fraction(a[n], da), Fraction(b[n], db))
                status = EXPECTED_DISCREPANCY if _REGISTRY[identity].expected else FAIL
                return VerificationReport(identity, order, ks, dist, status, mismatch, detail)
    return VerificationReport(identity, order, ks, dist)


def _triangle_comparison(lhs: Triangle, rhs: Triangle, top: int) -> tuple:
    """The comparison of two triangles ``(columns, d)`` with entry
    ``columns[k][n]``: each side as a column keyed by (n, k), scanned over
    n = 0..top and, for each n, k = 0..n."""
    keys = [(n, k) for n in range(top + 1) for k in range(n + 1)]
    (cols_a, da), (cols_b, db) = lhs, rhs
    a = {(n, k): cols_a[k][n] for n, k in keys}
    b = {(n, k): cols_b[k][n] for n, k in keys}
    return (a, da), (b, db), keys, ""


def _binomial_sums(a: Sequence[int], b: Sequence[int], top: int) -> list[int]:
    """sum_{m=0}^{n} C(n, m) a[m] b[n-m] for n = 0..top (none when top < 0):
    the EGF product of the columns ``a`` and ``b``, with ``C(n, m)`` carried
    along each row by ``C(n, m + 1) = C(n, m) (n - m) / (m + 1)``."""
    sums = [0] * (top + 1)
    for n in range(top + 1):
        acc = 0
        c = 1
        for m in range(n + 1):
            if a[m]:
                acc += c * a[m] * b[n - m]
            c = c * (n - m) // (m + 1)
        sums[n] = acc
    return sums


def _triangle_sums(columns: Sequence[Sequence[int]], w: Sequence[int], top: int) -> list[int]:
    """sum_{j<=n} w[j] columns[j][n] for n = 0..top: the lower-triangular
    array with the given columns (column j vanishes above row j) applied to
    ``w``, in O(top^2) integer products."""
    sums = [0] * (top + 1)
    for j, wj in enumerate(w[: top + 1]):
        if wj:
            col = columns[j]
            for n in range(j, top + 1):
                sums[n] += wj * col[n]
    return sums


def check_derivative_rules(ks, order: int) -> VerificationReport:
    """The two derivative recurrences of the multiple logarithm.

    Always: d/dt Li_{k_1,...,k_r}(t) = (1/t) Li_{k_1,...,k_r - 1}(t).
    When k_r = 1: d/dt Li_{k_1,...,k_{r-1},1}(t) = Li_{k_1,...,k_{r-1}}(t)/(1-t),
    with the empty prefix read as the constant series 1.
    Both are compared coefficientwise up to order - 1; at order 0 that
    range is empty and the check passes.
    """
    _check_natural(order)
    ks = index_tuple(ks)
    if order == 0:
        return _verdict("derivative-rules", order, (), ks)
    derivative = multilog(ks, order).derivative()
    lowered = multilog(ks[:-1] + (ks[-1] - 1,), order)
    # each side is a column of ordinary coefficients; dividing by t is the
    # shift that reads the lowered multilog from its t^1 term on
    lhs = derivative._num, derivative._den
    comparisons = [(lhs, (lowered._num[1:], lowered._den), range(order), "index-lowering rule")]
    if ks[-1] == 1:
        prefix = ks[:-1]
        tail = multilog(prefix, order - 1) if prefix else Series.one(order - 1)
        rhs = geometric(order - 1) * tail
        comparisons.append((lhs, (rhs._num, rhs._den), range(order), "prefix rule at trailing index 1"))
    return _verdict("derivative-rules", order, comparisons, ks)


def _prefix_column(family, prefix: tuple[int, ...], order: int) -> Column:
    """EGF column ``family(prefix, order).egf_column`` of a possibly empty
    index prefix; the empty prefix gives the delta column (1, 0, ..., 0)."""
    if not prefix:
        return Series.one(order).egf_column
    return family(prefix, order).egf_column


def _append_one_sides(
    head: Column, tail: Column, weights: Column, order: int
) -> tuple[Column, Column]:
    """Both sides of appending a trailing 1 for n = 0..order-1,

        sum_m C(n, m) w_(n-m+1) head_m = tail_(n+1),

    with ``weights = (w, d)`` the moments of Y for a probabilistic family
    and all ones for a deterministic or classical one."""
    (h, dh), (t, dt), (w, dw) = head, tail, weights
    return (_binomial_sums(h, w[1:], order - 1), dh * dw), (t[1:], dt)


def check_append_one_deterministic(ks_prefix, order: int) -> VerificationReport:
    """Appending a trailing index 1 is binomial summation over the prefix family:

        ms2(prefix + (1,), n + 1) = sum_{m} C(n, m) ms2(prefix, m).
    """
    prefix = tuple(ks_prefix)
    head = _prefix_column(multi_stirling2_series, prefix, order)
    tail = multi_stirling2_series(prefix + (1,), order).egf_column
    lhs, rhs = _append_one_sides(head, tail, ((1,) * (order + 1), 1), order)
    return _verdict("append-one-deterministic", order, [(lhs, rhs, range(order), "")], prefix)


@lru_cache(maxsize=None)
def _second_kind_columns(ms: MomentSequence, order: int) -> Triangle:
    """The {n; k}_Y triangle over one denominator: column k holds the
    numerators of {0; k}_Y .. {order; k}_Y."""
    return _over_lcm([prob_stirling2_series(ms, k, order).egf_column for k in range(order + 1)])


def _second_kind_sums(ms: MomentSequence, weights: Column, order: int) -> Column:
    """sum_{j<=n} w_j {n; j}_Y for n = 0..len(w) - 1, with ``weights = (w, d)``:
    the exponential Riordan array (1, M - 1) applied to ``w``."""
    w, dw = weights
    cols, den = _second_kind_columns(ms, order)
    return _triangle_sums(cols, w, len(w) - 1), dw * den


@lru_cache(maxsize=None)
def _single_index_sides(
    ms: MomentSequence | None, r: int, order: int
) -> tuple[Column, Column]:
    """Both sides of the append-one rule for the single-index numbers, for
    n = 0..order (zero below n = r) and 1 <= r <= order:

        {n; r}_Y = sum_m C(n-1, m) {m; r-1}_Y mu_(n-m)   for Y given by ``ms``,
        S(n, r) = sum_m C(n-1, m) S(m, r-1)              for ``ms`` None;

    :func:`_append_one_sides` at n - 1, with a zero in front.  They depend
    on (Y, r) or on r alone, so they are formed once per key."""
    if ms is None:
        cols, den = _columns(_SECOND, order), 1
        weights = ((1,) * (order + 1), 1)
    else:
        cols, den = _second_kind_columns(ms, order)
        weights = ms.column
    tail = (cols[r], den)
    (lhs, d), _ = _append_one_sides((cols[r - 1], den), tail, weights, order)
    return ((0, *lhs), d), tail


def check_append_one(
    ms: MomentSequence, ks_prefix, order: int, dist: str | None = None
) -> VerificationReport:
    """Appending a trailing 1 to the index tuple is a moment-weighted binomial sum:

        sum_m C(n, m) mu_{n-m+1} {m; prefix}_Y = {n+1; prefix + (1,)}_Y,

    together with its two single-index specialisations, which compare
    n = r..order and so nothing when r > order.
    """
    prefix = tuple(ks_prefix)
    r = len(prefix) + 1
    head = _prefix_column(partial(prob_multi_stirling2_series, ms), prefix, order)
    tail = prob_multi_stirling2_series(ms, prefix + (1,), order).egf_column
    comparisons = [(*_append_one_sides(head, tail, ms.column, order), range(order), "main form")]
    if r <= order:
        for key, detail in ((ms, "single-index form"), (None, "single-index classical form")):
            comparisons.append((*_single_index_sides(key, r, order), range(r, order + 1), detail))
    return _verdict("append-one", order, comparisons, prefix, dist)


def check_bernoulli_convolution(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> VerificationReport:
    """Convolving multi-Bernoulli numbers with probabilistic second-kind numbers
    reproduces Li(1 - e^(1 - M)) / (1 - e^(1 - M))^r coefficientwise.

    Requires a nonzero first moment, otherwise the denominator does not have
    valuation r and the check is skipped.  Below order r there is no n to
    compare and the check passes; that covers order 0, where the moment
    sequence may stop at mu_0 and the mean is not known.
    """
    _check_natural(order)
    ks = tuple(ks)
    r = len(ks)
    if ms.order >= 1 and ms.mu[1] == 0:
        return VerificationReport(
            identity="bernoulli-convolution",
            order=order,
            ks=ks,
            dist=dist,
            status=SKIPPED,
            detail="first moment is zero; the divided series has no valuation r",
        )
    top = order - r
    if top < 0:  # no n to compare, and h**r has no valuation r below order r
        return _verdict("bernoulli-convolution", order, (), ks, dist)
    h = li_argument(mgf(ms, order))
    ratio = prob_multi_stirling2_series(ms, ks, order).divide(h**r, r).egf_column
    bern, db = multi_bernoulli_series(ks, order).egf_column
    lhs = _second_kind_sums(ms, (bern[: top + 1], db), order)
    return _verdict("bernoulli-convolution", order, [(lhs, ratio, range(top + 1), "")], ks, dist)


def check_first_kind_inversion(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> VerificationReport:
    """{n; ks}_Y equals the double sum over {l; m}, {n; l}_Y and the
    multi first-kind numbers [m; ks], with alternating signs:

        {n; ks}_Y = sum_{l=r}^{n} {n; l}_Y v_l,
        v_l = sum_{m=r}^{l} (-1)^(l-m) S(l, m) [m; ks],

    for n = r..order.  The inner sum ``v_l`` does not depend on n (or on
    Y): it is the EGF column of Li_ks(1 - e^(-s)), formed once per index
    tuple by :func:`multilog._f_column`.
    """
    ks = tuple(ks)
    lhs = prob_multi_stirling2_series(ms, ks, order).egf_column
    rhs = _second_kind_sums(ms, _f_column(ks, order), order)
    ns = range(len(ks), order + 1)
    return _verdict("first-kind-inversion", order, [(lhs, rhs, ns, "")], ks, dist)


def check_lah_via_first_kind(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> list[VerificationReport]:
    """Probabilistic multi-Lah numbers as first-kind weighted sums.

    The corrected variant sums {k; ks}_Y [n; k] and must match the series
    definition exactly; the literal variant freezes the outer index,
    summing {n; ks}_Y [n; k], and is retained as evidence: it disagrees,
    first at (ks = (1,1), Y = point(1), n = 3) where it gives 12 against 6.
    Both sums run over k = r..n; {k; ks}_Y vanishes below k = r, and the
    literal form is {n; ks}_Y times a first-kind row sum.
    """
    ks = tuple(ks)
    r = len(ks)
    direct = prob_multi_lah_series(ms, ks, order).egf_column
    second, ds = prob_multi_stirling2_series(ms, ks, order).egf_column
    first_kind = _columns(_FIRST, order)
    corrected = _triangle_sums(first_kind, second, order), ds
    row_sums = _triangle_sums(first_kind, (0,) * r + (1,) * (order + 1 - r), order)
    literal = [s * t for s, t in zip(second, row_sums)], ds
    ns = range(r, order + 1)
    literal_detail = "summand uses the outer index; the corrected variant matches the series"
    return [
        _verdict(identity, order, [(direct, rhs, ns, detail)], ks, dist)
        for identity, rhs, detail in (
            ("lah-via-first-kind-corrected", corrected, ""),
            ("lah-via-first-kind-literal", literal, literal_detail),
        )
    ]


def _expansion_weights(b: Column, r: int, order: int) -> Column:
    """w_j = sum_{m=0}^{j-r} (-1)^(j-m-r) C(j, m) S(j-m, r) b_m for j = 0..order-r
    (zero below r): the binomial convolution of ``b`` with the column
    (-1)^(i-r) S(i, r)."""
    bs, d = b
    # the triangle reaches column r; past the order no entry of it is read
    signed = _columns(_SIGNED_SECOND, max(order, r))[r]
    return tuple(_binomial_sums(bs, signed, order - r)), d


@lru_cache(maxsize=None)
def _bernoulli_expansion_weights(ks: tuple[int, ...], order: int) -> Column:
    """w_j = r! sum_{m=0}^{j-r} (-1)^(j-m-r) C(j, m) S(j-m, r) B_m(ks)."""
    r_fact = factorial(len(ks))
    bern, d = multi_bernoulli_series(ks, order).egf_column
    return _expansion_weights(([r_fact * b for b in bern], d), len(ks), order)


@lru_cache(maxsize=None)
def _single_index_expansion_weights(r: int, order: int) -> Column:
    """w_j = (-1)^(j-r) sum_{m=0}^{j-r} C(j, m) S(j-m, r) B_m^(r)."""
    bern, d = bernoulli_higher_series(r, order).egf_column
    # (-1)^m B_m^(r) turns the sign (-1)^(j-m-r) into (-1)^(j-r)
    return _expansion_weights(([-b if m % 2 else b for m, b in enumerate(bern)], d), r, order)


def check_bernoulli_expansion(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> VerificationReport:
    """{n; ks}_Y via the multi-Bernoulli expansion

        {n; ks}_Y = r! sum_{m} sum_{l=r}^{n-m} (-1)^(l-r) C(m+l, m) S(l, r)
                    {n; m+l}_Y B_m(ks),

    compared for n = r..order-r.  With j = m + l the weight of {n; j}_Y,

        w_j = r! sum_{m=0}^{j-r} (-1)^(j-m-r) C(j, m) S(j-m, r) B_m(ks),

    does not depend on n (or on Y) and is formed once per index tuple, so
    the right-hand side is sum_{j=r}^{n} w_j {n; j}_Y.
    """
    ks = tuple(ks)
    r = len(ks)
    lhs = prob_multi_stirling2_series(ms, ks, order).egf_column
    rhs = _second_kind_sums(ms, _bernoulli_expansion_weights(ks, order), order)
    ns = range(r, order - r + 1)
    return _verdict("bernoulli-expansion", order, [(lhs, rhs, ns, "")], ks, dist)


def check_bernoulli_expansion_single_index(
    ms: MomentSequence, r: int, order: int, dist: str | None = None
) -> VerificationReport:
    """The same expansion for the all-ones tuple of length ``r``, written with
    higher-order Bernoulli numbers; it depends on ``r`` alone, not on ``ks``:

        {n; r}_Y = sum_{j=r}^{n} w_j {n; j}_Y,
        w_j = (-1)^(j-r) sum_{m=0}^{j-r} C(j, m) S(j-m, r) B_m^(r),

    compared for n = r..order-r, with ``w_j`` formed once per ``r``.
    """
    _check_natural(order)
    _check_natural(r, "r", 1)
    lhs = prob_stirling2_series(ms, r, order).egf_column
    rhs = _second_kind_sums(ms, _single_index_expansion_weights(r, order), order)
    ns = range(r, order - r + 1)
    return _verdict("bernoulli-expansion-single-index", order, [(lhs, rhs, ns, "")], (1,) * r, dist)


def check_fubini_convolution(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> VerificationReport:
    """Second-kind numbers weighted by deterministic multi-Lah numbers equal
    binomial sums of multi second-kind numbers against Fubini values at 1:

        sum_{k=r}^{n} {n; k}_Y L(k; ks) = sum_{k=r}^{n} C(n, k) {k; ks}_Y F_(n-k),

    where L(k; ks) and {k; ks}_Y vanish below k = r.
    """
    ks = tuple(ks)
    lhs = _second_kind_sums(ms, multi_lah_series(ks, order).egf_column, order)
    second, ds = prob_multi_stirling2_series(ms, ks, order).egf_column
    fubini, df = prob_fubini_series(ms, len(ks), 1, order).egf_column
    rhs = _binomial_sums(second, fubini, order), ds * df
    ns = range(len(ks), order + 1)
    return _verdict("fubini-convolution", order, [(lhs, rhs, ns, "")], ks, dist)


def check_route_agreement(
    ms: MomentSequence, order: int, dist: str | None = None
) -> VerificationReport:
    """EGF route equals the inclusion-exclusion moment route for the
    probabilistic second-kind numbers (n capped at 10)."""
    _check_natural(order)
    top = min(order, 10)
    lhs, rhs = _second_kind_columns(ms, order), _moment_route_columns(ms, top)
    comparison = _triangle_comparison(lhs, rhs, top)
    return _verdict("second-kind-route-agreement", order, [comparison], None, dist)


def check_all_ones_deterministic(r: int, order: int) -> list[VerificationReport]:
    """All-ones index tuples collapse every deterministic family to its
    classical counterpart."""
    _check_natural(order)
    _check_natural(r, "r", 1)
    ones = (1,) * r
    ns = range(order + 1)
    series = multilog(ones, order)
    power = neg_log1m(order) ** r
    higher, dh = bernoulli_higher_series(r, order).egf_column
    # the triangles reach column r; past the order their extra rows are not read
    top = max(order, r)
    # the family column and its classical counterpart, per identity
    pairs = (
        ("all-ones-multilog", (series._num, series._den), (power._num, power._den * factorial(r))),
        ("all-ones-first-kind", series.egf_column, (_columns(_FIRST, top)[r], 1)),
        (
            "all-ones-second-kind",
            multi_stirling2_series(ones, order).egf_column,
            (_columns(_SECOND, top)[r], 1),
        ),
        ("all-ones-lah", multi_lah_series(ones, order).egf_column, (_columns(_LAH, top)[r], 1)),
        (
            "all-ones-bernoulli",
            multi_bernoulli_series(ones, order).egf_column,
            ([-b if n % 2 else b for n, b in enumerate(higher)], dh * factorial(r)),
        ),
    )
    return [_verdict(identity, order, [(lhs, rhs, ns, "")], ones) for identity, lhs, rhs in pairs]


def check_all_ones_probabilistic(
    ms: MomentSequence, r: int, order: int, dist: str | None = None
) -> list[VerificationReport]:
    """All-ones index tuples collapse both probabilistic multi families to
    their single-index counterparts for every Y."""
    _check_natural(order)
    _check_natural(r, "r", 1)
    ones = (1,) * r
    ns = range(order + 1)
    # the multi family and its single-index counterpart, per identity
    pairs = (
        ("all-ones-prob-second-kind", prob_multi_stirling2_series, prob_stirling2_series),
        ("all-ones-prob-lah", prob_multi_lah_series, prob_lah_series),
    )
    return [
        _verdict(
            identity,
            order,
            [(multi(ms, ones, order).egf_column, single(ms, r, order).egf_column, ns, "")],
            ones,
            dist,
        )
        for identity, multi, single in pairs
    ]


def check_point_mass_collapse_classical(order: int) -> list[VerificationReport]:
    """At Y = point(1) the single-index probabilistic families are classical."""
    ms = moments(point(1), order)
    second = _second_kind_columns(ms, order)
    lah = _over_lcm([prob_lah_series(ms, k, order).egf_column for k in range(order + 1)])
    return [
        _verdict(identity, order, [_triangle_comparison(prob, classical, order)], None, "point:1")
        for identity, prob, classical in (
            ("point-mass-collapse-second-kind", second, (_columns(_SECOND, order), 1)),
            ("point-mass-collapse-lah", lah, (_columns(_LAH, order), 1)),
        )
    ]


def check_point_mass_collapse_multi(ks, order: int) -> list[VerificationReport]:
    """At Y = point(1), compare both probabilistic multi families with their
    deterministic counterparts.

    The second-kind comparison holds for every index tuple.  The multi-Lah
    comparison holds exactly for all-ones tuples and genuinely differs
    otherwise (the two defining compositions are different series); a
    difference is therefore reported as an expected discrepancy with the
    first counterexample attached.
    """
    ks = tuple(ks)
    ms = moments(point(1), order)
    ns = range(order + 1)
    # the probabilistic family, its deterministic counterpart and the detail, per identity
    pairs = (
        (
            "point-mass-collapse-multi-second-kind",
            prob_multi_stirling2_series(ms, ks, order),
            multi_stirling2_series(ks, order),
            "",
        ),
        (
            "point-mass-collapse-multi-lah",
            prob_multi_lah_series(ms, ks, order),
            multi_lah_series(ks, order),
            "collapse holds only for all-ones index tuples",
        ),
    )
    return [
        _verdict(identity, order, [(prob.egf_column, det.egf_column, ns, detail)], ks, "point:1")
        for identity, prob, det, detail in pairs
    ]


class Identity(
    namedtuple("Identity", ("id", "scope", "check", "description", "expected"), defaults=(False,))
):
    """One entry of the identity catalogue.

    ``check`` names the module-level function that produces the report; it
    is looked up when the suite runs, so a wrapper installed on the module
    attribute (a profiler or tracer) sees every call.  One check may produce
    several identities; it then runs once per item of its ``scope`` for all
    of them.  ``expected`` marks a comparison that is known to disagree.

    Scopes: ``tuple`` (each grid index tuple), ``r`` (each tuple length),
    ``global`` (once), ``distribution`` (each grid distribution),
    ``distribution-r`` (each grid distribution with each tuple length),
    ``cell-r`` (the (distribution, tuple length) pairs of grid cells) and
    ``cell`` (each grid cell).
    """

    __slots__ = ()


# id, scope, check, description[, expected]
IDENTITIES: tuple[Identity, ...] = tuple(Identity(*row) for row in (
    ("derivative-rules", "tuple", "check_derivative_rules",
     "derivative of the multiple logarithm against its two recurrences"),
    ("append-one-deterministic", "tuple", "check_append_one_deterministic",
     "appending a trailing 1 to a deterministic index tuple"),
    ("append-one", "cell", "check_append_one",
     "appending a trailing 1, moment-weighted probabilistic form"),
    ("bernoulli-convolution", "cell", "check_bernoulli_convolution",
     "multi-Bernoulli/second-kind convolution equals the divided series"),
    ("first-kind-inversion", "cell", "check_first_kind_inversion",
     "probabilistic multi second kind via first-kind inversion"),
    ("lah-via-first-kind-corrected", "cell", "check_lah_via_first_kind",
     "probabilistic multi-Lah as sum of {k; ks}_Y [n; k]"),
    ("lah-via-first-kind-literal", "cell", "check_lah_via_first_kind",
     "same sum with the outer index fixed at n (known mismatch)", True),
    ("bernoulli-expansion", "cell", "check_bernoulli_expansion",
     "probabilistic multi second kind via multi-Bernoulli expansion"),
    ("bernoulli-expansion-single-index", "cell-r", "check_bernoulli_expansion_single_index",
     "same expansion with higher-order Bernoulli numbers"),
    ("fubini-convolution", "cell", "check_fubini_convolution",
     "Lah-weighted sums against Fubini-weighted binomial sums"),
    ("second-kind-route-agreement", "distribution", "check_route_agreement",
     "EGF route versus inclusion-exclusion moment route"),
    ("all-ones-multilog", "r", "check_all_ones_deterministic",
     "all-ones multiple logarithm equals (-log(1-t))^r / r!"),
    ("all-ones-first-kind", "r", "check_all_ones_deterministic",
     "all-ones multi first kind equals Stirling first kind"),
    ("all-ones-second-kind", "r", "check_all_ones_deterministic",
     "all-ones multi second kind equals Stirling second kind"),
    ("all-ones-lah", "r", "check_all_ones_deterministic",
     "all-ones multi-Lah equals unsigned Lah"),
    ("all-ones-bernoulli", "r", "check_all_ones_deterministic",
     "all-ones multi-Bernoulli equals signed higher-order Bernoulli / r!"),
    ("all-ones-prob-second-kind", "distribution-r", "check_all_ones_probabilistic",
     "all-ones probabilistic multi second kind collapses"),
    ("all-ones-prob-lah", "distribution-r", "check_all_ones_probabilistic",
     "all-ones probabilistic multi-Lah collapses"),
    ("point-mass-collapse-second-kind", "global", "check_point_mass_collapse_classical",
     "Y = point(1) second kind equals classical"),
    ("point-mass-collapse-lah", "global", "check_point_mass_collapse_classical",
     "Y = point(1) Lah equals classical"),
    ("point-mass-collapse-multi-second-kind", "tuple", "check_point_mass_collapse_multi",
     "Y = point(1) multi second kind equals deterministic"),
    ("point-mass-collapse-multi-lah", "tuple", "check_point_mass_collapse_multi",
     "Y = point(1) multi-Lah versus deterministic (known mismatch)", True),
))

_REGISTRY = {entry.id: entry for entry in IDENTITIES}

ALL_IDENTITIES: tuple[str, ...] = tuple(_REGISTRY)


def run_full_suite(
    grid: Sequence[tuple[DistributionSpec, Sequence[int]]] | None = None,
    order: int = 12,
    identities: Iterable[str] | None = None,
) -> list[VerificationReport]:
    """Run every check over the grid and return reports in canonical order.

    ``identities`` optionally restricts the run to a subset of
    :data:`ALL_IDENTITIES`.  Identical inputs produce identical report
    lists; grid cells are independent, so the ordering never depends on
    evaluation strategy.
    """
    if grid is None:
        grid = default_grid()
    if identities is None:
        wanted = set(ALL_IDENTITIES)
    else:
        wanted = set(identities)
        unknown = wanted.difference(ALL_IDENTITIES)
        if unknown:
            raise ValueError(f"unknown identities: {sorted(unknown)}")

    cells = list(dict.fromkeys((spec, tuple(ks)) for spec, ks in grid))
    reports: list[VerificationReport] = []
    if not cells:
        return reports
    tuples = list(dict.fromkeys(ks for _, ks in cells))
    dists = list(dict.fromkeys(spec for spec, _ in cells))
    rs = sorted({len(ks) for ks in tuples})
    # the argument tuples a check of each scope is called with, built once
    scopes = {
        "tuple": lambda: [(ks, order) for ks in tuples],
        "r": lambda: [(r, order) for r in rs],
        "global": lambda: [(order,)],
        "distribution": lambda: [(moments(s, order), order, s.label) for s in dists],
        "distribution-r": lambda: [
            (moments(s, order), r, order, s.label) for s in dists for r in rs
        ],
        "cell-r": lambda: [
            (moments(s, order), r, order, s.label)
            for s, r in dict.fromkeys((s, len(ks)) for s, ks in cells)
        ],
        "cell": lambda: [(moments(s, order), ks, order, s.label) for s, ks in cells],
    }

    scope_args: dict[str, list[tuple]] = {}
    for name, scope in dict.fromkeys((e.check, e.scope) for e in IDENTITIES if e.id in wanted):
        if scope not in scope_args:
            scope_args[scope] = scopes[scope]()
        check = globals()[name]
        for args in scope_args[scope]:
            out = check(*args)
            reports += out if isinstance(out, list) else [out]

    reports = [rep for rep in reports if rep.identity in wanted]
    reports.sort(key=lambda rep: (rep.identity, rep.ks or (), rep.dist or ""))
    return reports
