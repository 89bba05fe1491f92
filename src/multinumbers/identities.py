"""Mechanical verification of the identity catalogue over a grid of
(distribution, index tuple) cells.

Every check compares exact rationals computed along two code paths (a
series extraction against a finite sum over number tables).  All four
multi families are read from one series, :func:`multilog._f_series`, and
the probabilistic ones share the memo of powers of u - 1 with the
(1, u - 1) triangle, so a check whose two sides both come from one of
them cannot see a fault in it; the README names, per check, where each
side comes from, and ``tests/test_identities.py`` pins which checks fail
when a kernel is raised.  A check lists its
comparisons as data, ``(lhs, rhs, ns, detail)``: two columns of integer
numerators over one denominator each, the n compared and a label.  One
runner, :func:`_verdict`, scans them by cross-multiplication and builds
the report: ``pass`` only under exact equality of every coefficient in
range, else the first mismatch, kept as the two integer pairs compared,
and its label.  No check builds a ``Fraction``: one is made only when a
caller reads ``Mismatch.lhs`` or ``rhs``.

Every check-side sum has one of two shapes, and each shape is formed by
one kernel on integer columns: a binomial convolution
sum_m C(n, m) a_m b_(n-m), the EGF product of two columns
(:func:`classical._binomial_sums`, which the moment route of
``second-kind-route-agreement`` reads too), or a lower-triangular array
applied to a vector, sum_j w_j T(n, j) (:func:`_triangle_sums`), which
maps a triangle ``(columns, d)`` and a column ``(w, dw)`` to the column of
sums over d dw.  Its triangles are the exponential Riordan array
(1, M - 1) of the {n; j}_Y triangle, read from
:func:`probabilistic._power_triangle` like the entries and ``table``, and
the first-kind rows over 1; a single-index side is a column of the
{n; j}_Y triangle, read as it is kept.
``bernoulli-convolution`` applies both in turn: the (1, M - 1) array to
the multi-Bernoulli column, then the EGF product with (1 - e^(1 - M))^r,
so no check divides a series.  The first-kind weights of
``first-kind-inversion`` are not such a sum: they are the EGF column of
:func:`multilog._f_series`, the series all four multi families are built
from, so that check takes its other side from the definition, the
multiple logarithm composed with 1 - e^(1 - M), read from
:func:`multi._li_argument`, the cache behind :func:`multi.li_argument`.

A check-side quantity that depends on less than the cell is formed once
per the key it depends on, in an ``lru_cache``: the single-index
append-one sides per (M, r), the expansion weights per tuple or per r and
the first-kind row sums of ``lah-via-first-kind-literal`` per r; the
factor h^r of ``bernoulli-convolution`` is read from the memo of powers of
h = 1 - e^(1 - M).  Each check validates its index tuple once and its order
before any cache that does not check it: a cell check at its first ``mgf``
or ``resolvent`` lookup, which checks the order in front of its cache.  It
resolves M, R and the (1, M - 1) triangle once and reads the cores below
the public family functions, such as :func:`probabilistic._li_family`,
:func:`multilog._multilog` and :func:`series._compose`, which check nothing.

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
from functools import lru_cache
from math import factorial

from .classical import (
    _FIRST,
    _LAH,
    _SECOND,
    _SIGNED_SECOND,
    _binomial_sums,
    _columns,
    bernoulli_higher_series,
)
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
    resolvent,
)
from .multi import _bernoulli_series, _lah_series, _li_argument, _stirling2_series
from .multilog import _f_series, _multilog, index_tuple
from .probabilistic import (
    _fubini_series,
    _li_family,
    _moment_route_columns,
    _power_column,
    _power_triangle,
)
from .report import EXPECTED_DISCREPANCY, FAIL, VerificationReport, _mismatch
from .series import Series, _check_natural, _compose, geometric, neg_log1m, powers

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

_POINT_ONE = point(1)


def default_grid() -> list[tuple[DistributionSpec, tuple[int, ...]]]:
    """Distribution x index-tuple grid used by the command line verifier."""
    dists = (
        _POINT_ONE,
        point(2),
        bernoulli("1/2"),
        binomial(3, "1/3"),
        poisson(1),
        geometric_dist("1/2"),
        finite([(0, "1/2"), (2, "1/2")]),
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
                mismatch = _mismatch(row, (a[n], da), (b[n], db))
                status = EXPECTED_DISCREPANCY if _REGISTRY[identity].expected else FAIL
                return VerificationReport(identity, order, ks, dist, status, mismatch, detail)
    return VerificationReport(identity, order, ks, dist)


def _triangle_comparison(lhs: Triangle, rhs: Triangle) -> tuple:
    """The comparison of two triangles ``(columns, d)`` with entry
    ``columns[k][n]``: each side as a column keyed by (n, k), scanned over
    n = 0..top and, for each n, k = 0..n, for top + 1 the columns of ``rhs``."""
    (cols_a, da), (cols_b, db) = lhs, rhs
    keys = [(n, k) for n in range(len(cols_b)) for k in range(n + 1)]
    a = {(n, k): cols_a[k][n] for n, k in keys}
    b = {(n, k): cols_b[k][n] for n, k in keys}
    return (a, da), (b, db), keys, ""


def _triangle_sums(triangle: Triangle, weights: Column) -> Column:
    """sum_{j<=n} w_j T(n, j) for n = 0..len(w) - 1, with ``weights = (w, dw)``
    and ``triangle = (columns, d)``, entry T(n, j) = columns[j][n] / d: the
    lower-triangular array (column j vanishes above row j) applied to ``w``,
    over the denominator d dw, in O(len(w)^2) integer products."""
    (columns, d), (w, dw) = triangle, weights
    rows = len(w)
    sums = [0] * rows
    for j, (wj, col) in enumerate(zip(w, columns)):
        if wj:
            for n in range(j, rows):
                sums[n] += wj * col[n]
    return sums, d * dw


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
    derivative = _multilog(ks, order).derivative()
    lowered = _multilog(ks[:-1] + (ks[-1] - 1,), order)
    # each side is a column of ordinary coefficients; dividing by t is the
    # shift that reads the lowered multilog from its t^1 term on
    lhs = derivative._num, derivative._den
    comparisons = [(lhs, (lowered._num[1:], lowered._den), range(order), "index-lowering rule")]
    if ks[-1] == 1:
        rhs = geometric(order - 1) * _multilog(ks[:-1], order - 1)
        comparisons.append((lhs, (rhs._num, rhs._den), range(order), "prefix rule at trailing index 1"))
    return _verdict("derivative-rules", order, comparisons, ks)


def _append_one_sides(head: Column, tail: Column, weights: Column) -> tuple[Column, Column]:
    """Both sides of appending a trailing 1 for n = 0..N-1, N + 1 the length
    of the ``head`` column,

        sum_m C(n, m) w_(n-m+1) head_m = tail_(n+1),

    with ``weights = (w, d)`` the moments of Y for a probabilistic family
    and all ones for a deterministic or classical one."""
    (h, dh), (t, dt), (w, dw) = head, tail, weights
    return (_binomial_sums(h, w[1:], len(h) - 2), dh * dw), (t[1:], dt)


def _append_one(ks_prefix) -> tuple[int, ...]:
    """The index tuple ``ks_prefix + (1,)``: the prefix may be empty, and one
    that is no iterable gets the ``ValueError`` of :func:`index_tuple`."""
    try:
        full = (*ks_prefix, 1)
    except TypeError:
        index_tuple(ks_prefix)  # refuses what is no iterable
        raise
    return index_tuple(full)


def check_append_one_deterministic(ks_prefix, order: int) -> VerificationReport:
    """Appending a trailing index 1 is binomial summation over the prefix family:

        ms2(prefix + (1,), n + 1) = sum_{m} C(n, m) ms2(prefix, m).
    """
    _check_natural(order)
    full = _append_one(ks_prefix)
    prefix = full[:-1]
    head = _stirling2_series(prefix, order).egf_column
    tail = _stirling2_series(full, order).egf_column
    lhs, rhs = _append_one_sides(head, tail, ((1,) * (order + 1), 1))
    return _verdict("append-one-deterministic", order, [(lhs, rhs, range(order), "")], prefix)


@lru_cache(maxsize=None)
def _single_index_sides(u: Series | None, r: int, order: int) -> tuple[Column, Column]:
    """Both sides of the append-one rule for the single-index numbers, for
    n = 0..order (zero below n = r) and 1 <= r <= order:

        {n; r}_Y = sum_m C(n-1, m) {m; r-1}_Y mu_(n-m)   for Y with MGF ``u``,
        S(n, r) = sum_m C(n-1, m) S(m, r-1)              for ``u`` None;

    :func:`_append_one_sides` at n - 1, with a zero in front.  The moments
    mu_n are the EGF column of u = M.  The sides depend on (M, r) or on r
    alone, so they are formed once per key."""
    if u is None:
        cols, den = _columns(_SECOND, order), 1
        weights = ((1,) * (order + 1), 1)
    else:
        cols, den = _power_triangle(u)
        weights = u.egf_column
    tail = (cols[r], den)
    (lhs, d), _ = _append_one_sides((cols[r - 1], den), tail, weights)
    return ((0, *lhs), d), tail


def check_append_one(
    ms: MomentSequence, ks_prefix, order: int, dist: str | None = None
) -> VerificationReport:
    """Appending a trailing 1 to the index tuple is a moment-weighted binomial sum:

        sum_m C(n, m) mu_{n-m+1} {m; prefix}_Y = {n+1; prefix + (1,)}_Y,

    together with its two single-index specialisations, which compare
    n = r..order and so nothing when r > order.
    """
    full = _append_one(ks_prefix)
    prefix, r = full[:-1], len(full)
    m = mgf(ms, order)
    head = _li_family(prefix, m).egf_column
    tail = _li_family(full, m).egf_column
    comparisons = [(*_append_one_sides(head, tail, ms.column), range(order), "main form")]
    if r <= order:
        for key, detail in ((m, "single-index form"), (None, "single-index classical form")):
            comparisons.append((*_single_index_sides(key, r, order), range(r, order + 1), detail))
    return _verdict("append-one", order, comparisons, prefix, dist)


def check_bernoulli_convolution(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> VerificationReport:
    """Convolving multi-Bernoulli numbers with probabilistic second-kind numbers
    and multiplying by h^r, h = 1 - e^(1 - M), reproduces Li_ks(h):

        {n; ks}_Y = sum_m C(n, m) s_m [h^r]_(n-m),  s_m = sum_j B_j(ks) {m; j}_Y,

    with [h^r]_k the EGF coefficients of h^r: the EGF product of h^r with
    the (1, M - 1) array applied to the multi-Bernoulli column, compared
    for n = r..order.  The factor h^r is read from the memo of powers of h,
    so each power is formed once per M.  The product holds at a zero first
    moment too, where h has no t^1 term and the quotient Li_ks(h) / h^r of
    the paper's definition is not a power series.
    """
    ks = index_tuple(ks)
    r = len(ks)
    m = mgf(ms, order)
    lhs = _li_family(ks, m).egf_column
    s, ds = _triangle_sums(_power_triangle(m), _bernoulli_series(ks, order).egf_column)
    h, dh = powers(_li_argument(m), r)[r].egf_column
    rhs = _binomial_sums(s, h, order), ds * dh
    return _verdict("bernoulli-convolution", order, [(lhs, rhs, range(r, order + 1), "")], ks, dist)


def check_first_kind_inversion(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> VerificationReport:
    """{n; ks}_Y equals the double sum over {l; m}, {n; l}_Y and the
    multi first-kind numbers [m; ks], with alternating signs:

        {n; ks}_Y = sum_{l=r}^{n} {n; l}_Y v_l,
        v_l = sum_{m=r}^{l} (-1)^(l-m) S(l, m) [m; ks],

    for n = r..order.  The inner sum ``v_l`` does not depend on n (or on
    Y): it is the EGF column of Li_ks(1 - e^(-s)), the series formed once
    per index tuple by :func:`multilog._f_series`.  The library builds
    {n; ks}_Y as that very sum, so the left side is taken from the
    definition instead, the multiple logarithm composed with 1 - e^(1 - M).
    """
    ks = index_tuple(ks)
    m = mgf(ms, order)
    lhs = _compose(_multilog(ks, order), _li_argument(m)).egf_column
    rhs = _triangle_sums(_power_triangle(m), _f_series(ks, order).egf_column)
    ns = range(len(ks), order + 1)
    return _verdict("first-kind-inversion", order, [(lhs, rhs, ns, "")], ks, dist)


@lru_cache(maxsize=None)
def _first_kind_row_sums(r: int, order: int) -> tuple[int, ...]:
    """sum_{k=r}^{n} [n; k] for n = 0..order, the first-kind row sums of the
    literal Lah variant; they depend on (r, order) alone, so they are formed
    once per key."""
    ones = (0,) * r + (1,) * (order + 1 - r)
    return tuple(_triangle_sums((_columns(_FIRST, order), 1), (ones, 1))[0])


def check_lah_via_first_kind(
    ms: MomentSequence, ks, order: int, dist: str | None = None
) -> list[VerificationReport]:
    """Probabilistic multi-Lah numbers as first-kind weighted sums.

    The corrected variant sums {k; ks}_Y [n; k] and must match the series
    definition exactly; the literal variant freezes the outer index,
    summing {n; ks}_Y [n; k], and is retained as evidence: it disagrees,
    first at (ks = (1,1), Y = point(1), n = 3) where it gives 12 against 6.
    Both sums run over k = r..n; {k; ks}_Y vanishes below k = r, and the
    literal form is {n; ks}_Y times a first-kind row sum, formed once per r.
    """
    ks = index_tuple(ks)
    r = len(ks)
    direct = _li_family(ks, resolvent(ms, order)).egf_column
    second, ds = _li_family(ks, mgf(ms, order)).egf_column
    corrected = _triangle_sums((_columns(_FIRST, order), 1), (second, ds))
    literal = [s * t for s, t in zip(second, _first_kind_row_sums(r, order))], ds
    ns = range(r, order + 1)
    literal_detail = "summand uses the outer index; the corrected variant matches the series"
    return [
        _verdict(identity, order, [(direct, rhs, ns, detail)], ks, dist)
        for identity, rhs, detail in (
            ("lah-via-first-kind-corrected", corrected, ""),
            ("lah-via-first-kind-literal", literal, literal_detail),
        )
    ]


def _expansion_weights(b: Column, r: int) -> Column:
    """w_j = sum_{m=0}^{j-r} (-1)^(j-m-r) C(j, m) S(j-m, r) b_m for j = 0..N-r,
    N + 1 the length of ``b`` (zero below r): the binomial convolution of
    ``b`` with the column (-1)^(i-r) S(i, r)."""
    bs, d = b
    # the triangle reaches column r; past the order no entry of it is read
    signed = _columns(_SIGNED_SECOND, max(len(bs) - 1, r))[r]
    return tuple(_binomial_sums(bs, signed, len(bs) - 1 - r)), d


@lru_cache(maxsize=None)
def _bernoulli_expansion_weights(ks: tuple[int, ...], order: int) -> Column:
    """w_j = r! sum_{m=0}^{j-r} (-1)^(j-m-r) C(j, m) S(j-m, r) B_m(ks)."""
    r_fact = factorial(len(ks))
    bern, d = _bernoulli_series(ks, order).egf_column
    return _expansion_weights(([r_fact * b for b in bern], d), len(ks))


@lru_cache(maxsize=None)
def _single_index_expansion_weights(r: int, order: int) -> Column:
    """w_j = (-1)^(j-r) sum_{m=0}^{j-r} C(j, m) S(j-m, r) B_m^(r)."""
    bern, d = bernoulli_higher_series(r, order).egf_column
    # (-1)^m B_m^(r) turns the sign (-1)^(j-m-r) into (-1)^(j-r)
    return _expansion_weights(([-b if m % 2 else b for m, b in enumerate(bern)], d), r)


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
    ks = index_tuple(ks)
    r = len(ks)
    m = mgf(ms, order)
    lhs = _li_family(ks, m).egf_column
    rhs = _triangle_sums(_power_triangle(m), _bernoulli_expansion_weights(ks, order))
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
    m = mgf(ms, order)
    lhs = _power_column(m, r)
    rhs = _triangle_sums(_power_triangle(m), _single_index_expansion_weights(r, order))
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
    ks = index_tuple(ks)
    m = mgf(ms, order)
    lhs = _triangle_sums(_power_triangle(m), _lah_series(ks, order).egf_column)
    second, ds = _li_family(ks, m).egf_column
    fubini, df = _fubini_series(m, len(ks), (1, 1)).egf_column
    rhs = _binomial_sums(second, fubini, order), ds * df
    ns = range(len(ks), order + 1)
    return _verdict("fubini-convolution", order, [(lhs, rhs, ns, "")], ks, dist)


def check_route_agreement(
    ms: MomentSequence, order: int, dist: str | None = None
) -> VerificationReport:
    """EGF route equals the inclusion-exclusion moment route for the
    probabilistic second-kind numbers (n capped at 10)."""
    lhs = _power_triangle(mgf(ms, order))
    comparison = _triangle_comparison(lhs, _moment_route_columns(ms, min(order, 10)))
    return _verdict("second-kind-route-agreement", order, [comparison], None, dist)


def check_all_ones_deterministic(r: int, order: int) -> list[VerificationReport]:
    """All-ones index tuples collapse every deterministic family to its
    classical counterpart."""
    _check_natural(order)
    _check_natural(r, "r", 1)
    ones = (1,) * r
    ns = range(order + 1)
    series = _multilog(ones, order)
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
            _stirling2_series(ones, order).egf_column,
            (_columns(_SECOND, top)[r], 1),
        ),
        ("all-ones-lah", _lah_series(ones, order).egf_column, (_columns(_LAH, top)[r], 1)),
        (
            "all-ones-bernoulli",
            _bernoulli_series(ones, order).egf_column,
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
    # the moment series u at which the multi family is compared with column
    # r of its triangle, its single-index counterpart, per identity
    pairs = (
        ("all-ones-prob-second-kind", mgf(ms, order)),
        ("all-ones-prob-lah", resolvent(ms, order)),
    )
    return [
        _verdict(
            identity,
            order,
            [(_li_family(ones, u).egf_column, _power_column(u, r), ns, "")],
            ones,
            dist,
        )
        for identity, u in pairs
    ]


def check_point_mass_collapse_classical(order: int) -> list[VerificationReport]:
    """At Y = point(1) the single-index probabilistic families are classical."""
    ms = moments(_POINT_ONE, order)
    second, lah = _power_triangle(mgf(ms, order)), _power_triangle(resolvent(ms, order))
    return [
        _verdict(identity, order, [_triangle_comparison(prob, classical)], None, "point:1")
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
    ks = index_tuple(ks)
    ms = moments(_POINT_ONE, order)
    ns = range(order + 1)
    # the probabilistic family, its deterministic counterpart and the detail, per identity
    pairs = (
        (
            "point-mass-collapse-multi-second-kind",
            _li_family(ks, mgf(ms, order)),
            _stirling2_series(ks, order),
            "",
        ),
        (
            "point-mass-collapse-multi-lah",
            _li_family(ks, resolvent(ms, order)),
            _lah_series(ks, order),
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
     "multi-Bernoulli/second-kind convolution times h^r equals Li_ks(h)"),
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
    :data:`ALL_IDENTITIES`, a collection of ids (a lone string is refused).
    ``order`` is checked even for an empty grid, and every cell's spec,
    which must be a :class:`DistributionSpec`, before any check runs.
    Identical inputs give identical report lists; grid cells are
    independent, so the ordering never depends on evaluation strategy.
    Reports are sorted by identity, index tuple and distribution label,
    ties kept in the order the checks built them.  Each check is looked up
    as an attribute of this module, and collecting, filtering and sorting
    the reports makes no interpreter call per report.
    """
    _check_natural(order)
    if grid is None:
        grid = default_grid()
    if identities is None:
        wanted = set(ALL_IDENTITIES)
    elif isinstance(identities, str):
        raise ValueError(f"identities must be a collection of identity ids, got {identities!r}")
    else:
        wanted = set(identities)
        unknown = wanted.difference(ALL_IDENTITIES)
        if unknown:
            raise ValueError(f"unknown identities: {sorted(unknown)}")

    cells = [(spec, tuple(ks)) for spec, ks in grid]
    # refused before the cells are hashed, as moments() refuses it
    for spec, _ in cells:
        if spec.__class__ is not DistributionSpec:
            raise TypeError(f"spec must be a DistributionSpec, got {type(spec).__name__}")
    cells = list(dict.fromkeys(cells))
    reports: list[VerificationReport] = []
    if not cells:
        return reports
    tuples = list(dict.fromkeys(ks for _, ks in cells))
    dists = list(dict.fromkeys(spec for spec, _ in cells))
    rs = sorted({len(ks) for ks in tuples})
    # each distribution's moments, built once, by the first scope that reads them
    law: dict[DistributionSpec, MomentSequence] = {}
    # the argument tuples a check of each scope is called with, built once
    scopes = {
        "tuple": lambda: [(ks, order) for ks in tuples],
        "r": lambda: [(r, order) for r in rs],
        "global": lambda: [(order,)],
        "distribution": lambda: [(law[s], order, s.label) for s in dists],
        "distribution-r": lambda: [(law[s], r, order, s.label) for s in dists for r in rs],
        "cell-r": lambda: [
            (law[s], r, order, s.label)
            for s, r in dict.fromkeys((s, len(ks)) for s, ks in cells)
        ],
        "cell": lambda: [(law[s], ks, order, s.label) for s, ks in cells],
    }

    scope_args: dict[str, list[tuple]] = {}
    for name, scope in dict.fromkeys((e.check, e.scope) for e in IDENTITIES if e.id in wanted):
        if scope not in scope_args:
            if not law and scope.startswith(("distribution", "cell")):
                law.update((s, moments(s, order)) for s in dists)
            scope_args[scope] = scopes[scope]()
        check = globals()[name]
        for args in scope_args[scope]:
            out = check(*args)
            reports += out if type(out) is list else [out]

    # the kept reports by identity, ks and dist, ties in the order built;
    # the position keeps reports themselves from being compared
    keyed = [
        (rep.identity, rep.ks or (), rep.dist or "", i, rep)
        for i, rep in enumerate(reports)
        if rep.identity in wanted
    ]
    keyed.sort()
    return [entry[4] for entry in keyed]
