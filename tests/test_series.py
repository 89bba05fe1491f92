import re
from fractions import Fraction
from math import factorial, gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinumbers.classical import bernoulli_higher, bernoulli_higher_series
from multinumbers.moments import binomial, moments, poisson, sum_power_moment
from multinumbers.multi import multi_bernoulli, multi_lah, multi_stirling2
from multinumbers.multilog import multi_stirling1, multilog_coefficient
from multinumbers.probabilistic import (
    prob_fubini,
    prob_fubini_series,
    prob_lah,
    prob_multi_lah,
    prob_multi_stirling2,
    prob_stirling2,
    prob_stirling2_by_moments,
    prob_stirling2_series,
)
from multinumbers.series import (
    Series,
    _power_memo,
    exp_t,
    geometric,
    neg_log1m,
    one_minus_exp_neg_t,
    powers,
)

from oracles import (
    ordered_partition_count,
    series_compose,
    series_exp,
    series_inverse,
    series_log,
    series_product,
    stirling2_count,
)

F = Fraction


def series(*coeffs):
    return Series([F(c) for c in coeffs])


# ---------------------------------------------------------------- basics


def test_length_is_order_plus_one():
    s = series(1, 2, 3)
    assert s.order == 2
    assert s.coeffs == (F(1), F(2), F(3))


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        Series([])


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Series([0.5])


STOCK = {
    exp_t: lambda n: F(1, factorial(n)),
    geometric: lambda n: F(1),
    neg_log1m: lambda n: F(1, n) if n else F(0),
    one_minus_exp_neg_t: lambda n: F((-1) ** (n + 1), factorial(n)) if n else F(0),
}


@pytest.mark.parametrize("stock", STOCK, ids=lambda f: f.__name__)
def test_stock_series_equal_their_fraction_coefficients_and_are_shared(stock):
    for order in range(41):
        assert stock(order) == Series(STOCK[stock](n) for n in range(order + 1))
        assert stock(order) is stock(order)
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError):
            stock(bad)


@pytest.mark.parametrize("value", [0, 3, -2, F(-5, 6), "7/4", True])
def test_constant_series_from_any_exact_scalar(value):
    for order in range(4):
        assert Series.constant(value, order) == Series([value] + [0] * order)
    assert Series.one(3) == Series([1, 0, 0, 0])
    with pytest.raises(TypeError):
        Series.constant(0.5, 3)


_MS = moments(poisson(1), 3)
_NATURAL_ARGUMENTS = [
    # (call, argument name in the message, least value)
    pytest.param(lambda v: Series.one(3) ** v, "series exponent", 0, id="pow"),
    pytest.param(lambda v: Series.t(3).divide(Series.t(3), v), "valuation", 0, id="divide"),
    pytest.param(
        lambda v: bernoulli_higher_series(v, 3), "the power r", 0, id="bernoulli_higher_series"
    ),
    pytest.param(lambda v: binomial(v, F(1, 2)), "binomial count", 1, id="binomial"),
    pytest.param(
        lambda v: sum_power_moment(_MS, v, 2), "number of copies", 0, id="sum_power_moment"
    ),
    pytest.param(
        lambda v: multilog_coefficient((1,), v), "chain endpoint", 1, id="multilog_coefficient"
    ),
    pytest.param(lambda v: prob_stirling2_series(_MS, v, 3), "k", 0, id="prob_stirling2_series"),
    pytest.param(
        lambda v: prob_stirling2_by_moments(_MS, 2, v), "k", 0, id="prob_stirling2_by_moments-k"
    ),
    pytest.param(
        lambda v: prob_stirling2_by_moments(_MS, v, 1), "n", 0, id="prob_stirling2_by_moments-n"
    ),
    pytest.param(
        lambda v: prob_fubini_series(_MS, v, 1, 3), "the order r", 1, id="prob_fubini_series"
    ),
]


@pytest.mark.parametrize("call, what, least", _NATURAL_ARGUMENTS)
def test_natural_number_arguments_are_refused_by_name(call, what, least):
    kind = "positive" if least else "non-negative"
    for value in (True, False, -1, 2.0, "2", least - 1):
        message = f"{what} must be a {kind} integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


_ENTRIES = {
    # each per-entry function as (n, order) -> its entry n
    "bernoulli_higher": lambda n, order: bernoulli_higher(n, 1, order),
    "multi_stirling1": lambda n, order: multi_stirling1((1,), n, order),
    "multi_stirling2": lambda n, order: multi_stirling2((1,), n, order),
    "multi_bernoulli": lambda n, order: multi_bernoulli((1,), n, order),
    "multi_lah": lambda n, order: multi_lah((1,), n, order),
    "prob_stirling2": lambda n, order: prob_stirling2(_MS, n, 1, order),
    "prob_multi_stirling2": lambda n, order: prob_multi_stirling2(_MS, (1,), n, order),
    "prob_lah": lambda n, order: prob_lah(_MS, n, 1, order),
    "prob_multi_lah": lambda n, order: prob_multi_lah(_MS, (1,), n, order),
    "prob_fubini": lambda n, order: prob_fubini(_MS, 1, 1, n, order),
    "sum_power_moment": lambda n, order: sum_power_moment(_MS, 2, n, order),
}


@pytest.mark.parametrize("name", _ENTRIES)
def test_entry_functions_name_a_bad_n_and_a_bad_order(name):
    entry = _ENTRIES[name]
    for n in (-1, True, 2.0):
        message = f"n must be a non-negative integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(n, None)
    for order in ("5", 2.0, True):
        message = f"truncation order must be a non-negative integer, got {order!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(1, order)
    assert entry(1, 3) == entry(1, None)


def test_coeff_range_checked():
    s = series(1, 2)
    with pytest.raises(ValueError):
        s.coeff(5)
    with pytest.raises(ValueError):
        s.egf_coeff(3)


def test_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        series(1, 2) + series(1, 2, 3)
    with pytest.raises(ValueError):
        series(1, 2) * series(1, 2, 3)
    with pytest.raises(ValueError):
        series(0, 1).compose(series(0, 1, 0))


# ---------------------------------------------------------------- add / mul


def test_add_cancellation():
    assert series(1, 1) + series(1, -1) == series(2, 0)


def test_add_identity():
    f = series(3, F(1, 2), -4)
    assert f + Series.zero(2) == f


def test_add_exp_pair_kills_odd_terms():
    n = 8
    plus = exp_t(n)
    minus = Series(F((-1) ** k, factorial(k)) for k in range(n + 1))
    # termwise oracle for the sum of the two exponential series
    expected = Series(
        F(1, factorial(k)) + F((-1) ** k, factorial(k)) for k in range(n + 1)
    )
    assert plus + minus == expected
    assert all(expected.coeff(k) == 0 for k in range(1, n + 1, 2))


def test_mul_geometric_inverse():
    one_minus_t = series(1, -1, 0, 0, 0, 0)
    assert one_minus_t * geometric(5) == Series.one(5)


def test_mul_identity():
    f = series(F(2, 3), 0, 5, -1)
    assert f * Series.one(3) == f


def test_mul_exp_squared_by_convolution_oracle():
    n = 9
    prod = exp_t(n) * exp_t(n)
    for m in range(n + 1):
        oracle = sum(F(1, factorial(i)) * F(1, factorial(m - i)) for i in range(m + 1))
        assert prod.coeff(m) == oracle == F(2**m, factorial(m))


# ---------------------------------------------------------------- exp / log


def test_exp_of_zero():
    assert Series.zero(4).exp() == Series.one(4)


def test_exp_of_t():
    assert Series.t(6).exp() == exp_t(6)


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series(1, 1).exp()


def test_exp_of_one_minus_exp():
    # 1 - e^t truncated at order 2 is -t - t^2/2; its exp is 1 - t + 0 t^2
    inner = series(0, -1, F(-1, 2))
    assert inner.exp() == series(1, -1, 0)


def test_log_trivials():
    assert Series.one(5).log() == Series.zero(5)
    assert geometric(7).log() == neg_log1m(7)


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series(2, 1).log()


def test_log_undoes_exp_on_polynomial():
    f = series(0, 1, 0, 1, 0)  # t + t^3
    assert f.exp().log() == f


# ---------------------------------------------------------------- compose


def test_compose_identity_substitution():
    f = series(5, -2, F(7, 3), 0, 1)
    assert f.compose(Series.t(4)) == f


def test_compose_mutual_inverses():
    n = 7
    expm1 = exp_t(n) - 1
    log1p = Series((-1) ** (k + 1) * F(1, k) if k else F(0) for k in range(n + 1))
    assert expm1.compose(log1p) == Series.t(n)


def test_compose_log_with_one_minus_exp_neg():
    n = 9
    assert neg_log1m(n).compose(one_minus_exp_neg_t(n)) == Series.t(n)


def test_compose_requires_nilpotent_inner():
    with pytest.raises(ValueError):
        series(0, 1).compose(series(1, 1))


# ---------------------------------------------------------------- inverse / divide


def test_inverse_trivials():
    assert Series.one(4).inverse() == Series.one(4)
    assert series(1, -1, 0, 0).inverse() == geometric(3)


def test_inverse_requires_nonzero_constant():
    with pytest.raises(ValueError):
        series(0, 1).inverse()


def test_inverse_of_two_minus_exp_counts_ordered_partitions():
    n = 5
    inv = (2 - exp_t(n)).inverse()
    for m in range(n + 1):
        assert inv.egf_coeff(m) == ordered_partition_count(m)


def test_divide_shift():
    t_sq = Series.t(5) ** 2
    assert t_sq.divide(Series.t(5), 1) == Series.t(4)


def test_divide_self_is_one():
    w = one_minus_exp_neg_t(6) ** 2
    assert w.divide(w, 2) == Series.one(4)


def test_divide_validates_valuations():
    t5 = Series.t(5)
    with pytest.raises(ValueError):
        (t5**2).divide(t5, 2)  # denominator valuation is 1, not 2
    with pytest.raises(ValueError):
        t5.divide(t5**2, 2)  # numerator valuation below 2


def test_derivative_drops_order():
    f = series(1, 2, 3, 4)
    assert f.derivative() == series(2, 6, 12)
    with pytest.raises(ValueError):
        Series.one(0).derivative()


# ---------------------------------------------------------------- egf view


def test_egf_trivials():
    assert exp_t(6).egf_coeff(5) == 1
    assert series(0, 0, F(1, 2)).egf_coeff(2) == 1


def test_egf_two_block_partitions():
    n = 6
    blocks2 = (exp_t(n) - 1) ** 2 * F(1, 2)
    for m in range(n + 1):
        assert blocks2.egf_coeff(m) == stirling2_count(m, 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Series.zero(5),
        lambda: Series.one(0),
        lambda: series(F(-3, 2), -1, F(-7, 5), 0, -2),
        lambda: (exp_t(6) - 1) ** 2 * F(1, 2),
    ],
    ids=["zero", "order-0", "negative", "product"],
)
def test_egf_coeffs_is_the_whole_egf_table(make):
    s = make()
    table = s.egf_coeffs
    assert table == tuple(s.egf_coeff(n) for n in range(s.order + 1))
    assert all(type(c) is Fraction for c in table)


# ---------------------------------------------------------------- properties

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def coeff_lists(order, **kwargs):
    return st.lists(small_fractions, min_size=order + 1, max_size=order + 1, **kwargs)


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(coeff_lists(n), coeff_lists(n), coeff_lists(n))
))
@settings(max_examples=80)
def test_ring_axioms(triple):
    a, b, c = (Series(x) for x in triple)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(min_value=1, max_value=10).flatmap(lambda n: coeff_lists(n)))
@settings(max_examples=60)
def test_exp_log_round_trip(coeffs):
    coeffs[0] = Fraction(0)
    a = Series(coeffs)
    assert a.exp().log() == a
    b = Series([Fraction(1)] + coeffs[1:])
    assert b.log().exp() == b


@given(st.integers(min_value=0, max_value=10).flatmap(lambda n: coeff_lists(n)))
@settings(max_examples=60)
def test_mul_inverse_round_trip(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1, 2)
    a = Series(coeffs)
    assert a * a.inverse() == Series.one(a.order)


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(coeff_lists(n), coeff_lists(n), coeff_lists(n))
))
@settings(max_examples=60)
def test_compose_associativity(triple):
    f, g, h = (Series(x) for x in triple)
    g = Series([Fraction(0)] + list(g.coeffs[1:]))
    h = Series([Fraction(0)] + list(h.coeffs[1:]))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=7).flatmap(
        lambda n: st.tuples(coeff_lists(n), coeff_lists(n))
    ),
)
@settings(max_examples=60)
def test_divide_undoes_multiply(v, pair):
    q_coeffs, d_coeffs = pair
    order = len(q_coeffs) - 1 + v
    den = Series([Fraction(0)] * v + [Fraction(1)] + d_coeffs[1:])
    den_padded = Series(list(den.coeffs) + [Fraction(0)] * (order - den.order))
    q = Series(q_coeffs)
    q_padded = Series(list(q.coeffs) + [Fraction(0)] * v)
    prod = q_padded * den_padded
    assert prod.divide(den_padded, v) == q


# ---------------------------------------------------------------- integer kernel

huge = 10**60
mixed_fractions = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(
        Fraction,
        st.integers(min_value=-huge, max_value=huge),
        st.integers(min_value=1, max_value=huge),
    ),
)


def mixed_lists(order):
    zeros = st.just([Fraction(0)] * (order + 1))
    return st.one_of(
        zeros, st.lists(mixed_fractions, min_size=order + 1, max_size=order + 1)
    )


def assert_kernel_result(got, expected):
    assert list(got.coeffs) == expected
    for n, c in enumerate(expected):
        assert type(got.coeff(n)) is Fraction and got.coeff(n) == c
        assert type(got.egf_coeff(n)) is Fraction and got.egf_coeff(n) == factorial(n) * c
    assert got.egf_coeffs == tuple(factorial(n) * c for n, c in enumerate(expected))
    # the integer EGF column is in lowest terms
    a, d = got.egf_column
    assert gcd(d, *a) == 1
    assert [Fraction(m, d) for m in a] == [factorial(n) * c for n, c in enumerate(expected)]


# Orders 0-3 are the block-size edges of the baby-step/giant-step compose:
# its block size k = isqrt(N) + 1 is 1 at N = 0 and 2 up to N = 3, then
# steps up at N = 4, 9 and 16.
kernel_orders = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=4, max_value=10)
)


@given(kernel_orders.flatmap(lambda n: st.tuples(mixed_lists(n), mixed_lists(n))))
@settings(max_examples=150)
def test_mul_matches_fraction_oracle(pair):
    a, b = pair
    assert_kernel_result(Series(a) * Series(b), series_product(a, b))


# Orders 0-16 give block sizes 1-5 for a first composition.  Each example
# composes in three states of the memo of powers of g: cold (k = isqrt(N) + 1),
# filled by that first composition, and filled by a plain powers(g, N) as
# the single-index families fill it (both k = N + 1).
@given(
    st.integers(min_value=0, max_value=16).flatmap(
        lambda n: st.tuples(mixed_lists(n), mixed_lists(n))
    ),
    st.one_of(st.just(1), st.integers(min_value=2, max_value=3)),
)
@settings(max_examples=120)
def test_compose_matches_fraction_oracle(pair, valuation):
    f, g = pair
    g[:valuation] = [Fraction(0)] * min(valuation, len(g))
    order = len(g) - 1
    expected = series_compose(f, g)
    # the memo starts at g^0, g^1; a first composition fills it to the giant
    # step g^k, k = isqrt(N) + 1 (to g^N when there is one block), and a
    # later one, k = N + 1, to g^N
    _power_memo.cache_clear()
    assert_kernel_result(Series(f).compose(Series(g)), expected)
    assert len(_power_memo(Series(g))) == max(2, min(isqrt(order) + 1, order) + 1)
    assert_kernel_result(Series(f).compose(Series(g)), expected)
    assert len(_power_memo(Series(g))) == max(2, order + 1)
    _power_memo.cache_clear()
    powers(Series(g), order)
    assert_kernel_result(Series(f).compose(Series(g)), expected)
    assert len(_power_memo(Series(g))) == max(2, order + 1)


def test_compose_every_block_layout():
    # orders 0-16 give block sizes 1-5 and every length of the last block
    # for block sizes up to 4
    for order in range(17):
        f = [F((-1) ** i * (i + 1), i + 2) for i in range(order + 1)]
        g = [F(0)] + [F(3 - i, 2 * i + 1) for i in range(1, order + 1)]
        assert_kernel_result(Series(f).compose(Series(g)), series_compose(f, g))


# Orders 9-40 take 3 to 7 blocks in a first composition, so each Horner step
# is a product truncated shorter than the one before.  The outer series has
# one all-zero block (the first, a middle or the last one, which starts the
# Horner sum at zero) or none; the inner one has valuation 1 or 3 and, up
# to order 26, denominators near 10^40 (the oracle is slow on those at 40).
@pytest.mark.parametrize(
    "order, den",
    [(9, 10**40), (17, 10**40), (26, 10**40), (40, 1)],
    ids=["9-den1e40", "17-den1e40", "26-den1e40", "40-den1"],
)
@pytest.mark.parametrize("valuation", [1, 3])
@pytest.mark.parametrize("zero_block", [None, "first", "middle", "last"])
def test_compose_truncated_giant_steps_match_the_oracle(order, den, valuation, zero_block):
    k = isqrt(order) + 1
    f = [F((-1) ** i * (i + 2), 3 * i + 1) for i in range(order + 1)]
    start = {None: None, "first": 0, "middle": k, "last": order - order % k}[zero_block]
    if start is not None:
        f[start : start + k] = [F(0)] * len(f[start : start + k])
    g = [F(0)] * valuation + [
        F((-1) ** i * (5**i + 1), den + 7 * i) for i in range(valuation, order + 1)
    ]
    _power_memo.cache_clear()
    assert_kernel_result(Series(f).compose(Series(g)), series_compose(f, g))


@given(kernel_orders.flatmap(mixed_lists), st.integers(min_value=0, max_value=10))
@settings(max_examples=120)
def test_powers_memo_matches_pow(a, head):
    a[0] = Fraction(head)  # unlike a compose inner, a power base may have a constant term
    g = Series(a)
    order = g.order
    memo = powers(g, order)
    for k in range(order + 1):
        assert memo[k] == g**k
    # an equal series built apart reads the same memo
    assert powers(Series(a), order) is memo
    assert powers(g, order + 2)[order + 2] == g ** (order + 2)


def test_repeat_compose_makes_only_the_products_that_fill_the_memo(monkeypatch):
    order, k = 30, 6  # k = isqrt(30) + 1: baby steps g^0..g^5, giant step g^6
    f = [F(i + 1, i + 3) for i in range(order + 1)]
    g = [F(0)] + [F(7, i + 11) for i in range(1, order + 1)]
    _power_memo.cache_clear()
    calls = []
    mul = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    counts = []
    results = []
    for _ in range(3):
        before = len(calls)
        results.append(Series(f).compose(Series(g)))
        counts.append(len(calls) - before)
    assert results[0] == results[1] == results[2]
    # g^2..g^6 (the Horner steps are truncated products inside compose);
    # then g^7..g^30 and one block; then nothing
    assert counts == [k - 1, order - k, 0]


@given(kernel_orders.flatmap(mixed_lists))
@settings(max_examples=120)
def test_exp_matches_fraction_oracle(a):
    a[0] = Fraction(0)
    assert_kernel_result(Series(a).exp(), series_exp(a))


@given(kernel_orders.flatmap(mixed_lists))
@settings(max_examples=120)
def test_log_matches_fraction_oracle(a):
    a[0] = Fraction(1)
    assert_kernel_result(Series(a).log(), series_log(a))


@given(kernel_orders.flatmap(mixed_lists), mixed_fractions.filter(bool))
@settings(max_examples=120)
def test_inverse_matches_fraction_oracle(a, head):
    a[0] = head
    assert_kernel_result(Series(a).inverse(), series_inverse(a))


@given(
    kernel_orders.flatmap(lambda n: st.tuples(mixed_lists(n), mixed_lists(n))),
    st.one_of(mixed_fractions, st.integers(min_value=-huge, max_value=huge)),
)
@settings(max_examples=150)
def test_linear_ops_match_fraction_oracle(pair, c):
    a, b = pair
    sa, sb = Series(a), Series(b)
    assert_kernel_result(sa + sb, [x + y for x, y in zip(a, b)])
    assert_kernel_result(sa - sb, [x - y for x, y in zip(a, b)])
    assert_kernel_result(-sa, [-x for x in a])
    assert_kernel_result(sa * c, [c * x for x in a])
    assert_kernel_result(c * sa, [c * x for x in a])
    shifted = list(a)
    shifted[0] += c
    assert_kernel_result(sa + c, shifted)
    assert_kernel_result(c + sa, shifted)
    shifted[0] -= 2 * c
    assert_kernel_result(sa - c, shifted)
    assert_kernel_result(c - sa, [-x for x in shifted])


def test_scalar_products_inverse_and_log_build_no_fraction(monkeypatch):
    a = [F(3, 2), F(-1, 3), F(5, 7), F(2), F(-9, 4)]
    s, unit = Series(a), Series([F(1)] + a[1:])
    c = F(-4, 9)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    # the constant terms 3/2 and -3/2 share a factor with the denominator 84
    got = (s * 3, 3 * s, s * c, c * s, s.inverse(), (-s).inverse(), unit.log())
    monkeypatch.undo()
    assert built == []
    want = (
        [3 * x for x in a],
        [3 * x for x in a],
        [c * x for x in a],
        [c * x for x in a],
        series_inverse(a),
        series_inverse([-x for x in a]),
        series_log([F(1)] + a[1:]),
    )
    for series_, coeffs in zip(got, want):
        assert list(series_.coeffs) == coeffs


@given(
    kernel_orders.flatmap(lambda n: st.tuples(mixed_lists(n), mixed_lists(n))),
    mixed_fractions.filter(bool),
)
@settings(max_examples=150)
def test_canonical_form(pair, c):
    a, b = pair
    sa, sb = Series(a), Series(b)
    assert (sa == sb) == (a == b)
    assert Series(b) == sb and hash(Series(b)) == hash(sb)
    # the same series reached through arithmetic that leaves common factors
    for same in ((sa * c) * (1 / c), (sa + sb) - sb, sa * Series.one(sa.order)):
        assert same == sa and hash(same) == hash(sa)
        assert same.coeffs == tuple(a)


@given(kernel_orders.flatmap(mixed_lists), mixed_fractions)
@settings(max_examples=100)
def test_preconditions_still_raised(a, head):
    a[0] = head
    s = Series(a)
    if head != 0:
        with pytest.raises(ValueError, match="exp requires a zero constant term"):
            s.exp()
        with pytest.raises(ValueError, match="composition requires a zero inner constant term"):
            s.compose(s)
    else:
        with pytest.raises(ValueError, match="inverse requires a nonzero constant term"):
            s.inverse()
    if head != 1:
        with pytest.raises(ValueError, match="log requires a unit constant term"):
            s.log()
