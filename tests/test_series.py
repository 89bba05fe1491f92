import copy
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from math import factorial, gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multinumbers.classical import bernoulli_higher, bernoulli_higher_series
from multinumbers.moments import (
    binomial,
    mgf,
    moments,
    parse_distribution,
    poisson,
    resolvent,
    sum_power_moment,
)
from multinumbers.multi import multi_bernoulli, multi_lah, multi_stirling2
from multinumbers.multilog import multi_stirling1
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
from multinumbers import series as series_module
from multinumbers.series import (
    Series,
    _power_memo,
    _rational,
    exp_t,
    geometric,
    neg_log1m,
    powers,
)

from oracles import (
    fraction_rational,
    one_minus_exp_neg_t,
    ordered_partition_count,
    series_compose,
    series_exp,
    series_inverse,
    series_log,
    series_product,
    shifted,
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
}


@pytest.mark.parametrize("stock", STOCK, ids=lambda f: f.__name__)
def test_stock_series_equal_their_fraction_coefficients(stock):
    for order in range(41):
        assert stock(order) == Series(STOCK[stock](n) for n in range(order + 1))
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
    pytest.param(
        lambda v: bernoulli_higher_series(v, 3), "the power r", 0, id="bernoulli_higher_series"
    ),
    pytest.param(lambda v: binomial(v, F(1, 2)), "binomial count", 1, id="binomial"),
    pytest.param(
        lambda v: sum_power_moment(_MS, v, 2), "number of copies", 0, id="sum_power_moment"
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
    pytest.param(lambda v: powers(Series.t(3), v), "k", 0, id="powers"),
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


def test_operands_of_the_wrong_type_are_refused():
    s = series(1, 0)
    with pytest.raises(TypeError, match="^composition needs a Series argument$"):
        s.compose([0, 1])
    with pytest.raises(TypeError, match="^powers needs a Series argument$"):
        powers([0, 1], 2)
    with pytest.raises(TypeError, match="^coefficient index must be an integer$"):
        s.coeff("1")
    # each arithmetic operator returns NotImplemented, so Python refuses
    for apply in (lambda: s + "x", lambda: s - "x", lambda: "x" - s, lambda: s * "x"):
        with pytest.raises(TypeError):
            apply()


def test_repr_shows_the_first_four_nonzero_terms():
    assert repr(series(1, 2, 3, 4, 5, 6)) == "<Series order=5: 1 + 2*t^1 + 3*t^2 + 4*t^3 + ...>"


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


def test_exp_of_neg_log1m_is_geometric():
    # e^(-log(1 - t)) = 1 / (1 - t)
    assert neg_log1m(7).exp() == geometric(7)


def test_fraction_log_oracle_inverts_the_stock_series():
    # the oracle the round trips read: log e^t = t, log 1/(1 - t) = -log(1 - t)
    for order in range(12):
        assert Series(series_log(list(exp_t(order).coeffs))) == Series.t(order)
        assert Series(series_log(list(geometric(order).coeffs))) == neg_log1m(order)


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


def test_one_minus_exp_neg_t_oracle_is_exp_t_at_minus_t():
    for order in range(21):
        assert one_minus_exp_neg_t(order) == 1 - exp_t(order).compose(-Series.t(order))


def test_compose_requires_nilpotent_inner():
    with pytest.raises(ValueError):
        series(0, 1).compose(series(1, 1))


# ---------------------------------------------------------------- inverse


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


def test_shifted_drops_the_valuation():
    t5 = Series.t(5)
    assert shifted(t5**2, 1) == Series.t(4)
    assert shifted(t5**2, 2) == Series.one(3)


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
    assert Series(series_log(list(a.exp().coeffs))) == a
    b = Series([Fraction(1)] + coeffs[1:])
    assert Series(series_log(list(b.coeffs))).exp() == b


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
def test_shifted_quotient_undoes_multiply(v, pair):
    # a quotient by a series of valuation v: both sides lose t^v, then the
    # product with the inverse of the shifted denominator
    q_coeffs, d_coeffs = pair
    order = len(q_coeffs) - 1 + v
    den = Series([Fraction(0)] * v + [Fraction(1)] + d_coeffs[1:])
    den_padded = Series(list(den.coeffs) + [Fraction(0)] * (order - den.order))
    q = Series(q_coeffs)
    q_padded = Series(list(q.coeffs) + [Fraction(0)] * v)
    prod = q_padded * den_padded
    assert shifted(prod, v) * shifted(den_padded, v).inverse() == q


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
# its block size k = isqrt(N // 2) + 1 is 1 up to N = 1 and 2 from N = 2,
# then steps up at N = 8, 18 and 32.
kernel_orders = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=4, max_value=10)
)


@given(kernel_orders.flatmap(lambda n: st.tuples(mixed_lists(n), mixed_lists(n))))
@settings(max_examples=150)
def test_mul_matches_fraction_oracle(pair):
    a, b = pair
    assert_kernel_result(Series(a) * Series(b), series_product(a, b))


# A square, _product(s, s), takes its own branch, which forms each cross
# term once and doubles it; an equal series built apart takes the general
# one.  Leading zeros stand for the valuation of a power of u - 1.
@given(
    st.integers(min_value=0, max_value=24).flatmap(
        lambda n: st.tuples(mixed_lists(n), st.integers(min_value=0, max_value=n + 1))
    )
)
@settings(max_examples=150)
def test_square_matches_fraction_oracle_and_the_general_product(case):
    a, zeros = case
    a[:zeros] = [Fraction(0)] * zeros
    s, twin = Series(a), Series(a)
    square = series_module._product(s, s)
    assert_kernel_result(square, series_product(a, a))
    assert square == series_module._product(s, twin)


# Orders 0-16 give block sizes 1-3 for a first composition.  Each example
# composes in three states of the memo of powers of g: cold
# (k = isqrt(N // 2) + 1), filled by that first composition, and filled by
# a plain powers(g, N) as the single-index families fill it (both k = N + 1).
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
    # step g^k, k = isqrt(N // 2) + 1 (to g^N when there is one block), and
    # a later one, k = N + 1, to g^N
    _power_memo.cache_clear()
    assert_kernel_result(Series(f).compose(Series(g)), expected)
    assert len(_power_memo(Series(g))) == max(2, min(isqrt(order // 2) + 1, order) + 1)
    assert_kernel_result(Series(f).compose(Series(g)), expected)
    assert len(_power_memo(Series(g))) == max(2, order + 1)
    _power_memo.cache_clear()
    powers(Series(g), order)
    assert_kernel_result(Series(f).compose(Series(g)), expected)
    assert len(_power_memo(Series(g))) == max(2, order + 1)


def test_compose_every_block_layout():
    # orders 0-49 give block sizes 1-5 and every length of the last block
    # for block sizes up to 4
    for order in range(50):
        f = [F((-1) ** i * (i + 1), i + 2) for i in range(order + 1)]
        g = [F(0)] + [F(3 - i, 2 * i + 1) for i in range(1, order + 1)]
        assert_kernel_result(Series(f).compose(Series(g)), series_compose(f, g))


# Orders 9-40 take 4 to 9 blocks in a first composition, so each Horner step
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
    k = isqrt(order // 2) + 1
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


@pytest.mark.parametrize(
    "base, law", [(resolvent, "geometric:1/2"), (mgf, "poisson:1")], ids=["R", "M"]
)
def test_order_64_memo_powers_of_u_minus_one_match_the_oracle(base, law):
    # the even powers are squares of the memo's own halves, the odd ones
    # the power below times u - 1; the oracle multiplies by u - 1 each time
    order = 64
    gap = base(moments(parse_distribution(law), order), order) - 1
    _power_memo.cache_clear()
    memo = powers(gap, order)
    g = list(gap.coeffs)
    power = [F(1)] + [F(0)] * order
    for j in range(order + 1):
        assert list(memo[j].coeffs) == power
        power = series_product(power, g)
    _power_memo.cache_clear()


def test_repeat_compose_makes_only_the_products_that_fill_the_memo(monkeypatch):
    order, k = 30, 4  # k = isqrt(30 // 2) + 1: baby steps g^0..g^3, giant step g^4
    f = [F(i + 1, i + 3) for i in range(order + 1)]
    g = [F(0)] + [F(7, i + 11) for i in range(1, order + 1)]
    _power_memo.cache_clear()
    calls = []
    product = series_module._product
    monkeypatch.setattr(series_module, "_product", lambda a, b: calls.append(1) or product(a, b))
    counts = []
    results = []
    for _ in range(3):
        before = len(calls)
        results.append(Series(f).compose(Series(g)))
        counts.append(len(calls) - before)
    assert results[0] == results[1] == results[2]
    # g^2..g^4 (the Horner steps are truncated products inside compose);
    # then g^5..g^30 and one block; then nothing
    assert counts == [k - 1, order - k, 0]


@given(kernel_orders.flatmap(mixed_lists))
@settings(max_examples=120)
def test_exp_matches_fraction_oracle(a):
    a[0] = Fraction(0)
    assert_kernel_result(Series(a).exp(), series_exp(a))


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
    with_c = list(a)
    with_c[0] += c
    assert_kernel_result(sa + c, with_c)
    assert_kernel_result(c + sa, with_c)
    with_c[0] -= 2 * c
    assert_kernel_result(sa - c, with_c)
    assert_kernel_result(c - sa, [-x for x in with_c])


def test_scalar_products_and_inverse_build_no_fraction(monkeypatch):
    a = [F(3, 2), F(-1, 3), F(5, 7), F(2), F(-9, 4)]
    s = Series(a)
    c = F(-4, 9)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    # the constant terms 3/2 and -3/2 share a factor with the denominator 84
    got = (s * 3, 3 * s, s * c, c * s, s.inverse(), (-s).inverse())
    monkeypatch.undo()
    assert built == []
    want = (
        [3 * x for x in a],
        [3 * x for x in a],
        [c * x for x in a],
        [c * x for x in a],
        series_inverse(a),
        series_inverse([-x for x in a]),
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


def value_hash(s):
    return hash((s._num, s._den))


@given(kernel_orders.flatmap(mixed_lists))
@settings(max_examples=100)
def test_every_construction_path_hashes_by_value(a):
    # a series keeps the hash of its numerators and denominator, made once
    # on the first lookup: whichever path built it, the hash is the value's
    order = len(a) - 1
    s = Series(a)
    inner = Series([F(0)] + a[1:])
    unit = Series([F(1)] + a[1:])
    built = [
        s,
        series_module._make([3 * m for m in s._num], 3 * s._den),
        series_module._from_egf_column(list(s._num), s._den),
        Series.zero(order),
        Series.one(order),
        Series.constant(F(-2, 3), order),
        Series.t(order),
        exp_t(order),
        geometric(order),
        neg_log1m(order),
        s + unit, s - unit, s * unit, s + 1, 2 - s, s * F(1, 3), -s, s**2,
        inner.exp(), unit.inverse(), s.compose(inner),
    ]
    if order:
        built.append(s.derivative())
    for got in built:
        assert got._hash is None
        assert hash(got) == value_hash(got) == got._hash
    # a series built from an equal value apart hashes alike
    assert hash(series_module._make(list(s._num), s._den)) == hash(s)


@given(kernel_orders.flatmap(mixed_lists), st.booleans())
@settings(max_examples=60)
def test_copy_and_pickle_keep_value_and_hash(a, hashed):
    s = Series(a)
    column = s.egf_column  # the cached table travels with the value
    if hashed:
        hash(s)
    for got in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert got == s and hash(got) == hash(s) == value_hash(got)
        assert got.egf_column == column


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


# ---------------------------------------------------------------- the rational boundary

# pieces of the text Fraction reads or refuses: ASCII, Arabic-Indic and
# fullwidth digits, a superscript and a vulgar fraction (digits to
# str.isdigit, not to int), signs, the slash, the point, exponents,
# underscores, ASCII and Unicode whitespace, and junk
_PIECES = [
    "0", "1", "7", "10", "\u0663", "\uff11", "\u00b2", "\u00bd", "+", "-", "/", ".", "e", "E",
    "_", " ", "\t", "\n", "\u3000", "\x1c", "\xa0", "x", "nan", "inf",
]
rational_texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=9).map("".join),
    st.text(max_size=6),
)


def outcome(read, *args):
    """What ``read(*args)`` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


@given(rational_texts)
@settings(max_examples=1500, deadline=None)
@example(" -3/4 ")
@example("1 /2")
@example("1/ 2")
@example("1/-2")
@example("1/0")
@example("0/7")
@example("\u0661_\u0662/\uff13 ")
@example("1__0")
@example("1_")
@example("_1")
@example("1.")
@example(".5")
@example("1.5e-3")
@example("1e5000")
def test_the_integer_pair_reader_reads_text_as_fraction_does(text):
    # a parameter is refused with the same message, a coefficient with the
    # same exception, and an accepted text has the same value
    for what in (None, "y"):
        assert outcome(_rational, text, what) == outcome(fraction_rational, text, what)


def test_a_coefficient_text_of_too_many_digits_is_refused_before_it_is_built():
    # 10^999999999 and its reciprocal are never built: the bound on the
    # digits refuses them as int() refuses a 4,301-digit string
    for build in (lambda: Series(["1e999999999"]), lambda: Series.constant("1e-99999999", 2)):
        with pytest.raises(ValueError, match="series coefficient .* more than 4300 digits"):
            build()


@given(
    st.one_of(
        st.integers(),
        st.fractions(),
        st.decimals(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.floats(),
        st.none(),
        st.tuples(st.integers(), st.integers(1)),
    )
)
@settings(max_examples=500)
@example(Decimal("sNaN"))
def test_the_integer_pair_reader_reads_values_as_fraction_does(value):
    for what in (None, "y"):
        assert outcome(_rational, value, what) == outcome(fraction_rational, value, what)
