import copy
import importlib
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinumbers.classical import stirling2
from multinumbers.moments import (
    DistributionSpec,
    MomentSequence,
    bernoulli,
    binomial,
    finite,
    geometric,
    mgf,
    moments,
    parse_distribution,
    point,
    poisson,
    raw_moments,
    resolvent,
    sum_power_moment,
)
from multinumbers.probabilistic import prob_fubini, prob_lah, prob_stirling2
from multinumbers.series import Series, exp_t
from multinumbers.series import geometric as geometric_series

from oracles import (
    bell_numbers,
    fraction_moments,
    ordered_partition_count,
    resolvent_by_composition,
    rising_factorial_resolvent,
)

F = Fraction


# ---------------------------------------------------------------- providers


def test_point_mass_moments():
    assert moments(point(1), 4).mu == (1, 1, 1, 1, 1)
    assert moments(point(F(2, 3)), 2).mu == (1, F(2, 3), F(4, 9))


def test_bernoulli_moments_are_constant():
    assert moments(bernoulli(F(1, 2)), 3).mu == (1, F(1, 2), F(1, 2), F(1, 2))


def test_poisson_one_moments_are_bell_numbers():
    got = moments(poisson(1), 10).mu
    assert list(got) == bell_numbers(11)


def test_binomial_moments_by_direct_expectation():
    m, p = 3, F(1, 3)
    ms = moments(binomial(m, p), 6)
    for n in range(7):
        direct = sum(
            comb(m, j) * p**j * (1 - p) ** (m - j) * F(j) ** n for j in range(m + 1)
        )
        assert ms.moment(n) == direct


def test_geometric_half_moments_are_ordered_partition_counts():
    ms = moments(geometric(F(1, 2)), 6)
    for n in range(7):
        assert ms.moment(n) == ordered_partition_count(n)


def test_geometric_moments_satisfy_restart_recursion():
    # Y is 0 with probability q, else 1 + Y', so
    # mu_n = ((1-q)/q) * sum_{i<n} C(n,i) mu_i for n >= 1.
    for q in (F(1, 3), F(2, 5), F(1, 2), F(1)):
        ms = moments(geometric(q), 8)
        for n in range(1, 9):
            acc = sum(comb(n, i) * ms.moment(i) for i in range(n))
            assert ms.moment(n) == (1 - q) / q * acc


def test_finite_moments_with_independent_recompute():
    support = [(-1, F(1, 4)), (0, F(1, 4)), (2, F(1, 2))]
    ms = moments(finite(support), 5)
    for n in range(6):
        assert ms.moment(n) == sum(w * F(x) ** n for x, w in support)


def test_raw_moments_roundtrip_and_validation():
    ms = moments(raw_moments([1, F(1, 2), F(1, 3)]), 2)
    assert ms.mu == (1, F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        raw_moments([2, 1])
    with pytest.raises(ValueError):
        moments(raw_moments([1, 1]), 5)  # not enough moments supplied


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        bernoulli(0)
    with pytest.raises(ValueError):
        bernoulli(F(3, 2))
    with pytest.raises(ValueError):
        binomial(0, F(1, 2))
    with pytest.raises(ValueError):
        poisson(F(-1, 2))
    with pytest.raises(ValueError):
        geometric(2)
    with pytest.raises(ValueError):
        finite([(0, F(1, 2)), (1, F(1, 3))])  # weights do not sum to 1
    with pytest.raises(ValueError):
        finite([(0, F(1, 2)), (0, F(1, 2))])  # duplicate support point
    with pytest.raises(ValueError):
        point(0.5)  # floats are not exact
    with pytest.raises(ValueError, match="^finite distribution needs at least one support point$"):
        finite([])
    with pytest.raises(ValueError, match="^raw moment list must not be empty$"):
        raw_moments([])
    # nor is a bool a number, as for every other argument
    refused = [
        (lambda: point(True), "point mass location"),
        (lambda: bernoulli(True), "bernoulli parameter"),
        (lambda: binomial(2, True), "binomial parameter"),
        (lambda: poisson(False), "poisson rate"),
        (lambda: geometric(True), "geometric success probability"),
        (lambda: finite([(True, 1)]), "support point"),
        (lambda: finite([(0, True)]), "weight"),
        (lambda: raw_moments((1, True)), "raw moment"),
    ]
    for make, what in refused:
        message = f"{what} must be exact (int, Fraction or 'a/b' string), not bool"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_mu0_must_be_one():
    with pytest.raises(ValueError):
        MomentSequence((F(2),))


def test_moment_sequence_record_semantics():
    mu = (F(1), F(1, 2), F(3, 4))
    ms = MomentSequence(mu)
    assert ms == MomentSequence(mu=mu) == moments(raw_moments(mu), 2)
    assert ms != MomentSequence(mu[:2])
    assert ms != mu and ms != (mu,)
    assert hash(ms) == hash(ms.column) == hash(moments(raw_moments(mu), 2))
    assert ms.column == ((4, 2, 3), 4)
    assert repr(ms) == "MomentSequence(mu=(Fraction(1, 1), Fraction(1, 2), Fraction(3, 4)))"
    assert MomentSequence.__match_args__ == ("mu",)
    assert pickle.loads(pickle.dumps(ms)) == ms
    assert copy.copy(ms) == ms
    for name in ("mu", "order", "extra"):
        with pytest.raises(AttributeError):
            setattr(ms, name, (F(1),))
    with pytest.raises(AttributeError):
        del ms.mu
    assert ms.mu == mu


def test_moment_sequence_validation_messages():
    with pytest.raises(ValueError, match="needs at least mu_0"):
        MomentSequence(())
    with pytest.raises(ValueError, match="mu_0 must equal 1, got 2"):
        MomentSequence((F(2), F(1)))
    # only exact int or Fraction entries in a tuple; nothing is coerced
    refused = [
        ((1, 0.5), "mu_1 must be an int or a Fraction, got 0.5"),
        (("1", "1/2"), "mu_0 must be an int or a Fraction, got '1'"),
        ((True, F(1, 2)), "mu_0 must be an int or a Fraction, got True"),
        ([F(1), F(1, 2)], "mu must be a tuple, got list"),
    ]
    for mu, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MomentSequence(mu)
    assert MomentSequence((1, F(1, 2))) == MomentSequence((F(1), F(1, 2)))


@pytest.mark.parametrize("n", [True, "1", 1.0, -1])
def test_moment_refuses_an_index_that_is_not_a_natural_number(n):
    ms = moments(poisson(1), 3)
    message = f"n must be a non-negative integer, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ms.moment(n)
    with pytest.raises(ValueError, match="^moment index 4 outside available order 3$"):
        ms.moment(4)
    assert ms.moment(1) == 1


def test_distribution_spec_record_semantics():
    spec = poisson(F(1, 2))
    assert spec == DistributionSpec("poisson", (F(1, 2),), "poisson:1/2")
    assert spec == DistributionSpec(kind="poisson", params=(F(1, 2),), label="poisson:1/2")
    assert spec != poisson(1)
    assert spec != ("poisson", (F(1, 2),), "poisson:1/2")
    # keys hash the parameter pairs, not a Fraction per parameter
    assert spec.pairs == ((1, 2),)
    assert hash(spec) == hash((spec.kind, spec.pairs, spec.label))
    assert str(spec) == "poisson:1/2"
    assert repr(spec) == (
        "DistributionSpec(kind='poisson', params=(Fraction(1, 2),), label='poisson:1/2')"
    )
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert DistributionSpec.__match_args__ == ("kind", "params", "label")
    for name in ("kind", "label", "extra"):
        with pytest.raises(AttributeError):
            setattr(spec, name, "point")
    assert spec.kind == "poisson"


@pytest.mark.parametrize(
    "first,second",
    [
        ("poisson:2/4", "poisson:1/2"),
        ("finite:2=1/2;0=1/2", "finite:0=1/2; 2=2/4"),
        ("binomial:3,1/3", "binomial: 3,2/6"),
        ("raw:1,1/2", "raw:1, 2/4"),
    ],
)
def test_equal_parsed_specs_are_equal_and_hash_equal(first, second):
    a, b = parse_distribution(first), parse_distribution(second)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b) == hash((a.kind, a.pairs, a.label))


def test_moment_sequence_hash_is_the_field_hash():
    mu = (F(1), F(1, 2), F(3, 4))
    a, b = MomentSequence(mu), MomentSequence(tuple(mu))
    assert a == b == moments(raw_moments(mu), 2)
    # keys hash the integer column, not a Fraction per moment
    assert hash(a) == hash(b) == hash(a.column) == hash(moments(raw_moments(mu), 2))


# ---------------------------------------------------------------- integer providers

_orders = st.integers(min_value=0, max_value=40)
# rationals a/b in (0, 1] with b <= 12, 1 included
_unit = st.integers(1, 12).flatmap(lambda b: st.integers(1, b).map(lambda a: F(a, b)))
_rational = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


def _finite_law(points, weights):
    total = sum(weights)
    return finite([(x, F(w, total)) for x, w in zip(points, weights)])


_specs = st.one_of(
    st.builds(poisson, st.builds(F, st.integers(0, 12), st.integers(1, 12))),
    st.builds(geometric, _unit),
    st.builds(binomial, st.integers(1, 8), _unit),
    st.builds(point, _rational),
    st.builds(bernoulli, _unit),
    st.lists(_rational, min_size=1, max_size=4, unique=True).flatmap(
        lambda xs: st.builds(
            _finite_law,
            st.just(xs),
            st.lists(st.integers(0, 5), min_size=len(xs), max_size=len(xs)).filter(any),
        )
    ),
    st.lists(_rational, max_size=40).map(lambda mus: raw_moments([1, *mus])),
)


@given(_specs, _orders)
@settings(max_examples=200, deadline=None)
def test_integer_providers_equal_the_fraction_providers(spec, order):
    if spec.kind == "raw" and order >= len(spec.params):
        # a raw list provides the moments it lists and no more
        have = len(spec.params) - 1
        message = f"raw spec provides moments up to order {have}, needed {order}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            moments(spec, order)
        order = have
    ms = moments(spec, order)
    expected = MomentSequence(fraction_moments(spec, order))
    assert ms == expected and hash(ms) == hash(expected)
    nums, den = ms.column
    assert gcd(den, *nums) == 1
    assert ms.order == order
    assert ms.mu == fraction_moments(spec, order)
    assert all(type(mu) is Fraction for mu in ms.mu)
    assert mgf(ms, order) == Series(mu / factorial(n) for n, mu in enumerate(ms.mu))


@pytest.mark.parametrize("spec", [poisson(0), geometric(1)], ids=str)
def test_degenerate_poisson_and_geometric_moments_vanish(spec):
    assert moments(spec, 40).mu == fraction_moments(spec, 40) == (1,) + (0,) * 40


@pytest.mark.parametrize(
    "spec",
    [
        poisson(1),
        poisson(F(3, 7)),
        geometric(F(1, 2)),
        binomial(5, F(1, 3)),
        point(F(2, 3)),
        finite([(-4, F(1, 2)), (0, F(1, 3)), (F(5, 2), F(1, 6))]),
        raw_moments([1, F(1, 2)] * 33),
    ],
    ids=lambda spec: spec.label[:40],
)
def test_order_64_moments_build_one_fraction_per_moment(spec, monkeypatch):
    # the providers' integer column is the key; mu is built on its first read
    module = importlib.import_module("multinumbers.moments")
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    ms = module._moments_cached.__wrapped__(spec, 64)
    assert built == []
    mu = ms.mu
    monkeypatch.undo()
    assert mu == fraction_moments(spec, 64)
    assert len(built) <= 65
    assert ms.mu is mu


# ---------------------------------------------------------------- grammar


@pytest.mark.parametrize(
    "text",
    [
        "point:1",
        "point:-2/3",
        "bernoulli:1/2",
        "binomial:3,1/3",
        "poisson:1",
        "geometric:1/2",
        "finite:0=1/2;2=1/2",
        "raw:1,1/2,1/3",
    ],
)
def test_grammar_round_trip(text):
    spec = parse_distribution(text)
    assert spec.label == text
    assert parse_distribution(spec.label) == spec


def _invalid(text, reason):
    return text, f"invalid distribution spec {text!r}: {reason}"


@pytest.mark.parametrize(
    "text,message",
    [
        (None, "malformed distribution spec None"),
        (3, "malformed distribution spec 3"),
        ("", "malformed distribution spec ''"),
        ("nonsense", "malformed distribution spec 'nonsense'"),
        ("point", "malformed distribution spec 'point'"),
        ("weibull:1", "unknown distribution kind 'weibull'"),
        (" POINT :1", "unknown distribution kind 'POINT'"),
        _invalid("point:x", "cannot parse point mass location from 'x'"),
        _invalid("bernoulli:0", "bernoulli parameter must lie in (0, 1], got 0"),
        _invalid("binomial:x,1/2", "cannot parse binomial count from 'x'"),
        _invalid("binomial:1.0,1/2", "cannot parse binomial count from '1.0'"),
        _invalid("binomial:0,1/2", "binomial count must be a positive integer, got 0"),
        _invalid("binomial:3,2", "binomial parameter must lie in (0, 1], got 2"),
        _invalid("binomial:3", "cannot parse binomial parameter from ''"),
        _invalid("poisson:-1", "poisson rate must be non-negative, got -1"),
        _invalid("geometric:1/0", "cannot parse geometric success probability from '1/0'"),
        _invalid("finite:x", "finite entry 'x' is not 'x=w'"),
        _invalid("finite:0=1/2;1", "finite entry '1' is not 'x=w'"),
        _invalid("finite:0=1/2", "finite distribution weights must sum to 1, got 1/2"),
        _invalid("raw:2,1", "raw moment list must start with mu_0 = 1, got 2"),
        _invalid("raw:1,x", "cannot parse raw moment from 'x'"),
        _invalid("point:1e4300", "point mass location '1e4300' writes out more than 4300 digits"),
        _invalid("point:1.23e4300", "point mass location '1.23e4300' writes out more than 4300 "
                 "digits"),
        _invalid("point:1e-4300", "point mass location '1e-4300' writes out more than 4300 digits"),
        _invalid("poisson:1.5e-4299", "poisson rate '1.5e-4299' writes out more than 4300 digits"),
        _invalid("poisson:5e-4300", "poisson rate '5e-4300' writes out more than 4300 digits"),
        _invalid("raw:1,0e99999999", "raw moment '0e99999999' writes out more than 4300 digits"),
    ],
    ids=repr,
)
def test_grammar_rejects_malformed_specs(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_distribution(text)


# the written-out numerator has the mantissa's digits and the exponent's
# zeros, the denominator 10^(digits after the point - exponent); each may
# reach 4300 digits
@pytest.mark.parametrize(
    "text,value",
    [
        ("1e4299", F(10**4299)),
        ("0.5e4300", F(5 * 10**4299)),
        ("-12_3.4_5E+4296", F(-12345 * 10**4294)),
        ("1e-4299", F(1, 10**4299)),
        ("1.5e-4298", F(15, 10**4299)),
        ("0012.5e-2", F(1, 8)),
        ("1/3", F(1, 3)),
    ],
    ids=repr,
)
def test_exponent_literals_up_to_the_digit_limit_are_read_exactly(text, value):
    assert point(text).params == (value,)


# a plain decimal writes out all its digits over 10^(digits after the
# point); an a/b literal is bounded by int on each part
_HALF = "1" * 2150


@pytest.mark.parametrize(
    "text,value",
    [
        (f"{_HALF}.{_HALF}", F(int(_HALF * 2), 10**2150)),
        ("-0." + "0" * 4298 + "1", F(-1, 10**4299)),
        ("9" * 4300 + "/" + "7" * 4300, F(int("9" * 4300), int("7" * 4300))),
    ],
    ids=["4300-digit-numerator", "4300-digit-denominator", "a/b-of-4300-digits-each"],
)
def test_plain_decimals_up_to_the_digit_limit_are_read_exactly(text, value):
    assert point(text).params == (value,)


@pytest.mark.parametrize(
    "text",
    [f"{_HALF}.{_HALF}1", "0." + "0" * 4299 + "1", "1" * 4301],
    ids=["4301-digit-numerator", "4301-digit-denominator", "4301-digit-integer"],
)
def test_plain_decimals_past_the_digit_limit_are_refused(text):
    message = (
        f"invalid distribution spec 'point:{text}': "
        f"point mass location {text!r} writes out more than 4300 digits"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_distribution(f"point:{text}")


# ---------------------------------------------------------------- transforms


def test_mgf_point_one_is_exp():
    ms = moments(point(1), 8)
    assert mgf(ms, 8) == exp_t(8)


def test_mgf_bernoulli_matches_closed_form():
    p = F(1, 2)
    ms = moments(bernoulli(p), 6)
    closed = Series.one(6) + (exp_t(6) - 1) * p
    assert mgf(ms, 6) == closed


def test_mgf_poisson_is_bell_egf():
    ms = moments(poisson(1), 6)
    assert mgf(ms, 6) == (exp_t(6) - 1).exp()


def test_mgf_needs_enough_moments():
    ms = moments(point(1), 3)
    with pytest.raises(ValueError):
        mgf(ms, 5)


@pytest.mark.parametrize("order", [-1, True, False, 1.0, "2", [3]], ids=repr)
def test_mgf_and_resolvent_refuse_an_order_that_is_not_a_natural_number(order):
    ms = moments(poisson(1), 3)
    # with orders 0 and 1 cached, True and False must still not read their
    # entries, and an unhashable order must not reach the cache
    for n in (0, 1):
        mgf(ms, n), resolvent(ms, n)
    message = f"^{re.escape(f'truncation order must be a non-negative integer, got {order!r}')}$"
    for call in (mgf, resolvent):
        with pytest.raises(ValueError, match=message):
            call(ms, order)
    with pytest.raises(ValueError, match=message):
        moments(poisson(1), order)


def test_resolvent_point_masses():
    assert resolvent(moments(point(1), 7), 7) == geometric_series(7)
    two = resolvent(moments(point(2), 7), 7)
    assert two == Series(F(n + 1) for n in range(8))


@pytest.mark.parametrize(
    "spec", [poisson(F(3, 2)), geometric(F(1, 3)), binomial(4, F(2, 5))], ids=str
)
@pytest.mark.parametrize("order", [24, 64])
def test_resolvent_equals_the_rising_factorial_sum(spec, order):
    # [t^n] E[(1-t)^(-Y)] = sum_k [n; k] mu_k / n!, with no series composition
    ms = moments(spec, order)
    assert list(resolvent(ms, order).coeffs) == rising_factorial_resolvent(ms, order)


@pytest.mark.parametrize(
    "spec",
    [
        point(F(-3, 2)),
        bernoulli(F(2, 7)),
        binomial(5, F(3, 4)),
        poisson(F(7, 3)),
        geometric(F(2, 9)),
        finite([(0, F(1, 3)), (F(5, 2), F(1, 6)), (-4, F(1, 2))]),
        raw_moments([1, F(1, 2), -3, F(7, 5), 0, 11, F(-2, 9), 4, F(1, 13), 6] * 2),
    ],
    ids=str,
)
@pytest.mark.parametrize("order", [0, 1, 5, 10])
def test_resolvent_equals_the_composition_route(spec, order):
    # the first-kind transform of the moments against M(-log(1-t)); moments
    # computed past the order are read only up to it
    for ms in (moments(spec, order), moments(spec, order + 5)):
        assert resolvent(ms, order) == resolvent_by_composition(ms, order)
    with pytest.raises(ValueError, match=f"need moments up to order {order + 1}, have {order}"):
        resolvent(moments(spec, order), order + 1)


def test_resolvent_bernoulli_linear_coefficient():
    ms = moments(bernoulli(F(1, 2)), 5)
    assert resolvent(ms, 5).coeff(1) == F(1, 2)


def test_sum_power_moment_basics():
    ms = moments(bernoulli(F(1, 2)), 6)
    assert sum_power_moment(ms, 0, 0) == 1
    assert sum_power_moment(ms, 0, 3) == 0
    # S_2 ~ Binomial(2, 1/2): direct finite expectation
    direct = sum(comb(2, j) * F(1, 4) * F(j) ** 2 for j in range(3))
    assert sum_power_moment(ms, 2, 2) == direct == F(3, 2)


def test_sum_power_moment_point_one_is_power():
    ms = moments(point(1), 6)
    for j in range(4):
        for n in range(6):
            expected = F(1) if n == 0 else F(j) ** n
            assert sum_power_moment(ms, j, n) == expected


def test_one_copy_returns_raw_moments():
    ms = moments(poisson(F(3, 2)), 8)
    for n in range(9):
        assert sum_power_moment(ms, 1, n) == ms.moment(n)


def test_cold_power_tables_are_filled_without_recursion(shallow_stack):
    # 400 powers from a cold table: one frame per power would pass the limit
    ms = moments(poisson(F(3, 7)), 5)
    assert prob_stirling2(ms, 5, 400) == 0
    assert prob_lah(ms, 5, 400) == 0
    # S_j ~ Poisson(j) for Y ~ Poisson(1): E[S_j^5] = sum_k S(5, k) j^k
    ms = moments(poisson(1), 5)
    for j in (400, 401, 3):
        assert sum_power_moment(ms, j, 5) == sum(stirling2(5, k) * j**k for k in range(6))


# ---------------------------------------------------------------- the rational boundary

# Every kind of value a caller may pass for a rational: an int, a Fraction,
# a Decimal (a NaN among them), a bool, a float and text, read by int alone
# or by Fraction, or refused
BOUNDARY_VALUES = [
    1, F(1, 2), Decimal("0.5"), Decimal("NaN"), True, 0.5,
    "1/2", " -3/4 ", "0.5", "1e-1", "x", "1/0", "1 /2",
]
_ONE = moments(point(1), 2)
BOUNDARY_CONSTRUCTORS = {
    "Series": lambda v: Series([v]),
    "MomentSequence": lambda v: MomentSequence((1, v)),
    "point": point,
    "bernoulli": bernoulli,
    "binomial": lambda v: binomial(2, v),
    "poisson": poisson,
    "geometric": geometric,
    "finite point": lambda v: finite([(v, 1)]),
    "finite weight": lambda v: finite([(0, v), (1, "1/2")]),
    "raw_moments": lambda v: raw_moments([1, v]),
    "prob_fubini y": lambda v: prob_fubini(_ONE, 1, v, 2),
}
# what each constructor makes of each value, in the order above: the label
# of a spec, the repr of anything else, or the exception with its message,
# as the Fraction-based readers gave them
CONSTRUCTOR_OUTCOMES = {
    'Series': [
        '<Series order=0: 1>',
        '<Series order=0: 1/2>',
        '<Series order=0: 1/2>',
        'ValueError: cannot convert NaN to integer ratio',
        '<Series order=0: 1>',
        'TypeError: float coefficients are inexact; pass int, Fraction or str',
        '<Series order=0: 1/2>',
        '<Series order=0: -3/4>',
        '<Series order=0: 1/2>',
        '<Series order=0: 1/10>',
        "ValueError: Invalid literal for Fraction: 'x'",
        'ZeroDivisionError: Fraction(1, 0)',
        "ValueError: Invalid literal for Fraction: '1 /2'",
    ],
    'MomentSequence': [
        'MomentSequence(mu=(1, 1))',
        'MomentSequence(mu=(1, Fraction(1, 2)))',
        "ValueError: mu_1 must be an int or a Fraction, got Decimal('0.5')",
        "ValueError: mu_1 must be an int or a Fraction, got Decimal('NaN')",
        'ValueError: mu_1 must be an int or a Fraction, got True',
        'ValueError: mu_1 must be an int or a Fraction, got 0.5',
        "ValueError: mu_1 must be an int or a Fraction, got '1/2'",
        "ValueError: mu_1 must be an int or a Fraction, got ' -3/4 '",
        "ValueError: mu_1 must be an int or a Fraction, got '0.5'",
        "ValueError: mu_1 must be an int or a Fraction, got '1e-1'",
        "ValueError: mu_1 must be an int or a Fraction, got 'x'",
        "ValueError: mu_1 must be an int or a Fraction, got '1/0'",
        "ValueError: mu_1 must be an int or a Fraction, got '1 /2'",
    ],
    'point': [
        'point:1',
        'point:1/2',
        'point:1/2',
        "ValueError: cannot parse point mass location from Decimal('NaN')",
        "ValueError: point mass location must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: point mass location must be exact (int, Fraction or 'a/b' string), not float",
        'point:1/2',
        'point:-3/4',
        'point:1/2',
        'point:1/10',
        "ValueError: cannot parse point mass location from 'x'",
        "ValueError: cannot parse point mass location from '1/0'",
        "ValueError: cannot parse point mass location from '1 /2'",
    ],
    'bernoulli': [
        'bernoulli:1',
        'bernoulli:1/2',
        'bernoulli:1/2',
        "ValueError: cannot parse bernoulli parameter from Decimal('NaN')",
        "ValueError: bernoulli parameter must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: bernoulli parameter must be exact (int, Fraction or 'a/b' string), not float",
        'bernoulli:1/2',
        'ValueError: bernoulli parameter must lie in (0, 1], got -3/4',
        'bernoulli:1/2',
        'bernoulli:1/10',
        "ValueError: cannot parse bernoulli parameter from 'x'",
        "ValueError: cannot parse bernoulli parameter from '1/0'",
        "ValueError: cannot parse bernoulli parameter from '1 /2'",
    ],
    'binomial': [
        'binomial:2,1',
        'binomial:2,1/2',
        'binomial:2,1/2',
        "ValueError: cannot parse binomial parameter from Decimal('NaN')",
        "ValueError: binomial parameter must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: binomial parameter must be exact (int, Fraction or 'a/b' string), not float",
        'binomial:2,1/2',
        'ValueError: binomial parameter must lie in (0, 1], got -3/4',
        'binomial:2,1/2',
        'binomial:2,1/10',
        "ValueError: cannot parse binomial parameter from 'x'",
        "ValueError: cannot parse binomial parameter from '1/0'",
        "ValueError: cannot parse binomial parameter from '1 /2'",
    ],
    'poisson': [
        'poisson:1',
        'poisson:1/2',
        'poisson:1/2',
        "ValueError: cannot parse poisson rate from Decimal('NaN')",
        "ValueError: poisson rate must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: poisson rate must be exact (int, Fraction or 'a/b' string), not float",
        'poisson:1/2',
        'ValueError: poisson rate must be non-negative, got -3/4',
        'poisson:1/2',
        'poisson:1/10',
        "ValueError: cannot parse poisson rate from 'x'",
        "ValueError: cannot parse poisson rate from '1/0'",
        "ValueError: cannot parse poisson rate from '1 /2'",
    ],
    'geometric': [
        'geometric:1',
        'geometric:1/2',
        'geometric:1/2',
        "ValueError: cannot parse geometric success probability from Decimal('NaN')",
        "ValueError: geometric success probability must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: geometric success probability must be exact (int, Fraction or 'a/b' string), not float",
        'geometric:1/2',
        'ValueError: geometric success probability must lie in (0, 1], got -3/4',
        'geometric:1/2',
        'geometric:1/10',
        "ValueError: cannot parse geometric success probability from 'x'",
        "ValueError: cannot parse geometric success probability from '1/0'",
        "ValueError: cannot parse geometric success probability from '1 /2'",
    ],
    'finite point': [
        'finite:1=1',
        'finite:1/2=1',
        'finite:1/2=1',
        "ValueError: cannot parse support point from Decimal('NaN')",
        "ValueError: support point must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: support point must be exact (int, Fraction or 'a/b' string), not float",
        'finite:1/2=1',
        'finite:-3/4=1',
        'finite:1/2=1',
        'finite:1/10=1',
        "ValueError: cannot parse support point from 'x'",
        "ValueError: cannot parse support point from '1/0'",
        "ValueError: cannot parse support point from '1 /2'",
    ],
    'finite weight': [
        'ValueError: finite distribution weights must sum to 1, got 3/2',
        'finite:0=1/2;1=1/2',
        'finite:0=1/2;1=1/2',
        "ValueError: cannot parse weight from Decimal('NaN')",
        "ValueError: weight must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: weight must be exact (int, Fraction or 'a/b' string), not float",
        'finite:0=1/2;1=1/2',
        'ValueError: finite distribution weights must be non-negative',
        'finite:0=1/2;1=1/2',
        'ValueError: finite distribution weights must sum to 1, got 3/5',
        "ValueError: cannot parse weight from 'x'",
        "ValueError: cannot parse weight from '1/0'",
        "ValueError: cannot parse weight from '1 /2'",
    ],
    'raw_moments': [
        'raw:1,1',
        'raw:1,1/2',
        'raw:1,1/2',
        "ValueError: cannot parse raw moment from Decimal('NaN')",
        "ValueError: raw moment must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: raw moment must be exact (int, Fraction or 'a/b' string), not float",
        'raw:1,1/2',
        'raw:1,-3/4',
        'raw:1,1/2',
        'raw:1,1/10',
        "ValueError: cannot parse raw moment from 'x'",
        "ValueError: cannot parse raw moment from '1/0'",
        "ValueError: cannot parse raw moment from '1 /2'",
    ],
    'prob_fubini y': [
        'Fraction(3, 1)',
        'Fraction(1, 1)',
        'Fraction(1, 1)',
        "ValueError: cannot parse y from Decimal('NaN')",
        "ValueError: y must be exact (int, Fraction or 'a/b' string), not bool",
        "ValueError: y must be exact (int, Fraction or 'a/b' string), not float",
        'Fraction(1, 1)',
        'Fraction(3, 8)',
        'Fraction(1, 1)',
        'Fraction(3, 25)',
        "ValueError: cannot parse y from 'x'",
        "ValueError: cannot parse y from '1/0'",
        "ValueError: cannot parse y from '1 /2'",
    ],
}


@pytest.mark.parametrize("name", BOUNDARY_CONSTRUCTORS)
def test_constructors_accept_and_refuse_each_kind_of_value_as_before(name):
    made = []
    for value in BOUNDARY_VALUES:
        try:
            got = BOUNDARY_CONSTRUCTORS[name](value)
        except Exception as exc:
            made.append(f"{type(exc).__name__}: {exc}")
            continue
        if isinstance(got, DistributionSpec):
            # the public parameters are Fractions, the binomial count an int
            flat = [v for p in got.params for v in (p if isinstance(p, tuple) else (p,))]
            assert [type(v) for v in flat] == [int] * (got.kind == "binomial") + [F] * (
                len(flat) - (got.kind == "binomial")
            )
            made.append(got.label)
        else:
            made.append(repr(got))
    assert made == CONSTRUCTOR_OUTCOMES[name]
