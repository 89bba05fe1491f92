from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinumbers.identities import check_derivative_rules
from multinumbers.multilog import index_tuple, multi_stirling1, multilog
from multinumbers.series import Series, neg_log1m

from oracles import fraction_multilog, multilog_coefficient, stirling1_count

F = Fraction


def test_index_tuple_validation():
    assert index_tuple([1, -2, 0]) == (1, -2, 0)
    with pytest.raises(ValueError):
        index_tuple([])
    with pytest.raises(ValueError):
        index_tuple([1, F(1, 2)])


def test_single_index_one_is_neg_log():
    assert multilog((1,), 9) == neg_log1m(9)


def test_pair_of_ones_is_half_log_squared():
    lhs = multilog((1, 1), 8)
    rhs = neg_log1m(8) ** 2 * F(1, 2)
    assert lhs == rhs


def test_pair_one_two_leading_coefficients():
    s = multilog((1, 2), 5)
    assert s.coeff(2) == F(1, 4)
    assert s.coeff(3) == F(1, 6)


def test_enumeration_examples():
    assert multilog_coefficient((2,), 3) == F(1, 9)
    assert multilog_coefficient((1, 2), 3) == F(1, 6)
    assert multilog_coefficient((1, 1, 1), 3) == F(1, 6)


@pytest.mark.parametrize(
    "ks",
    [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (0,), (-1,), (0, 2), (-2, 1),
     (1, 1, 1), (1, 2, 3), (2, -1, 0)],
)
def test_series_matches_chain_enumeration(ks):
    s = multilog(ks, 10)
    assert s.coeff(0) == 0
    for m in range(1, 11):
        assert s.coeff(m) == multilog_coefficient(ks, m)


@given(
    st.lists(st.integers(-3, 4), min_size=1, max_size=4).map(tuple),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_integer_dp_equals_the_fraction_dp(ks, order):
    s = multilog(ks, order)
    assert s == Series(fraction_multilog(ks, order))


@pytest.mark.parametrize("ks, order", [((2000,), 64), ((20000,), 12), ((300, -200, 5), 64)])
def test_large_indices_equal_the_fraction_dp(ks, order):
    assert multilog(ks, order) == Series(fraction_multilog(ks, order))


@pytest.mark.parametrize("ks", [(1, 2), (2, 3, 4), (5, 5), (0, 1, 2, 3)])
def test_coefficients_vanish_below_tuple_length(ks):
    s = multilog(ks, 8)
    for m in range(len(ks)):
        assert s.coeff(m) == 0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_all_ones_reduces_to_log_power(r):
    ones = (1,) * r
    assert multilog(ones, 10) == neg_log1m(10) ** r * F(1, factorial(r))


def test_first_kind_values():
    # {3; 2} by brute-force permutation cycle count
    assert multi_stirling1((1, 1), 3) == stirling1_count(3, 2)
    assert multi_stirling1((1, 2), 3) == 1
    assert multi_stirling1((2,), 3) == F(2, 3)


def test_first_kind_range_check():
    with pytest.raises(ValueError):
        multi_stirling1((1,), 5, order=3)


@pytest.mark.parametrize(
    "ks",
    [(1,), (1, 1), (1, 2), (2,), (2, 1), (0,), (-1, 1), (1, 1, 1), (3, 0)],
)
def test_derivative_rules_full_grid(ks):
    assert check_derivative_rules(ks, 8).status == "pass"


@pytest.mark.parametrize("ks", [(1,), (2, 1), (3,)])
def test_derivative_rules_at_order_zero_compare_nothing_and_pass(ks):
    report = check_derivative_rules(ks, 0)
    assert (report.status, report.order, report.ks) == ("pass", 0, ks)
    assert report.first_mismatch is None


def test_derivative_rules_still_validate_the_index_tuple_and_the_order():
    with pytest.raises(ValueError):
        check_derivative_rules((), 0)
    with pytest.raises(ValueError, match="non-negative"):
        check_derivative_rules((1,), -1)


@pytest.mark.parametrize("order", [-1, True, 2.0], ids=repr)
def test_multilog_refuses_an_order_that_is_not_a_natural_number(order):
    with pytest.raises(ValueError, match="truncation order must be a non-negative integer"):
        multilog((1,), order)
