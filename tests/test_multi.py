from fractions import Fraction
from math import factorial

import pytest

from multinumbers.classical import bernoulli_higher, bernoulli_higher_series, lah, stirling2
from multinumbers.identities import check_append_one_deterministic
from multinumbers.moments import mgf, moments, poisson
from multinumbers.multi import (
    li_argument,
    multi_bernoulli,
    multi_bernoulli_series,
    multi_lah,
    multi_lah_series,
    multi_stirling2,
    multi_stirling2_series,
)
from multinumbers.multilog import multilog
from multinumbers.series import Series, exp_t, one_minus_exp_neg_t

from oracles import series_exp, stirling2_count

F = Fraction


def test_li_argument_requires_unit_constant():
    with pytest.raises(ValueError):
        li_argument(Series.t(4))


@pytest.mark.parametrize("head", [0, 2, F(-1, 2)], ids=str)
def test_cached_li_argument_refuses_a_non_unit_constant_term_on_every_call(head):
    u = exp_t(6) + (head - 1)
    for _ in range(3):
        with pytest.raises(ValueError, match="unit constant term"):
            li_argument(u)


def test_li_argument_builds_no_fraction(monkeypatch):
    u = mgf(moments(poisson(F(3, 7)), 64), 64)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    v = li_argument.__wrapped__(u)  # past the cache, which an earlier call may have filled
    monkeypatch.undo()
    assert built == []
    e = series_exp([F(0)] + [-c for c in u.coeffs[1:]])
    assert list(v.coeffs) == [1 - e[0]] + [-c for c in e[1:]]


def test_second_kind_examples():
    # {3; 2} by brute-force partition count
    assert multi_stirling2((1, 1), 3) == stirling2_count(3, 2)
    assert multi_stirling2((1, 2), 2) == F(1, 2)
    assert multi_stirling2((2,), 1) == 1


def test_bernoulli_examples():
    assert multi_bernoulli((1, 2), 0) == F(1, 4)
    assert multi_bernoulli((1,), 1) == F(1, 2)


def test_bernoulli_leading_coefficient_via_series_division():
    # lowest coefficient of Li_{1,2}(1 - e^(-t)) / (1 - e^(-t))^2 directly
    w = one_minus_exp_neg_t(8)
    ratio = multilog((1, 2), 8).compose(w).divide(w**2, 2)
    assert ratio.egf_coeff(0) == F(1, 4)
    assert multi_bernoulli((1, 2), 0, 6) == F(1, 4)


@pytest.mark.parametrize(
    "ks", [(0,), (-1,), (-2, 3), (0, 0), (2, -1, 0), (1, -3, 2), (0, 1, -1, 2), (1, 1)], ids=str
)
def test_bernoulli_is_the_shifted_column_composed(ks):
    # the old form, at internal order N + r and divided by w^r, as the oracle
    r = len(ks)
    for order in range(25):
        w = one_minus_exp_neg_t(order + r)
        old = multilog(ks, order + r).compose(w).divide(w**r, r)
        assert multi_bernoulli_series(ks, order) == old


def test_lah_examples():
    assert multi_lah((1, 1), 3) == lah(3, 2)
    assert multi_lah((1, 2), 2) == F(1, 2)
    assert multi_lah((1,), 1) == lah(1, 1)


@pytest.mark.parametrize("ks", [(2,), (1, 2), (2, 3), (1, 2, 3), (0, 1)])
def test_families_vanish_below_tuple_length(ks):
    r = len(ks)
    for n in range(r):
        assert multi_stirling2(ks, n, 8) == 0
        assert multi_lah(ks, n, 8) == 0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_all_ones_reductions(r):
    ones = (1,) * r
    for n in range(13):
        assert multi_stirling2(ones, n, 12) == stirling2(n, r)
        assert multi_lah(ones, n, 12) == lah(n, r)
    for n in range(13):
        expected = (-1) ** (n % 2) * bernoulli_higher(n, r, 12) / factorial(r)
        assert multi_bernoulli(ones, n, 12) == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda order: multi_stirling2_series((1,), order),
        lambda order: multi_bernoulli_series((1,), order),
        lambda order: multi_lah_series((1,), order),
        lambda order: bernoulli_higher_series(2, order),
    ],
    ids=["multi-stirling2", "multi-bernoulli", "multi-lah", "bernoulli-higher"],
)
def test_a_cached_order_1_entry_is_not_read_for_order_true(build):
    build(1)
    with pytest.raises(ValueError, match="truncation order must be a non-negative integer"):
        build(True)


def test_range_checks():
    with pytest.raises(ValueError):
        multi_stirling2((1,), 5, order=4)
    with pytest.raises(ValueError):
        multi_bernoulli((1,), 9, order=8)
    with pytest.raises(ValueError):
        multi_lah((1,), 7, order=6)


@pytest.mark.parametrize("prefix", [(1,), (2,), (1, 1)])
def test_append_one_recurrence(prefix):
    report = check_append_one_deterministic(prefix, 10)
    assert report.status == "pass"
    assert report.first_mismatch is None
