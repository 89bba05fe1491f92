import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from multinumbers import multi, series
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
from multinumbers.probabilistic import prob_fubini_series
from multinumbers.series import Series, exp_t

from oracles import (
    fraction_multilog,
    multilog_coefficient,
    one_minus_exp_neg_t,
    series_compose,
    series_exp,
    series_inverse,
    series_product,
    shifted,
    stirling2_count,
)

F = Fraction


def test_li_argument_requires_unit_constant():
    with pytest.raises(ValueError):
        li_argument(Series.t(4))


@pytest.mark.parametrize("u", [[1, 2], "x"], ids=str)
def test_li_argument_refuses_an_argument_that_is_not_a_series(u):
    with pytest.raises(TypeError, match="^li_argument needs a Series argument$"):
        li_argument(u)


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
    v = multi._li_argument.__wrapped__(u)  # past the cache, which an earlier call may have filled
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
    # Li_{1,2}(1 - e^(-t)) / (1 - e^(-t))^2 as the product: the quotient times
    # the shifted denominator, whose lowest coefficient is 1, is the shifted
    # numerator, so the two lowest coefficients agree
    w = one_minus_exp_neg_t(8)
    num, den = shifted(multilog((1, 2), 8).compose(w), 2), shifted(w**2, 2)
    assert multi_bernoulli_series((1, 2), 6) * den == num
    assert den.coeff(0) == 1 and num.coeff(0) == F(1, 4)
    assert multi_bernoulli((1, 2), 0, 6) == F(1, 4)


BERNOULLI_TUPLES = [(0,), (-1,), (-2, 3), (0, 0), (2, -1, 0), (1, -3, 2), (0, 1, -1, 2), (1, 1)]


@pytest.mark.parametrize("ks", BERNOULLI_TUPLES, ids=str)
def test_bernoulli_leading_coefficient_is_the_shortest_chain(ks):
    # w = t + O(t^2), so B_0 is the t^r coefficient of Li_ks, the one chain
    # 1 < 2 < ... < r: the product of i^(-k_i)
    r = len(ks)
    shortest = F(1)
    for i, k in enumerate(ks, 1):
        shortest *= F(i) ** -k
    assert multilog_coefficient(ks, r) == shortest
    for order in range(6):
        assert multi_bernoulli(ks, 0, order) == shortest


@pytest.mark.parametrize("ks", BERNOULLI_TUPLES, ids=str)
def test_bernoulli_is_the_shifted_column_composed(ks):
    # the old form, at internal order N + r and divided by w^r, as the
    # oracle: the series times the shifted w^r is the shifted composition
    r = len(ks)
    for order in range(25):
        w = one_minus_exp_neg_t(order + r)
        old = shifted(multilog(ks, order + r).compose(w), r)
        assert multi_bernoulli_series(ks, order) * shifted(w**r, r) == old


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
        lambda order: prob_fubini_series(moments(poisson(1), 1), 1, 1, order),
    ],
    ids=["multi-stirling2", "multi-bernoulli", "multi-lah", "bernoulli-higher", "prob-fubini"],
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


# ------------------------------------------------------- composition oracles

ORACLE_ORDER = 20


def _exp_minus(inner: list) -> list:
    """Coefficients of 1 - e^(-inner) for ``inner`` with zero constant term."""
    e = series_exp([-c for c in inner])
    return [F(0)] + [-c for c in e[1:]]


def _egf(coeffs: list) -> list:
    return [factorial(n) * c for n, c in enumerate(coeffs)]


def _second_kind_oracle(ks, order: int) -> list:
    """EGF entries of Li_ks(1 - e^(1 - e^t)), the multilog composed in
    ``Fraction`` arithmetic."""
    e_t_minus_1 = [F(0)] + [F(1, factorial(n)) for n in range(1, order + 1)]
    return _egf(series_compose(fraction_multilog(ks, order), _exp_minus(e_t_minus_1)))


def _bernoulli_oracle(ks, order: int) -> list:
    """EGF entries of Li_ks(w) / w^r, w = 1 - e^(-t): the composition at
    order N + r, shifted down by r and divided by (w / t)^r."""
    r = len(ks)
    w = _exp_minus([F(0), F(1)] + [F(0)] * (order + r - 1))
    li = series_compose(fraction_multilog(ks, order + r), w)[r:]
    h = w[1 : order + 2]  # w / t
    power = [F(1)] + [F(0)] * order
    for _ in ks:
        power = series_product(power, h)
    return _egf(series_product(li, series_inverse(power)))


def _lah_oracle(ks, order: int) -> list:
    """EGF entries of Li_ks(1 - e^(-t)) / (1 - t)^r."""
    w = _exp_minus([F(0), F(1)] + [F(0)] * (order - 1))
    f = series_compose(fraction_multilog(ks, order), w)
    for _ in ks:
        f = series_product(f, [F(1)] * (order + 1))
    return _egf(f)


@pytest.mark.parametrize(
    "ks", [(1,), (2, 3), (0,), (-1,), (0, 0), (2, -1, 0), (1, -3, 2), (-2, 0, 1, 1)], ids=str
)
@pytest.mark.parametrize(
    "series_of, oracle",
    [
        (multi_stirling2_series, _second_kind_oracle),
        (multi_bernoulli_series, _bernoulli_oracle),
        (multi_lah_series, _lah_oracle),
    ],
    ids=["multi-stirling2", "multi-bernoulli", "multi-lah"],
)
def test_families_equal_the_fraction_composition_at_every_order(series_of, oracle, ks):
    # a coefficient does not depend on the truncation order, so each order
    # is a prefix of the oracle at the largest one
    want = oracle(ks, ORACLE_ORDER)
    for order in range(ORACLE_ORDER + 1):
        assert list(series_of(ks, order).egf_coeffs) == want[: order + 1]


@pytest.mark.parametrize(
    "cached",
    [multi._stirling2_series, multi._bernoulli_series, multi._lah_series],
    ids=["multi-stirling2", "multi-bernoulli", "multi-lah"],
)
def test_a_cold_family_makes_no_series_product_composition_or_recurrence(monkeypatch, cached):
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("compose", "__mul__", "__rmul__"):
        monkeypatch.setattr(Series, name, counting(name, getattr(Series, name)))
    for name in ("_solve", "_product"):
        monkeypatch.setattr(series, name, counting(name, getattr(series, name)))
    for ks in [(2, 3), (1, 1), (0, -2, 3)]:
        cached.__wrapped__(ks, 64)  # past the cache, which an earlier call may have filled
    assert calls == []


def test_multi_lah_of_a_very_long_tuple_runs_its_running_sums_one_at_a_time():
    # r lazy running sums chained into one another would recurse r levels
    # deep in C when read and overflow the stack; a subprocess keeps that
    # crash out of the test run
    code = "from multinumbers import multi_lah_series; print(multi_lah_series((0,) * 500000, 1))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "<Series order=1: 0>\n"
