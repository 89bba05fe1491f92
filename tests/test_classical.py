import ast
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multinumbers
from multinumbers.classical import (
    _FIRST,
    _LAH,
    _ROWS,
    _SECOND,
    _SIGNED_SECOND,
    _columns,
    _row,
    _transform,
    bernoulli_higher,
    bernoulli_higher_series,
    lah,
    stirling1,
    stirling2,
)
from multinumbers.series import Series, exp_t, geometric, neg_log1m

from oracles import bernoulli_higher_oracle, shifted, stirling1_count, stirling2_count

F = Fraction


def test_boundary_rows():
    for n in range(1, 8):
        assert stirling2(n, 1) == 1
        assert stirling1(n, n) == 1
        assert lah(n, 1) == factorial(n)
    assert stirling1(0, 0) == stirling2(0, 0) == lah(0, 0) == 1


def test_off_triangle_is_zero():
    assert stirling1(3, 5) == 0
    assert stirling2(2, -1) == 0
    assert lah(4, 9) == 0


@pytest.mark.parametrize("entry", [stirling1, stirling2, lah])
@pytest.mark.parametrize(
    "n, k", [(True, 1), (1, True), (True, True), (False, 0), (-1, 0), (2.0, 1), (2, 1.0)]
)
def test_triangle_entries_refuse_a_bool_or_non_natural_index(entry, n, k):
    with pytest.raises(ValueError):
        entry(n, k)


def test_small_values_against_enumeration():
    for n in range(7):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_count(n, k)
    for n in range(6):
        for k in range(n + 1):
            assert stirling1(n, k) == stirling1_count(n, k)


def test_lah_closed_form_values():
    assert lah(3, 3) == 1
    assert lah(3, 2) == comb(2, 1) * factorial(3) // factorial(2)
    assert lah(4, 2) == 36


def test_lah_is_stirling1_composed_with_stirling2():
    for n in range(11):
        for k in range(n + 1):
            assert lah(n, k) == sum(stirling1(n, j) * stirling2(j, k) for j in range(n + 1))


def test_signed_stirling_inversion():
    # the signed first-kind matrix (-1)^(n-k) [n; k] inverts the second-kind
    # matrix {n; k}, in either composition order
    n_max = 10
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            first_then_second = sum(
                (-1) ** ((n - k) % 2) * stirling1(n, k) * stirling2(k, m)
                for k in range(n_max + 1)
            )
            second_then_first = sum(
                stirling2(n, k) * (-1) ** ((k - m) % 2) * stirling1(k, m)
                for k in range(n_max + 1)
            )
            expected = 1 if n == m else 0
            assert first_then_second == expected
            assert second_then_first == expected


def test_egf_cross_checks():
    n_max = 10
    for k in range(5):
        blocks = (exp_t(n_max) - 1) ** k * F(1, factorial(k))
        cycles = neg_log1m(n_max) ** k * F(1, factorial(k))
        lists = (Series.t(n_max) * geometric(n_max)) ** k * F(1, factorial(k))
        for n in range(n_max + 1):
            assert blocks.egf_coeff(n) == stirling2(n, k)
            assert cycles.egf_coeff(n) == stirling1(n, k)
            assert lists.egf_coeff(n) == lah(n, k)


def test_bernoulli_higher_basics():
    for r in range(5):
        assert bernoulli_higher(0, r) == 1
    assert bernoulli_higher(1, 1) == F(-1, 2)
    assert bernoulli_higher(2, 1) == F(1, 6)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_bernoulli_higher_against_convolution_oracle(r):
    oracle = bernoulli_higher_oracle(8, r)
    for n in range(9):
        assert bernoulli_higher(n, r, 8) == oracle[n]


def test_bernoulli_higher_range_check():
    with pytest.raises(ValueError):
        bernoulli_higher(5, 1, order=4)


def test_cold_rows_are_filled_without_recursion(shallow_stack):
    # 300 rows past the last one held: one frame per row would pass the limit
    n = len(_ROWS[_SECOND]) + 300
    assert stirling2(n, 1) == 1
    assert stirling2(n, 2) == 2 ** (n - 1) - 1
    n = len(_ROWS[_FIRST]) + 300
    assert stirling1(n, n - 1) == comb(n, 2)
    assert stirling1(n, 1) == factorial(n - 1)
    n = len(_ROWS[_LAH]) + 300
    assert list(_row(_LAH, n)) == [lah(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("signed", [False, True])
def test_stirling_columns_read_the_rows(signed):
    for weights, entry in ((_FIRST, stirling1), (_SECOND, stirling2)):
        if signed:  # the negated weights give (-1)^(n-k) times the unsigned entry
            weights = tuple(-w for w in weights)
        columns = _columns(weights, 9)
        for k, column in enumerate(columns):
            for n, value in enumerate(column):
                sign = -1 if signed and (n - k) % 2 else 1
                assert value == sign * entry(n, k)


def test_lah_columns_equal_the_closed_form():
    columns = _columns(_LAH, 40)
    assert len(columns) == 41
    for k, column in enumerate(columns):
        assert len(column) == 41
        for n, value in enumerate(column):
            assert value == lah(n, k)


def test_bernoulli_higher_series_equals_the_divided_power():
    # the former construction, t^r / (e^t - 1)^r at order N + r, as the
    # product: the series times (e^t - 1)^r / t^r is 1 at order N
    for r in range(8):
        for order in range(20):
            work = order + r
            den = shifted((exp_t(work) - 1) ** r, r)
            assert bernoulli_higher_series(r, order) * den == shifted(Series.t(work) ** r, r)


@pytest.mark.parametrize(
    "r,order,message",
    [
        (2, [3], "truncation order must be a non-negative integer, got [3]"),
        (2, True, "truncation order must be a non-negative integer, got True"),
        (2, -1, "truncation order must be a non-negative integer, got -1"),
        ([2], 3, "the power r must be a non-negative integer, got [2]"),
        (True, 3, "the power r must be a non-negative integer, got True"),
    ],
    ids=repr,
)
def test_bernoulli_higher_series_refuses_a_power_or_order_that_is_not_natural(r, order, message):
    # with r = 1 and order 1 cached, True must still not read those entries,
    # and an unhashable argument must not reach the cache
    bernoulli_higher_series(1, 1), bernoulli_higher_series(2, 1), bernoulli_higher_series(1, 3)
    with pytest.raises(ValueError) as excinfo:
        bernoulli_higher_series(r, order)
    assert str(excinfo.value) == message


def test_bernoulli_higher_at_a_large_power():
    r = 100_000
    assert bernoulli_higher_series(r, 3).egf_coeffs == (
        1, F(-r, 2), F(r * (3 * r - 1), 12), F(-r * r * (r - 1), 8)
    )


@given(
    st.sampled_from([_FIRST, _SECOND, _LAH, _SIGNED_SECOND]),
    st.lists(st.integers(min_value=-(2**200), max_value=2**200), max_size=31),
)
@settings(max_examples=200, deadline=None)
def test_transform_is_the_triangle_applied_to_the_column(weights, x):
    top = len(x) - 1
    columns = _columns(weights, top) if x else ()
    want = [sum(columns[k][n] * x[k] for k in range(n + 1)) for n in range(len(x))]
    assert _transform(weights, x) == want


def test_transform_leaves_its_argument_alone():
    x = [3, -1, 4, 1, -5]
    # S(4, k) = 0, 1, 7, 6, 1: b_4 = -1 + 28 + 6 - 5
    assert _transform(_SECOND, x) == [3, -1, 3, 12, 28]
    assert x == [3, -1, 4, 1, -5]


def test_only_classical_reads_the_row_memo():
    # library code applies a triangle through _transform; the memoised rows
    # stay behind classical, read by the check sides only through _columns
    memo = {"_row", "_ROWS"}
    readers = []
    for path in sorted(Path(multinumbers.__file__).parent.glob("*.py")):
        if path.stem == "classical":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                readers += [(path.name, a.name) for a in node.names if a.name in memo]
            elif isinstance(node, ast.Attribute) and node.attr in memo:
                readers.append((path.name, node.attr))
    assert readers == []
