import ast
import inspect
import re
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multinumbers
from multinumbers import identities, multi, probabilistic, series
from multinumbers.classical import lah, stirling1, stirling2
from multinumbers.moments import (
    bernoulli,
    binomial,
    finite,
    geometric,
    mgf,
    moments,
    point,
    poisson,
    raw_moments,
    resolvent,
    sum_power_moment,
)
from multinumbers.multi import li_argument, multi_lah, multi_stirling2, multi_stirling2_series
from multinumbers.multilog import multi_stirling1, multilog
from multinumbers.probabilistic import (
    _less_one,
    _li_family,
    _power_triangle,
    prob_fubini,
    prob_fubini_series,
    prob_lah,
    prob_lah_series,
    prob_multi_lah,
    prob_multi_lah_series,
    prob_multi_stirling2,
    prob_multi_stirling2_series,
    prob_stirling2,
    prob_stirling2_by_moments,
    prob_stirling2_series,
)
from multinumbers.series import Series, _power_memo, powers

from oracles import (
    fraction_moments,
    fubini_by_inverted_power,
    li_family,
    moment_route_by_comb,
    ordered_partition_count,
    rising_factorial_resolvent,
    series_product,
)

F = Fraction

DISTS = [
    point(1),
    point(2),
    bernoulli(F(1, 2)),
    binomial(3, F(1, 3)),
    poisson(1),
    geometric(F(1, 2)),
    finite([(0, F(1, 2)), (2, F(1, 2))]),
]

MEAN_ZERO = finite([(-1, F(1, 2)), (1, F(1, 2))])


# ------------------------------------------------------- second kind


def test_point_one_second_kind_is_classical():
    ms = moments(point(1), 8)
    for n in range(9):
        for k in range(n + 1):
            assert prob_stirling2(ms, n, k, 8) == stirling2(n, k)


def test_second_kind_bernoulli_value_by_moment_sum():
    ms = moments(bernoulli(F(1, 2)), 4)
    # (1/2!) * (E[S_2^2] - 2 E[S_1^2] + E[S_0^2]) = (1/2)(3/2 - 1)
    assert prob_stirling2(ms, 2, 2, 4) == F(1, 4)
    assert prob_stirling2_by_moments(ms, 2, 2) == F(1, 4)


def test_moment_route_above_the_diagonal_and_its_argument_checks():
    ms = moments(poisson(1), 4)
    assert prob_stirling2_by_moments(ms, 2, 5) == 0
    assert type(prob_stirling2_by_moments(ms, 2, 5)) is Fraction
    assert type(prob_stirling2_by_moments(ms, 3, 2)) is Fraction
    for n, k in ((-1, 0), (2, -1), (True, 1)):
        with pytest.raises(ValueError):
            prob_stirling2_by_moments(ms, n, k)
    # the moments must reach order n, as for the EGF route
    with pytest.raises(ValueError):
        prob_stirling2_by_moments(ms, 5, 2)


def test_second_kind_empty_cell():
    ms = moments(poisson(1), 4)
    assert prob_stirling2(ms, 0, 0, 4) == 1


@pytest.mark.parametrize("spec", DISTS + [MEAN_ZERO], ids=lambda s: s.label)
def test_route_agreement(spec):
    ms = moments(spec, 8)
    for n in range(9):
        for k in range(n + 1):
            assert prob_stirling2(ms, n, k, 8) == prob_stirling2_by_moments(ms, n, k)


# ------------------------------------------------------- multi second kind


def test_point_one_multi_second_kind_collapses():
    ms = moments(point(1), 10)
    for ks in [(1,), (2,), (1, 2), (2, 1), (1, 1, 1), (2, 3)]:
        for n in range(11):
            assert prob_multi_stirling2(ms, ks, n, 10) == multi_stirling2(ks, n, 10)


@pytest.mark.parametrize("spec", DISTS, ids=lambda s: s.label)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_all_ones_multi_second_kind_collapses(spec, r):
    ms = moments(spec, 9)
    for n in range(10):
        assert prob_multi_stirling2(ms, (1,) * r, n, 9) == prob_stirling2(ms, n, r, 9)


def test_multi_second_kind_bernoulli_value():
    # {2; (1,2)}_Y = 1/8 for Y ~ Bernoulli(1/2), frozen from the first-kind
    # inversion route: only (l, m) = (2, 2) contributes, giving
    # {2;2} * {2;2}_Y * [2; (1,2)] = 1 * 1/4 * 1/2.
    ms = moments(bernoulli(F(1, 2)), 4)
    by_inversion = sum(
        (-1) ** ((l - m) % 2)
        * stirling2(l, m)
        * prob_stirling2(ms, 2, l, 4)
        * multi_stirling1((1, 2), m, 4)
        for l in range(2, 3)
        for m in range(2, l + 1)
    )
    assert by_inversion == F(1, 8)
    assert prob_multi_stirling2(ms, (1, 2), 2, 4) == F(1, 8)


@pytest.mark.parametrize("ks", [(2,), (1, 2), (2, 3)])
def test_multi_families_vanish_below_r(ks):
    r = len(ks)
    for spec in (bernoulli(F(1, 2)), MEAN_ZERO):
        ms = moments(spec, 6)
        for n in range(r):
            assert prob_multi_stirling2(ms, ks, n, 6) == 0
            assert prob_multi_lah(ms, ks, n, 6) == 0


# ------------------------------------------------------- lah families


def test_point_one_lah_is_classical():
    ms = moments(point(1), 8)
    for n in range(9):
        for k in range(n + 1):
            assert prob_lah(ms, n, k, 8) == lah(n, k)


def test_lah_point_two_linear_value():
    ms = moments(point(2), 4)
    assert prob_lah(ms, 1, 1, 4) == 2
    assert prob_lah(ms, 0, 0, 4) == 1


@pytest.mark.parametrize("spec", DISTS, ids=lambda s: s.label)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_all_ones_multi_lah_collapses(spec, r):
    ms = moments(spec, 9)
    for n in range(10):
        assert prob_multi_lah(ms, (1,) * r, n, 9) == prob_lah(ms, n, r, 9)


def test_point_one_multi_lah_all_ones_values():
    ms = moments(point(1), 8)
    assert prob_multi_lah(ms, (1, 1), 3, 8) == 6


def test_point_one_multi_lah_differs_from_deterministic_off_all_ones():
    # The two defining compositions are different series for general indices:
    # at ks = (2,) they first disagree at n = 3 (19/6 against 14/3).
    ms = moments(point(1), 8)
    direct = prob_multi_lah(ms, (2,), 3, 8)
    corrected_sum = sum(
        prob_multi_stirling2(ms, (2,), k, 8) * stirling1(3, k) for k in range(1, 4)
    )
    assert direct == corrected_sum == F(19, 6)
    assert multi_lah((2,), 3, 8) == F(14, 3)
    assert direct != multi_lah((2,), 3, 8)


# ------------------------------------------------------- fubini


def test_fubini_at_zero():
    ms = moments(poisson(1), 5)
    assert prob_fubini(ms, 2, 0, 0, 5) == 1
    for n in range(1, 6):
        assert prob_fubini(ms, 2, 0, n, 5) == 0


def test_fubini_point_one_is_ordered_partition_count():
    ms = moments(point(1), 6)
    for n in range(7):
        assert prob_fubini(ms, 1, 1, n, 6) == ordered_partition_count(n)


@pytest.mark.parametrize("y", [F(1, 3), F(-2), F(5, 7)])
def test_fubini_linear_coefficient(y):
    # F_1^(r,Y)(y) = r * y * mu_1
    for spec in (point(1), poisson(1), bernoulli(F(1, 2))):
        ms = moments(spec, 3)
        for r in (1, 2, 3):
            assert prob_fubini(ms, r, y, 1, 3) == r * y * ms.moment(1)


def test_fubini_rejects_bad_arguments():
    ms = moments(point(1), 3)
    with pytest.raises(ValueError):
        prob_fubini(ms, 0, 1, 1, 3)
    with pytest.raises(ValueError):
        prob_fubini(ms, 1, 0.5, 1, 3)


@pytest.mark.parametrize(
    "y,message",
    [
        ("x", "cannot parse y from 'x'"),
        (None, "cannot parse y from None"),
        ("1/0", "cannot parse y from '1/0'"),
        (0.5, "y must be exact (int, Fraction or 'a/b' string), not float"),
        (True, "y must be exact (int, Fraction or 'a/b' string), not bool"),
    ],
)
def test_fubini_names_a_bad_y(y, message):
    ms = moments(poisson(1), 3)
    for call in (lambda: prob_fubini_series(ms, 1, y, 3), lambda: prob_fubini(ms, 1, y, 2, 3)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_entry_range_checks():
    ms = moments(point(1), 4)
    with pytest.raises(ValueError):
        prob_stirling2(ms, 5, 1, 4)
    with pytest.raises(ValueError):
        prob_multi_lah(ms, (1,), 6, 5)


@pytest.mark.parametrize("k", [-1, True, 1.5, "2"], ids=repr)
def test_single_index_families_name_a_bad_k(k):
    ms = moments(poisson(1), 3)
    message = f"k must be a non-negative integer, got {k!r}"
    for call in (prob_stirling2, prob_lah):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ms, 2, k, 3)
    for call in (prob_stirling2_series, prob_lah_series):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ms, k, 3)


@pytest.mark.parametrize("order", [-1, True], ids=repr)
def test_family_series_refuse_an_order_that_is_not_a_natural_number(order):
    ms = moments(poisson(1), 3)
    builders = (
        lambda: prob_fubini_series(ms, 1, 1, order),
        lambda: prob_stirling2_series(ms, 1, order),
        lambda: prob_lah_series(ms, 1, order),
        lambda: prob_multi_stirling2_series(ms, (1, 2), order),
        lambda: prob_multi_lah_series(ms, (1, 2), order),
    )
    for build in builders:
        with pytest.raises(ValueError, match="truncation order must be a non-negative integer"):
            build()


def test_powers_past_the_order_make_no_product_run(monkeypatch):
    # (u - 1)^k vanishes mod t^(N+1) for k > N; M^j is read by squaring
    ms = moments(poisson(1), 3)
    mgf(ms, 3), resolvent(ms, 3)
    products = []
    product = series._product

    def counted(a, b):
        products.append(1)
        return product(a, b)

    monkeypatch.setattr(series, "_product", counted)
    assert prob_stirling2_series(ms, 5000, 3) == Series.zero(3)
    assert prob_lah_series(ms, 5000, 3) == Series.zero(3)
    assert not products
    assert sum_power_moment(ms, 5000, 3) == 5000 + 3 * 5000**2 + 5000**3
    assert 0 < len(products) <= 26


# ------------------------------------------------------- shared entries


@pytest.mark.parametrize("ks", [(1, 2), (2, -1), (1, 1), (0,), (3, 0, -2)], ids=str)
def test_point_one_multi_second_kind_equals_the_deterministic_series(ks):
    # M of point(1) is e^t: the composition at M and the Stirling transforms
    # of the deterministic family are two routes to one series
    for order in (0, 1, 2, 5, 10, 17):
        ms = moments(point(1), order)
        assert prob_multi_stirling2_series(ms, ks, order) == multi_stirling2_series(ks, order)


@pytest.mark.parametrize(
    "specs",
    [
        (point(1), bernoulli(1), binomial(1, 1)),
        (bernoulli(F(1, 2)), binomial(1, F(1, 2))),
    ],
    ids=lambda specs: ",".join(s.label for s in specs),
)
def test_specs_with_equal_moments_share_the_family_entries(specs):
    first, *rest = [moments(spec, 10) for spec in specs]
    for ms in rest:
        for u in (mgf, resolvent):
            assert _power_triangle(u(ms, 10)) is _power_triangle(u(first, 10))
            assert _li_family((2, -1), u(ms, 10)) is _li_family((2, -1), u(first, 10))
            gap = _less_one(u(first, 10))
            assert _less_one(u(ms, 10)) is gap and _power_memo(gap) is _power_memo(u(ms, 10) - 1)
        for k in range(12):
            assert prob_lah_series(ms, k, 10) == prob_lah_series(first, k, 10)
            assert prob_stirling2_series(ms, k, 10) == prob_stirling2_series(first, k, 10)
        assert prob_multi_lah_series(ms, (2, -1), 10) is prob_multi_lah_series(first, (2, -1), 10)
        assert prob_multi_stirling2_series(ms, (1,), 10) is prob_multi_stirling2_series(
            first, (1,), 10
        )


def test_point_bernoulli_and_binomial_at_one_read_one_triangle_and_one_memo():
    # one u - 1, one memo of its powers and one triangle per moment series,
    # whichever of the three specs asks
    for cached in (_less_one, _power_triangle, _li_family, _power_memo):
        cached.cache_clear()
    for spec in (point(1), bernoulli(1), binomial(1, 1)):
        ms = moments(spec, 10)
        for entry in (prob_stirling2, prob_lah):
            entry(ms, 7, 3, 10)
        for entry in (prob_multi_stirling2, prob_multi_lah):
            entry(ms, (1, 2), 7, 10)
    for cached in (_less_one, _power_triangle, _power_memo):
        assert (cached.cache_info().misses, cached.cache_info().currsize) == (2, 2)
    assert _li_family.cache_info().misses == 2


def test_point_bernoulli_and_binomial_at_one_share_one_fubini_series():
    # the Fubini series is keyed on M, so laws whose moments agree up to the
    # order share its entry, however many moments each sequence holds
    probabilistic._fubini_series.cache_clear()
    values = {prob_fubini_series(moments(spec, top), 2, F(1, 2), 8)
              for spec, top in ((point(1), 8), (bernoulli(1), 10), (binomial(1, 1), 12))}
    assert len(values) == 1
    assert probabilistic._fubini_series.cache_info().currsize == 1


# the seven laws of the default grid and a raw law of mixed signs, with
# moments to order 12, for the oracles of the carried forms
ORACLE_LAWS = [
    *dict.fromkeys(spec for spec, _ in identities.default_grid()),
    raw_moments([1] + [F((-1) ** n * (n + 2), n + 3) for n in range(1, 13)]),
]


@pytest.mark.parametrize("spec", ORACLE_LAWS, ids=lambda spec: spec.label)
def test_fubini_series_is_the_inverse_of_the_power_at_every_r_and_y(spec):
    # (1 - y (M - 1))^(-r), formed as power r of one inverse per (M, y),
    # equals the inverse of power r, at every order to 12
    ms = moments(spec, 12)
    for order in range(13):
        u = mgf(ms, order)
        for y in (0, 1, F(1, 2), -2):
            for r in range(1, 6):
                assert probabilistic._fubini_series(u, r, series._rational(y)) == (
                    fubini_by_inverted_power(ms, r, y, order)
                )


@pytest.mark.parametrize("spec", ORACLE_LAWS, ids=lambda spec: spec.label)
def test_moment_route_matches_the_comb_weighted_oracle(spec):
    # the carried weights give the same integers over the same denominator
    # as C(k, j) (-1)^(k-j) order!/k! D^(order-j) formed for each (k, j),
    # read from a moment sequence at the route's order and from a longer one
    for order in range(13):
        for ms in (moments(spec, order), moments(spec, 12)):
            assert probabilistic._moment_route_columns(ms, order) == (
                moment_route_by_comb(ms, order)
            )


def test_only_mgf_and_resolvent_key_a_cache_on_a_moment_sequence():
    # a law becomes its series once; every cache below reads the series
    keyed = set()
    for path in sorted(Path(multinumbers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not any("lru_cache" in ast.unparse(d) for d in node.decorator_list):
                continue
            for arg in node.args.args:
                if arg.annotation and re.search(r"\bMomentSequence\b", ast.unparse(arg.annotation)):
                    keyed.add((path.stem, node.name))
    assert keyed == {("moments", "_mgf"), ("moments", "_resolvent")}


# ------------------------------------------------------- whole-column oracle


def _exp_t(m):
    return [F(1, factorial(n)) for n in range(m + 1)]


def _mgf(spec):
    return lambda m: [mu / factorial(n) for n, mu in enumerate(fraction_moments(spec, m))]


def _resolvent(spec):
    return lambda m: rising_factorial_resolvent(SimpleNamespace(mu=fraction_moments(spec, m)), m)


# laws with non-integer parameters or values, and one with mean zero
TRIANGLE_LAWS = [
    poisson(F(1, 2)),
    geometric(F(3, 4)),
    binomial(3, F(1, 3)),
    finite([(F(-1, 2), F(1, 3)), (F(3, 2), F(2, 3))]),
    MEAN_ZERO,
]


@pytest.mark.parametrize("order", [0, 1, 7, 20])
@pytest.mark.parametrize("base", ["M", "R"])
@pytest.mark.parametrize("spec", TRIANGLE_LAWS, ids=lambda s: s.label)
def test_power_triangle_is_the_fraction_powers_of_u_minus_one(spec, base, order):
    ms = moments(spec, order)
    if base == "M":
        u, oracle = mgf(ms, order), _mgf(spec)
    else:
        u, oracle = resolvent(ms, order), _resolvent(spec)
    columns, d = _power_triangle(u)
    assert d > 0 and len(columns) == order + 1
    assert gcd(d, *[x for column in columns for x in column]) == 1
    gap = oracle(order)
    gap[0] -= 1
    power = [F(1)] + [F(0)] * order  # (u - 1)^k in Fractions
    for k, column in enumerate(columns):
        assert len(column) == order + 1
        assert not any(column[:k])  # zero above the diagonal
        egf = [factorial(n) * c / factorial(k) for n, c in enumerate(power)]
        assert [F(x, d) for x in column] == egf
        power = series_product(power, gap)


@pytest.mark.parametrize("base", [mgf, resolvent], ids=["M", "R"])
def test_power_triangle_builds_no_series_once_the_powers_are_kept(base, monkeypatch):
    # the triangle is read off the memo of powers of u - 1 in integers, and
    # u - 1, the key of that memo, is kept per u: once the powers are kept
    # it makes no series, and no column is made into a series or read back
    # as an EGF column
    u = base(moments(poisson(F(1, 2)), 20), 20)
    gap = u - 1
    powers(gap, 20)
    expected = _power_triangle.__wrapped__(u)
    made, columns = [], []
    make, egf_column = series._make, Series.egf_column

    def counted_make(*args):
        made.append(make(*args))
        return made[-1]

    def counted_column(self):
        columns.append(self)
        return egf_column.fget(self)

    for module in (series, probabilistic):
        if vars(module).get("_make") is make:
            monkeypatch.setattr(module, "_make", counted_make)
    monkeypatch.setattr(Series, "egf_column", property(counted_column))
    got = _power_triangle.__wrapped__(u)
    monkeypatch.undo()
    assert got == expected
    assert made == [] and columns == []


# every law has a nonzero mean, which the oracle's divisions by g' and g/t need
ORACLE_LAWS = [
    poisson(F(1, 3)),
    poisson(2),
    geometric(F(1, 2)),
    geometric(F(3, 4)),
    binomial(3, F(1, 3)),
    binomial(2, F(2, 5)),
    finite([(F(-1, 2), F(1, 3)), (F(3, 2), F(2, 3))]),
]


def _li_family_pair(base, spec, ks, order):
    """The library series and the oracle column of Li_ks(1 - e^(1 - u))."""
    if base == "e^t":
        return multi_stirling2_series(ks, order), li_family(ks, _exp_t, order)
    ms = moments(spec, order)
    if base == "M":
        return prob_multi_stirling2_series(ms, ks, order), li_family(ks, _mgf(spec), order)
    return prob_multi_lah_series(ms, ks, order), li_family(ks, _resolvent(spec), order)


@given(
    st.sampled_from(["e^t", "M", "R"]),
    st.sampled_from(ORACLE_LAWS),
    st.lists(st.integers(-2, 3), min_size=1, max_size=3).map(tuple),
    st.integers(0, 12),
)
@settings(max_examples=80, deadline=None)
def test_li_families_equal_the_derivative_rule_oracle(base, spec, ks, order):
    series, column = _li_family_pair(base, spec, ks, order)
    assert list(series.coeffs) == column


@pytest.mark.parametrize(
    "ks", [(1,), (2,), (1, 2), (2, 1, 3), (0,), (1, -1), (2, 0, 1), (-2, 1)], ids=str
)
@pytest.mark.parametrize("base,spec", [("e^t", None), ("R", poisson(F(1, 3)))], ids=str)
def test_li_families_equal_the_derivative_rule_oracle_at_order_14(base, spec, ks):
    series, column = _li_family_pair(base, spec, ks, 14)
    assert list(series.coeffs) == column


@pytest.mark.parametrize("ks", [(2, -1, 0), (3, 1)], ids=str)
@pytest.mark.parametrize(
    "spec",
    [poisson(F(1, 2)), finite([(-4, F(1, 2)), (0, F(1, 3)), (F(5, 2), F(1, 6))])],
    ids=lambda spec: spec.label,
)
def test_multi_families_equal_the_composition_with_li_argument_at_order_40(spec, ks):
    # F_ks(u - 1) against the defining composition Li_ks(1 - e^(1 - u))
    ms = moments(spec, 40)
    for family, u in ((prob_multi_stirling2_series, mgf), (prob_multi_lah_series, resolvent)):
        assert family(ms, ks, 40) == multilog(ks, 40).compose(li_argument(u(ms, 40)))


def test_only_multi_and_identities_name_li_argument():
    # the families are built from the F_ks column; 1 - e^(1 - u) is left
    # to the direct sides of the identity checks
    readers = []
    for path in sorted(Path(multinumbers.__file__).parent.glob("*.py")):
        if path.stem in ("multi", "identities"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                readers += [path.name for a in node.names if a.name == "li_argument"]
            elif isinstance(node, ast.Name) and node.id == "li_argument":
                readers.append(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "li_argument":
                readers.append(path.name)
    assert readers == []


# ------------------------------------------------------- argument types
# each public entry that reads a moment sequence, an index tuple or both:
# a call on (ms, ks) at order 3 and the arguments it reads
TYPED_ENTRIES = {
    "mgf": (lambda ms, ks: mgf(ms, 3), "ms"),
    "resolvent": (lambda ms, ks: resolvent(ms, 3), "ms"),
    "sum_power_moment": (lambda ms, ks: sum_power_moment(ms, 2, 3), "ms"),
    "prob_stirling2": (lambda ms, ks: prob_stirling2(ms, 3, 1), "ms"),
    "prob_stirling2_series": (lambda ms, ks: prob_stirling2_series(ms, 1, 3), "ms"),
    "prob_stirling2_by_moments": (lambda ms, ks: prob_stirling2_by_moments(ms, 3, 1), "ms"),
    "prob_lah": (lambda ms, ks: prob_lah(ms, 3, 1), "ms"),
    "prob_lah_series": (lambda ms, ks: prob_lah_series(ms, 1, 3), "ms"),
    "prob_fubini": (lambda ms, ks: prob_fubini(ms, 2, 1, 3), "ms"),
    "prob_fubini_series": (lambda ms, ks: prob_fubini_series(ms, 2, 1, 3), "ms"),
    "prob_multi_stirling2": (lambda ms, ks: prob_multi_stirling2(ms, ks, 3), "ms ks"),
    "prob_multi_stirling2_series": (
        lambda ms, ks: prob_multi_stirling2_series(ms, ks, 3), "ms ks"
    ),
    "prob_multi_lah": (lambda ms, ks: prob_multi_lah(ms, ks, 3), "ms ks"),
    "prob_multi_lah_series": (lambda ms, ks: prob_multi_lah_series(ms, ks, 3), "ms ks"),
    "index_tuple": (lambda ms, ks: multinumbers.index_tuple(ks), "ks"),
    "multilog": (lambda ms, ks: multilog(ks, 3), "ks"),
    "multi_stirling1": (lambda ms, ks: multi_stirling1(ks, 3), "ks"),
    **{
        name: (lambda ms, ks, f=getattr(multi, name): f(ks, 3), "ks")
        for name in (
            "multi_stirling2", "multi_stirling2_series", "multi_bernoulli",
            "multi_bernoulli_series", "multi_lah", "multi_lah_series",
        )
    },
    "check_derivative_rules": (lambda ms, ks: identities.check_derivative_rules(ks, 3), "ks"),
    "check_append_one": (
        lambda ms, ks: identities.check_append_one(ms, ks, 3), "ms ks_prefix"
    ),
    "check_append_one_deterministic": (
        lambda ms, ks: identities.check_append_one_deterministic(ks, 3), "ks_prefix"
    ),
    **{
        name: (lambda ms, ks, f=getattr(identities, name): f(ms, ks, 3), "ms ks")
        for name in (
            "check_bernoulli_convolution", "check_first_kind_inversion",
            "check_lah_via_first_kind", "check_bernoulli_expansion",
            "check_fubini_convolution",
        )
    },
    "check_bernoulli_expansion_single_index": (
        lambda ms, ks: identities.check_bernoulli_expansion_single_index(ms, 2, 3), "ms"
    ),
    "check_route_agreement": (lambda ms, ks: identities.check_route_agreement(ms, 3), "ms"),
    "check_all_ones_probabilistic": (
        lambda ms, ks: identities.check_all_ones_probabilistic(ms, 2, 3), "ms"
    ),
    "check_point_mass_collapse_multi": (
        lambda ms, ks: identities.check_point_mass_collapse_multi(ks, 3), "ks"
    ),
}


@pytest.mark.parametrize("name", list(TYPED_ENTRIES))
def test_entries_refuse_a_wrong_typed_moment_sequence_or_index_tuple(name):
    # a tuple or None in place of the moments is a TypeError that names
    # MomentSequence (an unhashable one is the TypeError of the cache it
    # reaches first, if any), and an index tuple that is no iterable is the
    # ValueError of a bad entry, a None prefix of append-one too; the table
    # holds every public function with an ``ms``, ``ks`` or ``ks_prefix``
    # argument
    public = [getattr(multinumbers, n) for n in multinumbers.__all__]
    public += [getattr(identities, n) for n in identities.__all__]
    typed = {
        f.__name__: {"ms", "ks", "ks_prefix"} & set(inspect.signature(f).parameters)
        for f in public
        if inspect.isfunction(f)
    }
    assert {n: set(reads.split()) for n, (_, reads) in TYPED_ENTRIES.items()} == {
        n: reads for n, reads in typed.items() if reads
    }
    call, reads = TYPED_ENTRIES[name]
    reads = set(reads.split())
    ms = moments(poisson(1), 3)
    call(ms, (1, 2))
    if "ms" in reads:
        for bad in ((1, 2), None):
            message = f"moments must be a MomentSequence, got {type(bad).__name__}"
            with pytest.raises(TypeError, match=f"^{message}$"):
                call(bad, (1, 2))
        with pytest.raises(TypeError):
            call([1, 2], (1, 2))
    if "ks" in reads:
        message = "index tuple must be an iterable of integers, got 5"
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(ms, 5)
    if "ks_prefix" in reads:
        for bad in (5, None):
            message = f"index tuple must be an iterable of integers, got {bad}"
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(ms, bad)
