import ast
import contextlib
import copy
import inspect
import pickle
import re
import sys
from collections import Counter
from fnmatch import fnmatch
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multinumbers import classical, identities, probabilistic, series
from multinumbers.classical import _FIRST, _SECOND, _columns, stirling1, stirling2
from multinumbers.identities import (
    ALL_IDENTITIES,
    IDENTITIES,
    _append_one_sides,
    _bernoulli_expansion_weights,
    _binomial_sums,
    _single_index_expansion_weights,
    _single_index_sides,
    _triangle_sums,
    check_all_ones_deterministic,
    check_all_ones_probabilistic,
    check_append_one,
    check_append_one_deterministic,
    check_bernoulli_convolution,
    check_bernoulli_expansion,
    check_bernoulli_expansion_single_index,
    check_derivative_rules,
    check_fubini_convolution,
    check_first_kind_inversion,
    check_lah_via_first_kind,
    check_point_mass_collapse_classical,
    check_point_mass_collapse_multi,
    check_route_agreement,
    default_grid,
    run_full_suite,
)
from multinumbers.moments import (
    bernoulli,
    finite,
    geometric,
    mgf,
    moments,
    parse_distribution,
    point,
    poisson,
    resolvent,
)
from multinumbers.multi import (
    _stirling2_series,
    li_argument,
    multi_bernoulli_series,
    multi_stirling2_series,
)
from multinumbers.multilog import _f_series, _multilog, index_tuple
from multinumbers.probabilistic import (
    _li_family,
    _moment_route_columns,
    _power_triangle,
    prob_multi_stirling2,
    prob_multi_stirling2_series,
    prob_stirling2,
)
from multinumbers.report import Mismatch, VerificationReport
from multinumbers.series import Series
from oracles import (
    append_one_classical_sums,
    append_one_deterministic_sums,
    append_one_single_index_sums,
    append_one_sums,
    bernoulli_convolution_sum,
    bernoulli_expansion_single_index_sum,
    bernoulli_expansion_sum,
    first_kind_inversion_sum,
    fraction_moments,
    fubini_sums,
    lah_sums,
    moment_route,
    rising_factorial_resolvent,
    series_compose,
    series_exp,
    series_product,
)

F = Fraction

MEAN_ZERO = finite([(-1, F(1, 2)), (1, F(1, 2))])

SAMPLE_CELLS = [
    (point(1), (1, 1)),
    (bernoulli(F(1, 2)), (1, 2)),
    (poisson(1), (2,)),
    (MEAN_ZERO, (2, 1)),
]


@pytest.mark.parametrize("spec,ks", SAMPLE_CELLS, ids=lambda v: str(v))
def test_append_one_passes(spec, ks):
    ms = moments(spec, 10)
    assert check_append_one(ms, ks, 10, spec.label).status == "pass"


GRID_LAWS = list(dict.fromkeys(spec for spec, _ in default_grid()))


def test_append_one_empty_prefix():
    # the prefix () reads the delta column from the cores themselves
    for order in range(13):
        assert check_append_one_deterministic((), order).status == "pass"
        assert check_derivative_rules((1,), order).status == "pass"
        for spec in GRID_LAWS:
            assert check_append_one(moments(spec, order), (), order).status == "pass"


def test_the_cores_take_the_empty_tuple():
    for order in range(13):
        delta = ((1,) + (0,) * order, 1)
        assert _multilog((), order) == Series.one(order)
        assert _stirling2_series((), order).egf_column == delta
        for spec in GRID_LAWS:
            ms = moments(spec, order)
            for u in (mgf(ms, order), resolvent(ms, order)):
                assert _li_family((), u).egf_column == delta


@pytest.mark.parametrize("spec,ks", SAMPLE_CELLS[:3], ids=lambda v: str(v))
def test_bernoulli_convolution_passes(spec, ks):
    ms = moments(spec, 10)
    assert check_bernoulli_convolution(ms, ks, 10, spec.label).status == "pass"


def test_bernoulli_convolution_passes_on_zero_mean():
    # h = 1 - e^(1 - M) then starts at t^2, so Li_ks(h) / h^r is no power
    # series; the product form compared holds all the same
    ms = moments(MEAN_ZERO, 8)
    report = check_bernoulli_convolution(ms, (1, 2), 8, MEAN_ZERO.label)
    assert (report.status, report.first_mismatch, report.detail) == ("pass", None, "")


# laws with E[Y] = 0, the point mass at 0 among them (M = 1, h = 0)
MEAN_ZERO_LAWS = ["point:0", "finite:-1=1/2;1=1/2", "finite:-2=1/3;1=2/3", "finite:-4=1/2;0=1/4;8=1/4"]


@pytest.mark.parametrize("law", MEAN_ZERO_LAWS)
def test_bernoulli_convolution_holds_at_zero_mean_on_every_default_tuple(law):
    spec = parse_distribution(law)
    for order in range(21):
        ms = moments(spec, order)
        assert ms.order == 0 or ms.column[0][1] == 0
        for ks in dict.fromkeys(ks for _, ks in default_grid()):
            report = check_bernoulli_convolution(ms, ks, order, law)
            assert (report.status, report.first_mismatch) == ("pass", None), report


@pytest.mark.parametrize("spec", [poisson(1), MEAN_ZERO], ids=str)
def test_bernoulli_convolution_at_order_zero_compares_nothing(spec):
    # at order 0 the moments stop at mu_0 and the range r..0 is empty
    ms = moments(spec, 0)
    report = check_bernoulli_convolution(ms, (1, 2), 0, spec.label)
    assert (report.status, report.order, report.first_mismatch) == ("pass", 0, None)


def test_bernoulli_convolution_at_zero_mean_below_r_compares_nothing():
    report = check_bernoulli_convolution(moments(MEAN_ZERO, 1), (1, 2), 1, MEAN_ZERO.label)
    assert (report.status, report.first_mismatch) == ("pass", None)


@pytest.mark.parametrize("spec,ks", SAMPLE_CELLS, ids=lambda v: str(v))
def test_first_kind_inversion_passes(spec, ks):
    ms = moments(spec, 9)
    assert check_first_kind_inversion(ms, ks, 9, spec.label).status == "pass"


def test_lah_via_first_kind_reports_both_forms():
    ms = moments(point(1), 10)
    corrected, literal = check_lah_via_first_kind(ms, (1, 1), 10, "point:1")
    assert corrected.identity == "lah-via-first-kind-corrected"
    assert corrected.status == "pass"
    assert literal.identity == "lah-via-first-kind-literal"
    assert literal.status == "expected-discrepancy"
    assert literal.first_mismatch == (3, F(6), F(12))


@pytest.mark.parametrize("spec,ks", SAMPLE_CELLS, ids=lambda v: str(v))
def test_lah_corrected_form_always_passes(spec, ks):
    ms = moments(spec, 9)
    corrected, _ = check_lah_via_first_kind(ms, ks, 9, spec.label)
    assert corrected.status == "pass"


@pytest.fixture
def corrupt_first_kind_row():
    """Row 5 of the memoised first-kind triangle with [5; 2] off by one for
    the test; the rows past it are filled first, so none is built from the
    wrong row, and every cache is cleared on the way in and out."""
    rows = classical._ROWS[_FIRST]
    classical._row(_FIRST, 64)
    kept = rows[5]
    rows[5] = kept[:2] + (kept[2] + 1,) + kept[3:]
    clear_library_caches()
    yield
    rows[5] = kept
    clear_library_caches()


def test_resolvent_does_not_read_the_first_kind_rows(corrupt_first_kind_row):
    # R is the first-kind transform of the moments; the check side reads
    # the rows, so a wrong row fails the corrected sum and leaves R alone
    ms = moments(poisson(F(5, 11)), 12)
    resolvent_core = sys.modules["multinumbers.moments"]._resolvent.__wrapped__
    assert list(resolvent_core(ms, 12).coeffs) == rising_factorial_resolvent(ms, 12)
    corrected, _ = check_lah_via_first_kind(ms, (1, 2), 12)
    assert (corrected.identity, corrected.status) == ("lah-via-first-kind-corrected", "fail")
    assert corrected.first_mismatch.n == 5


@pytest.mark.parametrize("spec,ks", SAMPLE_CELLS, ids=lambda v: str(v))
def test_bernoulli_expansion_both_forms_pass(spec, ks):
    ms = moments(spec, 10)
    general = check_bernoulli_expansion(ms, ks, 10, spec.label)
    single = check_bernoulli_expansion_single_index(ms, len(ks), 10, spec.label)
    assert general.status == "pass"
    assert single.status == "pass"


@pytest.mark.parametrize("spec,ks", SAMPLE_CELLS, ids=lambda v: str(v))
def test_fubini_convolution_passes(spec, ks):
    ms = moments(spec, 9)
    assert check_fubini_convolution(ms, ks, 9, spec.label).status == "pass"


def test_route_agreement_passes():
    for spec in (point(2), poisson(1), MEAN_ZERO):
        ms = moments(spec, 8)
        assert check_route_agreement(ms, 8, spec.label).status == "pass"


def test_point_mass_multi_lah_discrepancy_is_expected():
    second, lah_rep = check_point_mass_collapse_multi((2,), 8)
    assert second.status == "pass"
    assert lah_rep.status == "expected-discrepancy"
    assert lah_rep.first_mismatch == (3, F(19, 6), F(14, 3))
    # all-ones tuples do collapse
    second_ones, lah_ones = check_point_mass_collapse_multi((1, 1), 8)
    assert second_ones.status == "pass"
    assert lah_ones.status == "pass"


def test_empty_grid_yields_no_reports():
    assert run_full_suite(grid=[], order=8) == []


@pytest.mark.parametrize("order", [-1, "x", True], ids=repr)
@pytest.mark.parametrize("grid", [[], [(point(1), (1,))]], ids=["empty grid", "one cell"])
def test_suite_refuses_an_order_that_is_not_a_natural_number(grid, order):
    message = f"truncation order must be a non-negative integer, got {order!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_full_suite(grid=grid, order=order)


_MS = moments(poisson(1), 4)
_PUBLIC_CHECKS = {
    "check_derivative_rules": lambda order: check_derivative_rules((1, 2), order),
    "check_append_one_deterministic": lambda order: check_append_one_deterministic((1,), order),
    "check_append_one": lambda order: check_append_one(_MS, (1,), order),
    "check_bernoulli_convolution": lambda order: check_bernoulli_convolution(_MS, (1,), order),
    "check_first_kind_inversion": lambda order: check_first_kind_inversion(_MS, (1, 2), order),
    "check_lah_via_first_kind": lambda order: check_lah_via_first_kind(_MS, (1, 2), order),
    "check_bernoulli_expansion": lambda order: check_bernoulli_expansion(_MS, (1, 2), order),
    "check_bernoulli_expansion_single_index": lambda order: (
        check_bernoulli_expansion_single_index(_MS, 2, order)
    ),
    "check_fubini_convolution": lambda order: check_fubini_convolution(_MS, (1, 2), order),
    "check_route_agreement": lambda order: check_route_agreement(_MS, order),
    "check_all_ones_deterministic": lambda order: check_all_ones_deterministic(2, order),
    "check_all_ones_probabilistic": lambda order: check_all_ones_probabilistic(_MS, 2, order),
    "check_point_mass_collapse_classical": check_point_mass_collapse_classical,
    "check_point_mass_collapse_multi": lambda order: check_point_mass_collapse_multi((1, 2), order),
}


def test_every_public_check_is_probed_for_its_order():
    assert sorted(_PUBLIC_CHECKS) == sorted(n for n in dir(identities) if n.startswith("check_"))


@pytest.mark.parametrize("order", [True, -1, 2.0, 0.0, [3]], ids=repr)
@pytest.mark.parametrize("name", sorted(_PUBLIC_CHECKS))
def test_public_checks_refuse_an_order_that_is_not_a_natural_number(name, order):
    # no cache is typed, so with its order-1 entries cached True would read
    # them if the order were not checked first; an unhashable order would
    # reach a cache as a TypeError
    _PUBLIC_CHECKS[name](1)
    message = f"truncation order must be a non-negative integer, got {order!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _PUBLIC_CHECKS[name](order)


_R_CHECKS = {
    "check_all_ones_deterministic": lambda r: check_all_ones_deterministic(r, 6),
    "check_all_ones_probabilistic": lambda r: check_all_ones_probabilistic(_MS, r, 4),
    "check_bernoulli_expansion_single_index": lambda r: (
        check_bernoulli_expansion_single_index(_MS, r, 4)
    ),
}


@pytest.mark.parametrize("r", [True, 0, -1, 2.0], ids=repr)
@pytest.mark.parametrize("name", sorted(_R_CHECKS))
def test_single_index_checks_refuse_an_r_that_is_not_a_positive_integer(name, r):
    message = f"r must be a positive integer, got {r!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _R_CHECKS[name](r)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        run_full_suite(grid=[(point(1), (1,))], order=6, identities=["no-such-check"])


@pytest.mark.parametrize("grid", [[], [(point(1), (1,))]], ids=["empty grid", "one cell"])
def test_a_single_identity_string_is_refused_not_split_into_characters(grid):
    with pytest.raises(ValueError, match="^identities must be a collection of identity ids, "):
        run_full_suite(grid=grid, order=6, identities="append-one")
    assert run_full_suite(grid=grid, order=6, identities=["append-one"]) == run_full_suite(
        grid=grid, order=6, identities=("append-one",)
    )


def test_identity_filter_restricts_output():
    grid = [(point(1), (1,)), (poisson(1), (1, 2))]
    reports = run_full_suite(grid=grid, order=8, identities=["fubini-convolution"])
    assert reports
    assert {r.identity for r in reports} == {"fubini-convolution"}


def test_suite_is_deterministic():
    grid = [(bernoulli(F(1, 2)), (1, 2)), (point(1), (2,))]
    first = run_full_suite(grid=grid, order=8)
    second = run_full_suite(grid=grid, order=8)
    assert first == second
    order_keys = [(r.identity, r.ks or (), r.dist or "") for r in first]
    assert order_keys == sorted(order_keys)


def test_suite_makes_no_call_per_report_outside_its_checks(call_count, monkeypatch):
    # the suite looks each check up as an attribute of its module, so every
    # check is stubbed there by one that returns prebuilt reports: the calls
    # made outside the stubs do not grow with the reports each returns
    grid = default_grid()
    counts = []
    for copies in (1, 1, 4):
        for entry in IDENTITIES:
            made = [VerificationReport(entry.id, 2, (1, 2), "poisson:1")] * copies
            monkeypatch.setattr(identities, entry.check, lambda *args, made=made: made)
        counts.append(call_count(run_full_suite, grid, 2))
    # the first run fills the moment caches the later ones read
    assert counts[1] == counts[2]


def test_suite_statuses_confined_to_documented_set():
    grid = [(MEAN_ZERO, (2,)), (point(1), (1, 1))]
    reports = run_full_suite(grid=grid, order=8)
    assert reports
    statuses = {rep.status for rep in reports}
    assert statuses <= {"pass", "fail", "expected-discrepancy"}
    # nothing fails, the mean-zero cell of bernoulli-convolution included
    assert "fail" not in statuses
    assert [r.status for r in reports if r.identity == "bernoulli-convolution"] == ["pass"] * 2


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 56
    assert len({spec.label for spec, _ in grid}) == 7
    assert len({ks for _, ks in grid}) == 8
    assert all(moments(spec, 1).moment(1) != 0 for spec, _ in grid)


def test_all_identities_are_covered_by_default_run():
    reports = run_full_suite(order=6)
    assert {r.identity for r in reports} == set(ALL_IDENTITIES)


# ---------------------------------------------------------------- registry


def test_registry_ids_are_unique_and_in_registry_order():
    ids = [entry.id for entry in IDENTITIES]
    assert len(set(ids)) == len(ids) == 22
    assert ALL_IDENTITIES == tuple(ids)


def test_registry_checks_are_public_functions_with_known_scopes():
    for entry in IDENTITIES:
        assert entry.check in identities.__all__
        assert callable(getattr(identities, entry.check))
        assert entry.scope in (
            "tuple", "r", "global", "distribution", "distribution-r", "cell-r", "cell"
        )


# the check functions the benchmark tracer reports by name (bench/run.py
# IDENTITY_CHECKS), plus the single-index Bernoulli expansion; a rename or a
# move out of this module would silently zero their traced times
TRACED_CHECKS = (
    "check_derivative_rules",
    "check_append_one_deterministic",
    "check_append_one",
    "check_bernoulli_convolution",
    "check_first_kind_inversion",
    "check_lah_via_first_kind",
    "check_bernoulli_expansion",
    "check_fubini_convolution",
    "check_route_agreement",
    "check_all_ones_deterministic",
    "check_all_ones_probabilistic",
    "check_point_mass_collapse_classical",
    "check_point_mass_collapse_multi",
    "check_bernoulli_expansion_single_index",
)


@pytest.mark.parametrize("name", TRACED_CHECKS)
def test_traced_checks_stay_public_in_identities(name):
    assert name in identities.__all__
    assert callable(getattr(identities, name))


def test_suite_calls_checks_through_the_module_attribute(monkeypatch):
    calls = []
    original = identities.check_derivative_rules

    def wrapped(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(identities, "check_derivative_rules", wrapped)
    grid = [(point(1), (1, 2)), (poisson(1), (1, 2)), (poisson(1), (2,))]
    reports = run_full_suite(grid=grid, order=5, identities=["derivative-rules"])
    assert calls == [((1, 2), 5), ((2,), 5)]
    assert [r.ks for r in reports] == [(1, 2), (2,)]


def test_only_flagged_identities_report_expected_discrepancies():
    flagged = {entry.id for entry in IDENTITIES if entry.expected}
    assert flagged == {"lah-via-first-kind-literal", "point-mass-collapse-multi-lah"}
    reports = run_full_suite(order=8)
    assert {r.identity for r in reports if r.status == "expected-discrepancy"} == flagged


SHARED_CHECK_IDS = [
    entry.id
    for entry in IDENTITIES
    if sum(other.check == entry.check for other in IDENTITIES) > 1
]


@pytest.mark.parametrize("identity", SHARED_CHECK_IDS)
def test_filter_on_one_id_of_a_shared_check_returns_only_that_id(identity):
    grid = [(point(1), (1, 2)), (poisson(1), (2,))]
    reports = run_full_suite(grid=grid, order=5, identities=[identity])
    assert reports
    assert {r.identity for r in reports} == {identity}


def test_scopes_over_an_irregular_grid():
    # not a product grid: all-ones-prob-* pairs every distribution with every
    # tuple length, the single-index expansion only the pairs of grid cells
    grid = [(poisson(1), (1,)), (point(2), (1, 2)), (poisson(1), (1,))]
    reports = run_full_suite(grid=grid, order=5)

    def keys(identity):
        return sorted((r.dist, r.ks) for r in reports if r.identity == identity)

    assert keys("all-ones-prob-lah") == [
        ("point:2", (1,)), ("point:2", (1, 1)), ("poisson:1", (1,)), ("poisson:1", (1, 1))
    ]
    assert keys("bernoulli-expansion-single-index") == [
        ("point:2", (1, 1)), ("poisson:1", (1,))
    ]
    assert keys("append-one") == [("point:2", (1, 2)), ("poisson:1", (1,))]
    assert keys("second-kind-route-agreement") == [("point:2", None), ("poisson:1", None)]
    assert keys("all-ones-lah") == [(None, (1,)), (None, (1, 1))]
    assert keys("point-mass-collapse-lah") == [("point:1", None)]
    assert keys("derivative-rules") == [(None, (1,)), (None, (1, 2))]


# ---------------------------------------------------------------- integer sums


def values(column):
    """The rationals a[n] / d of an integer column ``(a, d)``."""
    nums, den = column
    return [Fraction(a, den) for a in nums]


@contextlib.contextmanager
def recorded_comparisons():
    """Record ``(identity, ks, comparisons)`` for every report the checks
    build while the block runs: the comparisons ``(lhs, rhs, ns, detail)``
    exactly as each check hands them to the runner."""
    verdict, seen = identities._verdict, []

    def recording(identity, order, comparisons, ks=None, dist=None):
        comparisons = list(comparisons)
        seen.append((identity, ks, comparisons))
        return verdict(identity, order, comparisons, ks, dist)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_verdict", recording)
        yield seen


def lah_sides(ms, ks, order):
    """The multi-Lah column and the corrected and literal first-kind sums
    that ``check_lah_via_first_kind`` compares it with."""
    with recorded_comparisons() as seen:
        check_lah_via_first_kind(ms, ks, order)
    (_, _, [(direct, corrected, _, _)]), (_, _, [(_, literal, _, _)]) = seen
    return direct, corrected, literal


def fubini_sides(ms, ks, order):
    """The two sides that ``check_fubini_convolution`` compares."""
    with recorded_comparisons() as seen:
        check_fubini_convolution(ms, ks, order)
    [(_, _, [(lhs, rhs, _, _)])] = seen
    return lhs, rhs


def egf_scaled(column):
    """The ordinary coefficients a[n] / n! of an EGF column."""
    return [Fraction(a, factorial(n)) for n, a in enumerate(column)]


def egf_unscaled(coeffs):
    """The EGF column n! c[n] of ordinary coefficients."""
    return [factorial(n) * c for n, c in enumerate(coeffs)]


small_ints = st.integers(min_value=-50, max_value=50)


def int_columns(count):
    """``count`` integer columns of one common length top + 1 (top >= 0),
    with top first."""
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda top: st.tuples(
            st.just(top), *[st.lists(small_ints, min_size=top + 1, max_size=top + 1)] * count
        )
    )


@given(int_columns(2))
@example((0, [3], [-5]))
@settings(max_examples=60, deadline=None)
def test_binomial_sums_are_the_egf_product(cell):
    top, a, b = cell
    want = egf_unscaled(series_product(egf_scaled(a), egf_scaled(b)))
    assert _binomial_sums(a, b, top) == want
    assert _binomial_sums(a, b, -1) == []


@given(int_columns(3), st.integers(0, 10), st.integers(1, 6), st.integers(1, 6))
@example((0, [2], [0], [7]), 1, 1, 1)
# a weight column shorter than the triangle, as the Bernoulli expansion
# weights are (length N - r + 1): the sums stop at its last row
@example((4, [1, 2, 0, -1, 3], [0, 1, 1, 0, 2], [1, -2, 3, 4, 5]), 3, 2, 3)
@settings(max_examples=60, deadline=None)
def test_triangle_sums_apply_an_exponential_riordan_array(cell, rows, d, dw):
    # the array with columns n! [t^n] g f^j / j! (f(0) = 0), integer for
    # integer EGF columns g and f, maps w to the EGF column of g * w(f); its
    # row n reads w_0..w_n alone, so a column cut to its first rows gives
    # the first rows of the sums, over the product of the two denominators
    top, g_col, f_col, w = cell
    g, f = egf_scaled(g_col), egf_scaled([0] + f_col[1:])
    columns, power = [], [Fraction(1)] + [Fraction(0)] * top
    for j in range(top + 1):
        column = egf_unscaled(series_product(g, power))
        assert all(c.denominator == 1 for c in column)
        columns.append([int(c) for c in column])
        power = [c / (j + 1) for c in series_product(power, f)]
    want = egf_unscaled(series_product(g, series_compose(egf_scaled(w), f)))
    assert _triangle_sums((columns, d), (w[:rows], dw)) == (want[:rows], d * dw)


def test_full_suite_reads_no_classical_entry():
    # the classical triangles are read as whole cached columns, never per term
    entries = {stirling1.__code__, stirling2.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in entries:
            calls.append(frame.f_code.co_name)

    clear_library_caches()
    sys.setprofile(profile)
    try:
        run_full_suite(order=12)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_full_suite_builds_no_series_from_a_column(monkeypatch):
    # F_ks is one cached series and the single-index sides are triangle
    # columns, so no column is turned back into a series
    source = probabilistic._from_egf_column
    calls = []

    def counted(*args):
        calls.append(args)
        return source(*args)

    clear_library_caches()
    monkeypatch.setattr(probabilistic, "_from_egf_column", counted)
    run_full_suite(order=12)
    assert calls == []


def test_moment_route_reads_only_the_moment_column():
    # second-kind-route-agreement compares the route with the (1, M - 1)
    # array; built from the moment column by binomial convolutions, the
    # route shares no kernel with that array, so a fault in M, in a memo of
    # powers or in the series products shows in the check; its binomials
    # are carried, so it names no ``comb``
    tree = ast.parse(inspect.getsource(probabilistic._moment_route_columns))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    shared = {"mgf", "resolvent", "powers", "Series", "_product", "_from_egf_column", "egf_column"}
    assert named and not named & (shared | {"comb"})


def test_suite_builds_one_moment_egf_and_one_memo_of_powers_per_inner_series():
    # the default grid has 7 laws: 7 M at the suite's order, and memos of
    # powers only for the inner series of a composition or triangle, u - 1
    # at the 7 M and 7 R and li_argument(M) at the 7 M; the moment route
    # builds no M at its own order and no memo of its powers.  The family
    # F_ks(u - 1) is composed once per (ks, u) it is read at, and the
    # Fubini series at r = 1, 2, 3 are powers of one inverse per M
    clear_library_caches()
    run_full_suite(order=12)
    assert sys.modules["multinumbers.moments"]._mgf.cache_info().misses == 7
    assert series._power_memo.cache_info().currsize == 21
    assert probabilistic._li_family.cache_info().misses == 147
    assert probabilistic._fubini_series.cache_info().misses == 21
    assert probabilistic._fubini_inverse.cache_info().misses == 7
    clear_library_caches()


def test_bernoulli_convolution_powers_once_per_moment_series_and_length(monkeypatch):
    # the factor h^r, h = 1 - e^(1 - M), depends on (M, r) alone: 7
    # distributions by 3 tuple lengths on the default grid, 56 cells.  The
    # check reads it from the memo of powers of h, so it forms h^2 and h^3
    # once per M, and first-kind-inversion, which runs after it, composes
    # over the same memo.  It multiplies by h^r, so it inverts no series.
    source_check = identities.check_bernoulli_convolution
    source_product = series._product
    keys, cells, inside, calls, products = set(), [], [], [], []

    def check(ms, ks, order, dist=None):
        keys.add((mgf(ms, order), len(ks)))
        cells.append(ks)
        inside.append(True)
        try:
            return source_check(ms, ks, order, dist)
        finally:
            inside.pop()

    def product(x, y):
        if inside:
            products.append(y)
        return source_product(x, y)

    def inverse(*args):
        if inside:
            calls.append("inverse")
        return source_inverse(*args)

    source_inverse = Series.inverse
    clear_library_caches()
    monkeypatch.setattr(identities, "check_bernoulli_convolution", check)
    monkeypatch.setattr(series, "_product", product)
    monkeypatch.setattr(Series, "inverse", inverse)
    run_full_suite(order=12)
    assert (len(cells), len(keys)) == (56, 21)
    hs = {li_argument(u) for u, _ in keys}
    assert len(hs) == 7
    assert len(products) == 2 * len(hs) and set(products) == hs
    for h in hs:
        memo = series.powers(h, 3)
        assert [memo[j] for j in (2, 3)] == [h * h, h * h * h]
    assert calls == []
    clear_library_caches()


def test_suite_builds_each_u_minus_one_once_and_hashes_each_series_once(monkeypatch):
    # u - 1 is kept per moment series, so the default grid builds it once
    # for each of its 7 distinct M and 7 distinct R; a series computes its
    # hash on its first lookup and keeps it, so no numerator tuple is hashed
    # twice however often the series keys a cache
    order = 8
    subtracted, hashed = [], []
    sub = Series.__sub__

    def counted_sub(a, b):
        if type(b) is int and b == 1:
            subtracted.append(a)
        return sub(a, b)

    def counted_hash(value):
        hashed.append(value)
        return hash(value)

    clear_library_caches()
    monkeypatch.setattr(Series, "__sub__", counted_sub)
    monkeypatch.setattr(series, "hash", counted_hash, raising=False)
    run_full_suite(order=order)
    monkeypatch.undo()
    dists = dict.fromkeys(spec for spec, _ in default_grid())
    us = {u(moments(spec, order), order) for spec in dists for u in (mgf, resolvent)}
    assert len(subtracted) == len(set(subtracted)) == len(us) == 14
    assert set(subtracted) == us
    assert hashed and all(type(value[0]) is tuple for value in hashed)
    assert len({id(num) for num, _ in hashed}) == len(hashed)
    clear_library_caches()


def test_suite_validates_each_tuple_once_and_builds_each_law_once():
    # a check that takes an index tuple validates it once and reads the
    # cores below it; run_full_suite builds each distribution's moments once
    # (the point-mass checks look up those of point(1) themselves, once per
    # call) and no DistributionSpec; every composition is series._compose,
    # not Series.compose
    checks = {getattr(identities, entry.check).__code__: entry.scope for entry in IDENTITIES}
    build_spec = sys.modules[moments.__module__]._spec
    watched = {index_tuple.__code__, moments.__code__, Series.compose.__code__, build_spec.__code__}
    calls, specs, tuple_checks = Counter(), [], 0

    def profile(frame, event, arg):
        nonlocal tuple_checks
        code = frame.f_code
        if event != "call" or (code not in watched and code not in checks):
            return
        calls[code.co_name] += 1
        if code is moments.__code__:
            specs.append(frame.f_locals["spec"])
        tuple_checks += checks.get(code) in ("tuple", "cell")

    grid = default_grid()
    clear_library_caches()
    sys.setprofile(profile)
    try:
        run_full_suite(grid=grid, order=8)
    finally:
        sys.setprofile(None)
    assert calls["_spec"] == 0
    assert tuple_checks == 3 * 8 + 6 * 56
    assert 0 < calls["index_tuple"] <= tuple_checks
    point_checks = calls["check_point_mass_collapse_classical"] + calls[
        "check_point_mass_collapse_multi"
    ]
    assert point_checks == 9
    laws = Counter(dict.fromkeys((spec for spec, _ in grid), 1))
    assert Counter(specs) == laws + Counter({point(1): point_checks})
    assert calls["compose"] == 0


ORACLE_CELLS = SAMPLE_CELLS + [(poisson(1), (2, -1)), (bernoulli(F(1, 2)), (0, 3))]


def second_kind_sums(ms, weights, order):
    """``_triangle_sums`` over the (1, M - 1) triangle of ``ms`` at ``order``."""
    return _triangle_sums(_power_triangle(mgf(ms, order)), weights)


def first_kind_inversion_rhs(ms, ks, order):
    return second_kind_sums(ms, _f_series(ks, order).egf_column, order)


def bernoulli_expansion_rhs(ms, ks, order):
    return second_kind_sums(ms, _bernoulli_expansion_weights(ks, order), order)


def single_index_expansion_rhs(ms, r, order):
    return second_kind_sums(ms, _single_index_expansion_weights(r, order), order)


@pytest.mark.parametrize("spec,ks", ORACLE_CELLS, ids=lambda v: str(v))
def test_hoisted_sums_match_literal_triple_sums(spec, ks):
    ms = moments(spec, 10)
    r = len(ks)
    assert values(first_kind_inversion_rhs(ms, ks, 10)) == first_kind_inversion_sum(ms, ks, 10)
    assert values(bernoulli_expansion_rhs(ms, ks, 10)) == bernoulli_expansion_sum(ms, ks, 10)
    assert values(single_index_expansion_rhs(ms, r, 10)) == (
        bernoulli_expansion_single_index_sum(ms, r, 10)
    )
    lhs, rhs = fubini_sides(ms, ks, 10)
    assert (values(lhs), values(rhs)) == fubini_sums(ms, ks, 10)


# laws with a zero mean, a point mass at 0 (M = 1, so every {n; k}_Y with
# k >= 1 vanishes) and non-integer moments
SUM_DISTS = [
    point(0),
    point(F(-1, 2)),
    MEAN_ZERO,
    poisson(F(1, 2)),
    bernoulli(F(1, 3)),
    geometric(F(1, 2)),
]
index_tuples = st.lists(st.integers(min_value=-2, max_value=3), min_size=1, max_size=3).map(tuple)
orders = st.integers(min_value=0, max_value=14)
sum_cells = st.tuples(st.sampled_from(SUM_DISTS), index_tuples, orders)


@given(sum_cells)
@settings(max_examples=40, deadline=None)
def test_append_one_lah_and_moment_route_sums_match_the_oracles(cell):
    spec, ks, order = cell
    ms = moments(spec, order)
    r = len(ks)
    full = ks + (1,)
    lhs, rhs = _append_one_sides(
        multi_stirling2_series(ks, order).egf_column,
        multi_stirling2_series(full, order).egf_column,
        ((1,) * (order + 1), 1),
    )
    assert (values(lhs), values(rhs)) == append_one_deterministic_sums(ks, order)
    lhs, rhs = _append_one_sides(
        prob_multi_stirling2_series(ms, ks, order).egf_column,
        prob_multi_stirling2_series(ms, full, order).egf_column,
        ms.column,
    )
    assert (values(lhs), values(rhs)) == append_one_sums(ms, ks, order)
    for s in (r, r + 1):
        for key, literal in ((mgf(ms, order), append_one_single_index_sums(ms, s, order)),
                             (None, append_one_classical_sums(s, order))):
            if s <= order:
                lhs, rhs = _single_index_sides(key, s, order)
                assert (values(lhs), values(rhs)) == literal
            else:  # the check compares no n here, and both literal sums vanish
                assert not any(literal[0]) and not any(literal[1])
    assert [values(c) for c in lah_sides(ms, ks, order)] == list(lah_sums(ms, ks, order))
    columns, den = _moment_route_columns(ms, order)
    assert [values((c, den)) for c in columns] == moment_route(ms, order)


@given(sum_cells)
@settings(max_examples=25, deadline=None)
def test_second_kind_sums_match_the_oracles(cell):
    spec, ks, order = cell
    ms = moments(spec, order)
    r = len(ks)
    assert values(first_kind_inversion_rhs(ms, ks, order)) == (
        first_kind_inversion_sum(ms, ks, order)
    )
    assert values(bernoulli_expansion_rhs(ms, ks, order)) == (
        bernoulli_expansion_sum(ms, ks, order)
    )
    assert values(single_index_expansion_rhs(ms, r, order)) == (
        bernoulli_expansion_single_index_sum(ms, r, order)
    )
    lhs, rhs = fubini_sides(ms, ks, order)
    assert (values(lhs), values(rhs)) == fubini_sums(ms, ks, order)
    bern = multi_bernoulli_series(ks, order).egf_column
    assert values(second_kind_sums(ms, bern, order)) == bernoulli_convolution_sum(ms, ks, order)


# index tuples of length r = 3 and 4, over a mean-zero law among others
EDGE_CELLS = [
    (poisson(1), (1, 2, 3)),
    (MEAN_ZERO, (2, 0, 1)),
    (bernoulli(F(1, 2)), (2, -1, 0, 1)),
    (MEAN_ZERO, (1, 1, 1, 1)),
]


@pytest.mark.parametrize("spec,ks", EDGE_CELLS, ids=lambda v: str(v))
def test_every_check_runs_at_orders_zero_to_r_plus_one(spec, ks):
    # the short orders leave some compared ranges empty and some columns unread
    r = len(ks)
    for order in range(r + 2):
        ms = moments(spec, order)
        reports = [
            check_derivative_rules(ks, order),
            check_append_one_deterministic(ks, order),
            check_append_one(ms, ks, order),
            check_append_one(ms, ks[:-1], order),
            check_bernoulli_convolution(ms, ks, order),
            check_first_kind_inversion(ms, ks, order),
            *check_lah_via_first_kind(ms, ks, order),
            check_bernoulli_expansion(ms, ks, order),
            check_bernoulli_expansion_single_index(ms, r, order),
            check_fubini_convolution(ms, ks, order),
            check_route_agreement(ms, order),
            *check_all_ones_deterministic(r, order),
            *check_all_ones_probabilistic(ms, r, order),
            *check_point_mass_collapse_classical(order),
            *check_point_mass_collapse_multi(ks, order),
        ]
        for report in reports:
            assert report.order == order
            if report.identity in ("lah-via-first-kind-literal", "point-mass-collapse-multi-lah"):
                assert report.status in ("pass", "expected-discrepancy")
            else:
                assert (report.status, report.first_mismatch) == ("pass", None), report


# every public check as a call on (ms, ks, order), with what it takes: an
# index tuple, a prefix (which may be empty), or neither
PUBLIC_CHECKS = {
    "check_derivative_rules": (lambda ms, ks, order: check_derivative_rules(ks, order), "ks"),
    "check_append_one_deterministic": (
        lambda ms, ks, order: check_append_one_deterministic(ks, order), "prefix"
    ),
    "check_append_one": (check_append_one, "prefix"),
    "check_bernoulli_convolution": (check_bernoulli_convolution, "ks"),
    "check_first_kind_inversion": (check_first_kind_inversion, "ks"),
    "check_lah_via_first_kind": (check_lah_via_first_kind, "ks"),
    "check_bernoulli_expansion": (check_bernoulli_expansion, "ks"),
    "check_bernoulli_expansion_single_index": (
        lambda ms, ks, order: check_bernoulli_expansion_single_index(ms, 2, order), None
    ),
    "check_fubini_convolution": (check_fubini_convolution, "ks"),
    "check_route_agreement": (lambda ms, ks, order: check_route_agreement(ms, order), None),
    "check_all_ones_deterministic": (
        lambda ms, ks, order: check_all_ones_deterministic(2, order), None
    ),
    "check_all_ones_probabilistic": (
        lambda ms, ks, order: check_all_ones_probabilistic(ms, 2, order), None
    ),
    "check_point_mass_collapse_classical": (
        lambda ms, ks, order: check_point_mass_collapse_classical(order), None
    ),
    "check_point_mass_collapse_multi": (
        lambda ms, ks, order: check_point_mass_collapse_multi(ks, order), "ks"
    ),
}


@pytest.mark.parametrize("law", ["poisson:1", "point:0", MEAN_ZERO.label])
@pytest.mark.parametrize("name", list(PUBLIC_CHECKS))
def test_every_public_check_refuses_a_bad_index_tuple_and_a_bad_order(name, law):
    # a check validates its tuple before it reads the moments, so at a
    # mean-zero law too it raises the error index_tuple gives
    assert set(PUBLIC_CHECKS) == {entry.check for entry in IDENTITIES}
    call, takes = PUBLIC_CHECKS[name]
    ms = moments(parse_distribution(law), 4)
    call(ms, (1, 2), 4)
    bad_tuples = [("a",), (1.5,), (True,)] + [()] * (takes == "ks")
    for ks in bad_tuples if takes else ():
        with pytest.raises(ValueError) as want:
            index_tuple(ks)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            call(ms, ks, 4)
    for order in (-1, True, 1.5, "3"):
        message = f"truncation order must be a non-negative integer, got {order!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ms, (1, 2), order)


def clear_library_caches():
    """Drop every ``lru_cache`` of the library, ``series._power_memo`` among them."""
    for name, module in list(sys.modules.items()):
        if name.startswith("multinumbers."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def perturb(monkeypatch):
    """Replace a column source of the checks by a perturbed one, both where the
    checks look it up and in the module that defines it, so the per-entry
    functions the oracles read see the same change; every cache is dropped
    on the way in and on the way out.  With ``at`` given, only the calls
    whose last argument equals it are perturbed, as ``_li_family`` at one
    moment series."""

    def apply(name, m, at=None):
        clear_library_caches()
        source = getattr(identities, name)
        changed = bumped(source, m, at)
        monkeypatch.setattr(identities, name, changed)
        monkeypatch.setattr(sys.modules[source.__module__], name, changed)

    yield apply
    clear_library_caches()


def bumped(source, m, at=None):
    """``source`` with ordinary coefficient ``m`` of the series it returns
    raised by 1, or of the column ``(a, d)`` or every column of the triangle
    ``(columns, d)`` of EGF numerators it returns, whose entry at n = m then
    rises by m!; with ``at`` given, only where its last argument equals ``at``."""

    def raise_entry(column, raised):
        return [x + raised if n == m else x for n, x in enumerate(column)]

    def perturbed(*args):
        s = source(*args)
        if at is not None and args[-1] != at:
            return s
        if isinstance(s, Series):
            return Series([c + 1 if i == m else c for i, c in enumerate(s.coeffs)])
        columns, d = s
        raised = factorial(m) * d
        if isinstance(columns[0], int):
            return raise_entry(columns, raised), d
        return [raise_entry(c, raised) for c in columns], d

    return perturbed


KS = (1, 2)
N = 10


def pairs(lhs, rhs, ns):
    return [(n, lhs[n], rhs[n]) for n in ns]


def pms2_column(ms):
    return [prob_multi_stirling2(ms, KS, n, N) for n in range(N + 1)]


def convolution_pairs(ms):
    # {n; ks}_Y against sum_m C(n, m) s_m [h^2]_(n-m), h = 1 - e^(1 - M), with
    # h^2 from the Fraction series oracles
    one_minus_m = [F(0)] + [-ms.mu[n] / factorial(n) for n in range(1, N + 1)]
    h = [-c for c in series_exp(one_minus_m)]
    h[0] += 1
    h2 = [factorial(n) * c for n, c in enumerate(series_product(h, h))]
    s = bernoulli_convolution_sum(ms, KS, N)
    rhs = [sum(comb(n, m) * s[m] * h2[n - m] for m in range(n + 1)) for n in range(N + 1)]
    return pairs(pms2_column(ms), rhs, range(2, N + 1))


def raised_inversion_sum(ms):
    # the weight v_4 = F_ks entry 4, raised by 4!, adds 4! {n; 4}_Y at each n;
    # the left side, the direct composition, does not read that column
    literal = first_kind_inversion_sum(ms, KS, N)
    return [s + factorial(4) * prob_stirling2(ms, n, 4, N) for n, s in enumerate(literal)]


def route_pairs(ms):
    by_moments = moment_route(ms, N)
    return [
        (n, prob_stirling2(ms, n, k, N), by_moments[k][n])
        for n in range(N + 1)
        for k in range(n + 1)
    ]


# (id, check, column source it reads, coefficient raised, first n the change
# reaches, the compared values in scan order from the literal oracles, the
# status before and after the change); a source given as a pair names
# ``_li_family`` and the moment series, mgf or resolvent, at which only it is
# raised, so that one of the two multi families moves.  At Y = poisson(1) every
# {n; n}_Y = mu_1^n is 1, so a change to the weight of {n; j}_Y shows first
# at n = j, and a change to the Fubini value F_j first at n = j + r.  A
# raised coefficient m of a column read at n + 1 shows at n = m - 1.
PASS_THEN_FAIL = ("pass", "fail")
PERTURBATIONS = [
    (
        "f_series-4",
        lambda ms: check_first_kind_inversion(ms, KS, N),
        "_f_series",
        4,
        4,
        lambda ms: pairs(pms2_column(ms), raised_inversion_sum(ms), range(2, N + 1)),
        PASS_THEN_FAIL,
    ),
    (
        "bernoulli_series-1",
        lambda ms: check_bernoulli_expansion(ms, KS, N),
        "_bernoulli_series",
        1,
        3,
        lambda ms: pairs(pms2_column(ms), bernoulli_expansion_sum(ms, KS, N), range(2, N - 1)),
        PASS_THEN_FAIL,
    ),
    (
        "bernoulli_higher_series-1",
        lambda ms: check_bernoulli_expansion_single_index(ms, 2, N),
        "bernoulli_higher_series",
        1,
        3,
        lambda ms: pairs(
            [prob_stirling2(ms, n, 2, N) for n in range(N + 1)],
            bernoulli_expansion_single_index_sum(ms, 2, N),
            range(2, N - 1),
        ),
        PASS_THEN_FAIL,
    ),
    (
        "bernoulli_series-3",
        lambda ms: check_bernoulli_convolution(ms, KS, N),
        "_bernoulli_series",
        3,
        5,
        convolution_pairs,
        PASS_THEN_FAIL,
    ),
    (
        "lah_series-4",
        lambda ms: check_fubini_convolution(ms, KS, N),
        "_lah_series",
        4,
        4,
        lambda ms: pairs(*fubini_sums(ms, KS, N), range(2, N + 1)),
        PASS_THEN_FAIL,
    ),
    (
        "fubini_series-2",
        lambda ms: check_fubini_convolution(ms, KS, N),
        "_fubini_series",
        2,
        4,
        lambda ms: pairs(*fubini_sums(ms, KS, N), range(2, N + 1)),
        PASS_THEN_FAIL,
    ),
    (
        "append-one-main",
        lambda ms: check_append_one(ms, KS, N),
        ("_li_family", mgf),
        3,
        2,
        lambda ms: pairs(*append_one_sums(ms, KS, N), range(N)),
        PASS_THEN_FAIL,
    ),
    (
        "append-one-single-index",
        lambda ms: check_append_one(ms, (1,), N),
        "_power_triangle",
        3,
        3,
        lambda ms: pairs(*append_one_single_index_sums(ms, 2, N), range(2, N + 1)),
        PASS_THEN_FAIL,
    ),
    (
        "append-one-deterministic",
        lambda ms: check_append_one_deterministic(KS, N),
        "_stirling2_series",
        3,
        2,
        lambda ms: pairs(*append_one_deterministic_sums(KS, N), range(N)),
        PASS_THEN_FAIL,
    ),
    (
        "lah-corrected",
        lambda ms: check_lah_via_first_kind(ms, KS, N)[0],
        ("_li_family", mgf),
        3,
        3,
        lambda ms: pairs(*lah_sums(ms, KS, N)[:2], range(2, N + 1)),
        PASS_THEN_FAIL,
    ),
    (
        "lah-literal",
        lambda ms: check_lah_via_first_kind(ms, KS, N)[1],
        ("_li_family", resolvent),
        2,
        2,
        lambda ms: pairs(*lah_sums(ms, KS, N)[::2], range(2, N + 1)),
        ("expected-discrepancy", "expected-discrepancy"),
    ),
    (
        "route-agreement",
        lambda ms: check_route_agreement(ms, N),
        "_power_triangle",
        3,
        3,
        route_pairs,
        PASS_THEN_FAIL,
    ),
]


@pytest.mark.parametrize(
    "check,source,m,first_n,oracle,statuses",
    [p[1:] for p in PERTURBATIONS],
    ids=[p[0] for p in PERTURBATIONS],
)
def test_perturbed_column_fails_at_first_reached_n(
    perturb, check, source, m, first_n, oracle, statuses
):
    ms = moments(poisson(1), N)
    before = check(ms)
    assert before.status == statuses[0]
    # the literal Lah variant is an expected discrepancy either way, first
    # past the n the change reaches
    assert before.first_mismatch is None or before.first_mismatch.n > first_n
    name, u = source if isinstance(source, tuple) else (source, None)
    perturb(name, m, u and u(ms, N))
    report = check(ms)
    assert report.status == statuses[1]
    assert report.first_mismatch.n == first_n
    expected = next((n, a, b) for n, a, b in oracle(ms) if a != b)
    assert tuple(report.first_mismatch) == expected
    for value in (report.first_mismatch.lhs, report.first_mismatch.rhs):
        assert type(value) is Fraction
        assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1


@pytest.fixture
def raise_kernel(monkeypatch):
    """Raise entry 4 of what one library kernel returns, ``(owner, name)``
    with ``owner`` a module of the package, ``Series`` or ``_KINDS``, for
    every caller: a function is replaced in each module that holds it, a
    method on the class, and the moment provider of the kind ``name`` in its
    entry of ``moments._KINDS``, so that mu_4 rises by 4!.  Every cache is
    dropped on the way in and on the way out."""

    def apply(owner, name):
        clear_library_caches()
        if owner == "Series":
            monkeypatch.setattr(Series, name, bumped(getattr(Series, name), 4))
            return
        if owner == "_KINDS":
            kinds = sys.modules["multinumbers.moments"]._KINDS
            make, args, provide = kinds[name]
            monkeypatch.setitem(kinds, name, (make, args, bumped(provide, 4)))
            return
        source = getattr(sys.modules[f"multinumbers.{owner}"], name)
        changed = KERNEL_RAISERS.get(name, bumped)(source, 4)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("multinumbers.") and vars(module).get(name) is source:
                monkeypatch.setattr(module, name, changed)

    yield apply
    clear_library_caches()


def raised_powers(source, m):
    """``series.powers`` handing out its memo with the power ``g^m`` raised by
    1 at ``t^m``; the memo itself keeps the true powers."""

    def perturbed(g, k):
        memo = dict(source(g, k))
        if m in memo:
            memo[m] = Series([c + 1 if i == m else c for i, c in enumerate(memo[m].coeffs)])
        return memo

    return perturbed


def raised_solve(source, m):
    """``series._solve`` with its solution ``x_m`` raised by 1, so that ``exp``
    and ``inverse`` each return a series off at ``t^m``."""

    def perturbed(*args):
        xs, den = source(*args)
        return [x + den if n == m else x for n, x in enumerate(xs)], den

    return perturbed


def raised_entry(source, m):
    """``source`` with entry ``m`` of the bare list or row of integers it
    returns raised by 1, where there is one: ``classical._transform`` off at
    b_m, ``classical._row`` off at T(n, m) for every n >= m."""

    def perturbed(*args):
        got = source(*args)
        return type(got)([x + 1 if n == m else x for n, x in enumerate(got)])

    return perturbed


# the kernels that return a bare memo, an unreduced solution or a bare list
# of integers, not a series or a column over a denominator, and the helper
# that raises entry 4 of each
KERNEL_RAISERS = {
    "powers": raised_powers,
    "_solve": raised_solve,
    "_transform": raised_entry,
    "_row": raised_entry,
    "_binomial_sums": raised_entry,
}


# The three cells at N = 10 on which a raised kernel is run.
RAISED_GRID = ((poisson(1), (1, 2)), (poisson(1), (1,)), (point(1), (1, 2)))


# The identities that fail when one kernel's output is raised at entry 4, on
# three cells at N = 10.  A check whose two sides both read the kernel passes
# and is absent from its row.  The probabilistic multi families are F_ks(u - 1):
# with F_ks raised, fubini-convolution and point-mass-collapse-multi-second-kind
# pass, because both hold for any F (they failed while the families composed
# the multiple logarithm with 1 - e^(1 - u)); with products raised, the
# all-ones-prob checks pass, as both of their sides read the powers of u - 1.
# _li_argument, the cache behind the checked multi.li_argument, is read only
# by the direct side of first-kind-inversion and the factor h^r of
# bernoulli-convolution, which comes from the memo of powers of h; the suite
# never enters li_argument, so its row is empty.  Every series product, those
# that fill a memo of powers included, is
# series._product: Series.__mul__ calls it after its order check, and the
# memo fills call it directly, so the __mul__ and __pow__ rows hold only the
# checks that multiply series themselves.  Every composition is
# series._compose: Series.compose calls it after its operand checks, and the
# multi families and first-kind-inversion call it directly, so the suite never
# enters Series.compose and its row is empty.  _compose reads its memo
# without series.powers, so the powers row holds only checks that read the
# memo through the power triangle, and bernoulli-convolution, which reads h^r
# from it.  The moment route of second-kind-route-agreement reads the moment
# column alone, by classical._binomial_sums, so that check fails with the
# mgf, the powers or the products under its other side, the power triangle.
# series.powers, _solve, classical._transform, _row and _binomial_sums are
# raised by their own helpers in KERNEL_RAISERS; the raised rows are handed
# out, and the row memo
# classical._ROWS keeps the true ones.  A moment provider of moments._KINDS is
# raised for each kind the default grid has, on the cells of that kind as
# well: every identity holds for any moment sequence, so a raised mu_4 fails
# only the checks that compare with values that do not depend on Y, the
# point-mass collapses, which read point(1).
KERNEL_FAILURES = {
    None: set(),
    ("multilog", "_f_series"): {
        "all-ones-lah", "all-ones-prob-lah", "all-ones-prob-second-kind", "all-ones-second-kind",
        "append-one", "append-one-deterministic", "bernoulli-convolution",
        "bernoulli-expansion", "first-kind-inversion",
    },
    ("probabilistic", "_power_triangle"): {
        "all-ones-prob-lah", "all-ones-prob-second-kind", "append-one", "bernoulli-convolution",
        "bernoulli-expansion", "first-kind-inversion", "fubini-convolution",
        "point-mass-collapse-lah", "point-mass-collapse-second-kind",
        "second-kind-route-agreement",
    },
    ("Series", "compose"): set(),
    ("series", "_compose"): {
        "all-ones-prob-lah", "all-ones-prob-second-kind", "append-one", "bernoulli-convolution",
        "bernoulli-expansion", "first-kind-inversion", "fubini-convolution",
        "lah-via-first-kind-corrected", "point-mass-collapse-multi-second-kind",
    },
    ("Series", "__mul__"): {
        "all-ones-bernoulli", "all-ones-multilog", "bernoulli-expansion-single-index",
        "derivative-rules", "fubini-convolution",
    },
    ("multi", "li_argument"): set(),
    ("multi", "_li_argument"): {"bernoulli-convolution", "first-kind-inversion"},
    ("multilog", "_multilog"): {
        "all-ones-bernoulli", "all-ones-first-kind", "all-ones-lah", "all-ones-multilog",
        "all-ones-prob-lah", "all-ones-prob-second-kind", "all-ones-second-kind", "append-one",
        "append-one-deterministic", "derivative-rules",
    },
    ("moments", "mgf"): {
        "append-one", "lah-via-first-kind-corrected", "point-mass-collapse-multi-second-kind",
        "point-mass-collapse-second-kind", "second-kind-route-agreement",
    },
    ("moments", "resolvent"): {"lah-via-first-kind-corrected", "point-mass-collapse-lah"},
    ("classical", "bernoulli_higher_series"): {
        "all-ones-bernoulli", "bernoulli-expansion-single-index",
    },
    ("probabilistic", "_moment_route_columns"): {"second-kind-route-agreement"},
    ("probabilistic", "_fubini_series"): {"fubini-convolution"},
    ("multi", "_bernoulli_series"): {
        "all-ones-bernoulli", "bernoulli-convolution", "bernoulli-expansion",
    },
    ("multi", "_lah_series"): {"all-ones-lah", "fubini-convolution"},
    ("multi", "_stirling2_series"): {
        "all-ones-second-kind", "append-one-deterministic",
        "point-mass-collapse-multi-second-kind",
    },
    ("Series", "__pow__"): {
        "all-ones-bernoulli", "all-ones-multilog", "bernoulli-expansion-single-index",
        "fubini-convolution",
    },
    ("Series", "inverse"): {
        "all-ones-bernoulli", "bernoulli-expansion-single-index", "fubini-convolution",
    },
    ("Series", "exp"): {"bernoulli-convolution", "first-kind-inversion"},
    ("Series", "derivative"): {"derivative-rules"},
    ("series", "powers"): {
        "bernoulli-convolution", "bernoulli-expansion", "first-kind-inversion",
        "fubini-convolution", "point-mass-collapse-lah", "point-mass-collapse-second-kind",
        "second-kind-route-agreement",
    },
    ("classical", "_transform"): {
        "all-ones-bernoulli", "all-ones-lah", "all-ones-prob-lah", "all-ones-prob-second-kind",
        "all-ones-second-kind", "append-one", "append-one-deterministic", "bernoulli-convolution",
        "bernoulli-expansion", "first-kind-inversion", "lah-via-first-kind-corrected",
        "point-mass-collapse-lah", "point-mass-collapse-multi-second-kind",
    },
    ("classical", "_row"): {
        "lah-via-first-kind-corrected", "point-mass-collapse-lah",
        "point-mass-collapse-second-kind",
    },
    ("series", "_solve"): {
        "all-ones-bernoulli", "bernoulli-convolution", "bernoulli-expansion-single-index",
        "first-kind-inversion", "fubini-convolution",
    },
    ("_KINDS", "point"): {
        "point-mass-collapse-lah", "point-mass-collapse-multi-second-kind",
        "point-mass-collapse-second-kind",
    },
    ("_KINDS", "bernoulli"): set(),
    ("_KINDS", "binomial"): set(),
    ("_KINDS", "poisson"): set(),
    ("_KINDS", "geometric"): set(),
    ("_KINDS", "finite"): set(),
    ("classical", "_binomial_sums"): {
        "append-one", "append-one-deterministic", "bernoulli-convolution", "bernoulli-expansion",
        "bernoulli-expansion-single-index", "fubini-convolution", "second-kind-route-agreement",
    },
    ("series", "_product"): {
        "all-ones-bernoulli", "all-ones-multilog", "append-one", "bernoulli-convolution",
        "bernoulli-expansion", "bernoulli-expansion-single-index", "derivative-rules",
        "first-kind-inversion", "fubini-convolution", "lah-via-first-kind-corrected",
        "point-mass-collapse-lah", "point-mass-collapse-multi-second-kind",
        "point-mass-collapse-second-kind", "second-kind-route-agreement",
    },
}


@pytest.mark.parametrize(
    "kernel", list(KERNEL_FAILURES), ids=lambda k: ".".join(k) if k else "none"
)
def test_raised_kernel_fails_the_pinned_identities(raise_kernel, kernel):
    grid = list(RAISED_GRID)
    if kernel is not None:
        raise_kernel(*kernel)
    if kernel and kernel[0] == "_KINDS":
        cells = [(spec, ks) for spec, ks in default_grid() if spec.kind == kernel[1]]
        spec = cells[0][0]
        assert moments(spec, N).mu[4] == fraction_moments(spec, N)[4] + factorial(4)
        grid += cells
    reports = run_full_suite(grid=grid, order=N)
    assert {rep.identity for rep in reports if rep.status == "fail"} == KERNEL_FAILURES[kernel]


def raised_squares(source, m):
    """``series._product`` with each square it returns, a call with
    ``x is y``, raised by 1 at ``t^m``; every other product is true."""

    def perturbed(x, y):
        got = source(x, y)
        if x is not y:
            return got
        return Series([c + 1 if i == m else c for i, c in enumerate(got.coeffs)])

    return perturbed


# A wrong square reaches every check that the raised products of
# series._product fail but derivative-rules, which multiplies distinct
# series: the even powers of a memo are squares, and so is each doubling
# of the base in Series.__pow__.
SQUARE_FAILURES = KERNEL_FAILURES[("series", "_product")] - {"derivative-rules"}


def test_a_raised_square_fails_the_pinned_identities(monkeypatch):
    clear_library_caches()
    monkeypatch.setattr(series, "_product", raised_squares(series._product, 4))
    try:
        reports = run_full_suite(grid=RAISED_GRID, order=N)
    finally:
        clear_library_caches()
    failed = {rep.identity for rep in reports if rep.status == "fail"}
    assert failed == SQUARE_FAILURES and failed


def raise_classical_second_kind(rule, order):
    """The classical triangles the checks read, with S(3, 2) raised by 1."""
    cols = [list(col) for col in _columns(rule, order)]
    if rule is _SECOND:
        cols[2][3] += 1
    return cols


# (check, the column source and the coefficient raised, or None for S(3, 2)
# of the classical triangle; the detail of the first comparison that fails).
# With ks = (2, 1) a raised multilog breaks both derivative rules and the
# first is reported; in append-one each raise reaches the form named and no
# earlier one.
FIRST_FAILING_DETAILS = [
    (lambda ms: check_derivative_rules((2, 1), N), ("_multilog", 2), "index-lowering rule"),
    (
        lambda ms: check_derivative_rules((1,), N),
        ("geometric", 2),
        "prefix rule at trailing index 1",
    ),
    (lambda ms: check_append_one(ms, KS, N), ("_li_family", 3), "main form"),
    (lambda ms: check_append_one(ms, (1,), N), ("_power_triangle", 3), "single-index form"),
    (lambda ms: check_append_one(ms, (1,), N), None, "single-index classical form"),
]


@pytest.mark.parametrize(
    "check,raised,detail",
    FIRST_FAILING_DETAILS,
    ids=[row[2] for row in FIRST_FAILING_DETAILS],
)
def test_report_carries_the_detail_of_the_first_failing_comparison(
    perturb, monkeypatch, check, raised, detail
):
    ms = moments(poisson(1), N)
    assert check(ms).status == "pass"
    if raised is None:
        clear_library_caches()
        monkeypatch.setattr(identities, "_columns", raise_classical_second_kind)
    else:
        perturb(*raised)
    report = check(ms)
    assert (report.status, report.detail) == ("fail", detail)


def readme_ranges():
    """id pattern -> (the ``lo..hi`` ranges of the README's "`n` compared"
    column, whether the cell says every k <= n is compared)."""
    rows = {}
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        row = re.fullmatch(r"\| `([a-z*-]+)` \| .* \| (.*) \|", line)
        if row:
            bounds = re.findall(r"`([^`]+)\.\.([^`]+)`", row[2])
            rows[row[1]] = (bounds, "every `k <= n`" in row[2])
    return rows


@pytest.mark.parametrize("order", [0, 1, 12])
def test_compared_ranges_are_the_readme_column(order):
    with recorded_comparisons() as seen:
        run_full_suite(order=order)
    table = readme_ranges()
    assert {identity for identity, _, _ in seen} == set(ALL_IDENTITIES)
    for identity, ks, comparisons in seen:
        r = len(ks or ())
        compared = [ns for _, _, ns, _ in comparisons]
        (pattern,) = [p for p in table if fnmatch(identity, p)]
        bounds, triangle = table[pattern]
        scope = {"N": order, "r": r, "min": min}
        ranges = [list(range(eval(lo, scope), eval(hi, scope) + 1)) for lo, hi in bounds]
        made = []
        for ns in map(list, compared):
            if ns and type(ns[0]) is tuple:  # a triangle, keyed (n, k) n-major
                rows = list(dict.fromkeys(n for n, _ in ns))
                assert triangle and ns == [(n, k) for n in rows for k in range(n + 1)]
                ns = rows
            assert ns in ranges, (identity, order, r, ns)
            made.append(ns)
        # every range the column names is compared, unless it is empty
        assert all(ns in made for ns in ranges if ns), (identity, order, r, ranges)


# ---------------------------------------------------------------- records

MISMATCH = Mismatch(2, F(1, 2), F(1, 3))


def test_mismatch_is_a_record_over_pairs_that_equals_its_tuple():
    assert MISMATCH.pairs == ((1, 2), (1, 3)) and not isinstance(MISMATCH, tuple)
    assert MISMATCH == (2, F(1, 2), F(1, 3))
    assert MISMATCH != (2, F(1, 2), F(1, 4))
    assert hash(MISMATCH) == hash((2, F(1, 2), F(1, 3)))
    assert (MISMATCH.n, MISMATCH.lhs, MISMATCH.rhs) == tuple(MISMATCH)
    assert Mismatch(n=2, lhs=F(1, 2), rhs=F(1, 3)) == MISMATCH
    assert repr(MISMATCH) == "Mismatch(n=2, lhs=Fraction(1, 2), rhs=Fraction(1, 3))"
    with pytest.raises(AttributeError):
        MISMATCH.n = 3


def test_identity_entry_defaults_and_tuple_semantics():
    entry = identities.Identity("x", "tuple", "check_x", "a description")
    assert entry.expected is False
    assert entry == ("x", "tuple", "check_x", "a description", False)
    assert entry._fields == ("id", "scope", "check", "description", "expected")
    assert hash(entry) == hash(("x", "tuple", "check_x", "a description", False))
    assert repr(entry) == (
        "Identity(id='x', scope='tuple', check='check_x', "
        "description='a description', expected=False)"
    )
    with pytest.raises(AttributeError):
        entry.expected = True


REPORT_FIELDS = ("x", 3, (1, 2), "poisson:1", "fail", MISMATCH, "why")


def test_report_construction_equality_and_hash():
    report = VerificationReport(*REPORT_FIELDS)
    by_keyword = VerificationReport(
        identity="x", order=3, ks=(1, 2), dist="poisson:1", status="fail",
        first_mismatch=MISMATCH, detail="why",
    )
    assert report == by_keyword
    assert report != VerificationReport(*REPORT_FIELDS[:-1], "other")
    assert report != REPORT_FIELDS
    assert hash(report) == hash(by_keyword) == hash(REPORT_FIELDS)
    assert (
        report.identity, report.order, report.ks, report.dist, report.status,
        report.first_mismatch, report.detail,
    ) == REPORT_FIELDS
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.copy(report) == report
    assert VerificationReport.__match_args__ == (
        "identity", "order", "ks", "dist", "status", "first_mismatch", "detail"
    )


def test_report_defaults_and_repr():
    report = VerificationReport("x", 3)
    assert (report.ks, report.dist, report.status, report.first_mismatch, report.detail) == (
        None, None, "pass", None, ""
    )
    assert repr(report) == (
        "VerificationReport(identity='x', order=3, ks=None, dist=None, "
        "status='pass', first_mismatch=None, detail='')"
    )
    assert repr(VerificationReport(*REPORT_FIELDS)) == (
        "VerificationReport(identity='x', order=3, ks=(1, 2), dist='poisson:1', "
        "status='fail', first_mismatch=Mismatch(n=2, lhs=Fraction(1, 2), "
        "rhs=Fraction(1, 3)), detail='why')"
    )


@pytest.mark.parametrize("name", ["status", "order", "new_attribute"])
def test_report_is_frozen(name):
    report = VerificationReport("x", 3)
    with pytest.raises(AttributeError):
        setattr(report, name, "fail")
    with pytest.raises(AttributeError):
        delattr(report, name)
    assert report == VerificationReport("x", 3)


@pytest.mark.parametrize(
    "status,mismatch,message",
    [
        ("bogus", None, "unknown status 'bogus'"),
        ("pass", MISMATCH, "status 'pass' cannot carry a mismatch"),
        ("skipped", None, "unknown status 'skipped'"),
        ("fail", None, "status 'fail' requires a mismatch"),
        ("expected-discrepancy", None, "status 'expected-discrepancy' requires a mismatch"),
    ],
)
def test_report_validation_errors(status, mismatch, message):
    with pytest.raises(ValueError) as excinfo:
        VerificationReport("x", 3, status=status, first_mismatch=mismatch)
    assert str(excinfo.value) == message


def test_no_private_cache_is_typed_and_no_status_is_skipped():
    # no public function is its own cache, and a private cache is reached
    # only after its caller has refused a bool order, so no cache is typed.
    # Every report is a pass, a failure or an expected discrepancy.
    typed, skipped = [], []
    for path in sorted(Path(identities.__file__).parent.glob("*.py")):
        text = path.read_text()
        if "skipped" in text.lower():
            skipped.append(path.name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                typed += [
                    (path.name, node.name)
                    for deco in node.decorator_list if isinstance(deco, ast.Call)
                    for k in deco.keywords
                    if k.arg == "typed" and getattr(k.value, "value", None) is True
                ]
    assert typed == []
    assert skipped == []


def test_wrapped_report_init_counts_every_report_built(monkeypatch):
    # the benchmark tracer counts reports built by wrapping __init__ this way
    init = VerificationReport.__init__
    built = []

    def counted_init(report, *args, **kwargs):
        built.append(report)
        init(report, *args, **kwargs)

    monkeypatch.setattr(VerificationReport, "__init__", counted_init)
    reports = run_full_suite(order=4)
    assert len(built) == len(reports) == 511
    assert {id(report) for report in built} == {id(report) for report in reports}
