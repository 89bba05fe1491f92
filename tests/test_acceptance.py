"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <id> <name>: PASS/FAIL`` line (visible
with ``pytest -s``).  Every comparison is exact; the stated runtime
budgets are asserted, not just hoped for.
"""

import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from multinumbers.classical import bernoulli_higher, lah, stirling1, stirling2
from multinumbers.identities import default_grid, run_full_suite
from multinumbers.moments import finite, moments, point
from multinumbers.multi import multi_bernoulli, multi_lah, multi_stirling2
from multinumbers.multilog import multi_stirling1, multilog
from multinumbers.probabilistic import (
    prob_lah,
    prob_multi_lah,
    prob_multi_stirling2,
    prob_stirling2,
    prob_stirling2_by_moments,
)
from multinumbers.series import Series

from oracles import multilog_coefficient, series_log

F = Fraction

ORDER = 12
GRID = default_grid()
GRID_TUPLES = []
for _spec, _ks in GRID:
    if _ks not in GRID_TUPLES:
        GRID_TUPLES.append(_ks)
GRID_DISTS = []
for _spec, _ks in GRID:
    if _spec not in GRID_DISTS:
        GRID_DISTS.append(_spec)
MEAN_ZERO = finite([(-1, F(1, 2)), (1, F(1, 2))])


def criterion(ident, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {ident} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {ident} {name}: PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "multilog series agrees with chain enumeration")
def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    for ks in GRID_TUPLES:
        series = multilog(ks, 10)
        assert series.coeff(0) == 0
        for m in range(1, 11):
            assert series.coeff(m) == multilog_coefficient(ks, m)
    assert time.monotonic() - start < 5.0


@criterion("2a", "all-ones reductions collapse to the classical families")
def test_criterion_2a_all_ones_reductions():
    start = time.monotonic()
    for r in sorted({len(ks) for ks in GRID_TUPLES}):
        ones = (1,) * r
        for n in range(ORDER + 1):
            assert multi_stirling1(ones, n, ORDER) == stirling1(n, r)
            assert multi_stirling2(ones, n, ORDER) == stirling2(n, r)
            assert multi_lah(ones, n, ORDER) == lah(n, r)
            sign = 1 if n % 2 == 0 else -1
            expected = sign * bernoulli_higher(n, r, ORDER) / factorial(r)
            assert multi_bernoulli(ones, n, ORDER) == expected
        for spec in GRID_DISTS:
            ms = moments(spec, ORDER)
            for n in range(ORDER + 1):
                assert prob_multi_stirling2(ms, ones, n, ORDER) == prob_stirling2(ms, n, r, ORDER)
                assert prob_multi_lah(ms, ones, n, ORDER) == prob_lah(ms, n, r, ORDER)
    assert time.monotonic() - start < 30.0


@criterion("2b", "point mass collapses every probabilistic family")
def test_criterion_2b_point_mass_collapse():
    start = time.monotonic()
    ms = moments(point(1), ORDER)
    for n in range(ORDER + 1):
        for k in range(n + 1):
            assert prob_stirling2(ms, n, k, ORDER) == stirling2(n, k)
            assert prob_lah(ms, n, k, ORDER) == lah(n, k)
    for ks in GRID_TUPLES:
        for n in range(ORDER + 1):
            assert prob_multi_stirling2(ms, ks, n, ORDER) == multi_stirling2(ks, n, ORDER)
            assert prob_multi_lah(ms, ks, n, ORDER) == multi_lah(ks, n, ORDER), (
                f"prob_multi_lah(point(1), {ks}, {n}) = "
                f"{prob_multi_lah(ms, ks, n, ORDER)} differs from "
                f"multi_lah({ks}, {n}) = {multi_lah(ks, n, ORDER)}; the two "
                "defining compositions agree only for all-ones index tuples"
            )
    assert time.monotonic() - start < 30.0


@criterion(3, "recurrence and expansion identities hold across the grid")
def test_criterion_3_identity_battery():
    start = time.monotonic()
    ids = [
        "append-one",
        "append-one-deterministic",
        "first-kind-inversion",
        "bernoulli-expansion",
        "bernoulli-expansion-single-index",
        "fubini-convolution",
    ]
    reports = run_full_suite(order=ORDER, identities=ids)
    assert reports
    assert {r.identity for r in reports} == set(ids)
    bad = [r for r in reports if r.status != "pass"]
    assert not bad, bad[:3]
    assert time.monotonic() - start < 120.0


@criterion(4, "bernoulli convolution passes, at a zero mean too")
def test_criterion_4_bernoulli_convolution():
    reports = run_full_suite(order=ORDER, identities=["bernoulli-convolution"])
    assert len(reports) == len(GRID)
    assert all(r.status == "pass" for r in reports)
    with_zero_mean = list(GRID) + [(MEAN_ZERO, (1, 2))]
    reports = run_full_suite(grid=with_zero_mean, order=ORDER, identities=["bernoulli-convolution"])
    assert len(reports) == len(GRID) + 1
    assert all(r.status == "pass" for r in reports)


@criterion(5, "lah expansion: corrected form matches, literal form fails as documented")
def test_criterion_5_lah_expansion_evidence():
    reports = run_full_suite(
        order=ORDER,
        identities=["lah-via-first-kind-corrected", "lah-via-first-kind-literal"],
    )
    corrected = [r for r in reports if r.identity == "lah-via-first-kind-corrected"]
    assert len(corrected) == len(GRID)
    assert all(r.status == "pass" for r in corrected)
    literal = {
        (r.ks, r.dist): r for r in reports if r.identity == "lah-via-first-kind-literal"
    }
    witness = literal[((1, 1), "point:1")]
    assert witness.status == "expected-discrepancy"
    assert witness.first_mismatch == (3, F(6), F(12))


@criterion(6, "second-kind EGF route equals the moment route")
def test_criterion_6_cross_route_agreement():
    for spec in GRID_DISTS:
        ms = moments(spec, 10)
        for n in range(11):
            for k in range(n + 1):
                assert prob_stirling2(ms, n, k, 10) == prob_stirling2_by_moments(ms, n, k)


@criterion(7, "series kernel round trips on 200 randomized cases each")
def test_criterion_7_series_round_trips():
    rng = random.Random(20260810)
    n = 10

    def rand_series(constant=None):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        if constant is not None:
            coeffs[0] = F(constant)
        return Series(coeffs)

    for _ in range(200):
        a = rand_series(constant=0)
        assert Series(series_log(list(a.exp().coeffs))) == a
        b = rand_series(constant=1)
        assert Series(series_log(list(b.coeffs))).exp() == b

    for _ in range(200):
        c = rand_series()
        if c.coeff(0) == 0:
            c = c + 1
        assert c * c.inverse() == Series.one(n)

    for _ in range(200):
        f = rand_series()
        g = rand_series(constant=0)
        h = rand_series(constant=0)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


@criterion(8, "CLI output is byte-deterministic and the verifier exits 0")
def test_criterion_8_cli_determinism():
    # the child finds the package in the source tree, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "multinumbers", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        )

    table_args = ("table", "prob-multi-lah", "--ks", "1,2", "--dist", "poisson:1", "--order", "10")
    first = run(*table_args)
    second = run(*table_args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # not vacuous

    verify_args = ("verify", "--order", "12")
    first = run(*verify_args)
    second = run(*verify_args)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout
