"""The benchmark's workloads: the commands each one runs and the checks made
on their outputs.

Every check compares the program's stdout with numbers from
``reference.py`` or with a property the method must have.  A check takes
the map from command (a tuple of CLI arguments) to that command's stdout
and raises ``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from reference import bernoulli_order2, ordered_bell, stirling1_rows

Command = tuple[str, ...]

VERIFY_12 = ("verify", "--order", "12")
LIST_IDENTITIES = ("verify", "--list-identities")
MS2_23 = ("table", "multi-stirling2", "--ks", "2,3", "--order", "64")
MS2_231 = ("table", "multi-stirling2", "--ks", "2,3,1", "--order", "64")
MB_11 = ("table", "multi-bernoulli", "--ks", "1,1", "--order", "64")
PMS2_12 = ("table", "prob-multi-stirling2", "--ks", "1,2", "--dist", "poisson:1", "--order", "64")
PML_12 = ("table", "prob-multi-lah", "--ks", "1,2", "--dist", "poisson:1", "--order", "64")
PLAH_GEOM = ("table", "prob-lah", "--dist", "geometric:1/2", "--order", "64")
ORDER = 64


class CheckFailed(Exception):
    pass


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: program gives {got}, reference gives {want}")


def _table(out: bytes) -> dict:
    """JSON-lines table as {n: value} or, for two-index families, {(n, k): value}."""
    values = {}
    for line in out.decode().splitlines():
        rec = json.loads(line)
        key = rec["n"] if rec["k"] is None else (rec["n"], rec["k"])
        values[key] = Fraction(rec["value"])
    return values


def _reports(out: bytes) -> list[dict]:
    reports = [json.loads(line) for line in out.decode().splitlines()]
    if not reports:
        raise CheckFailed("verify printed no reports")
    return reports


# ------------------------------------------------------------ verify-12


def no_fail_report(out: dict[Command, bytes]) -> None:
    failed = sorted({r["identity"] for r in _reports(out[VERIFY_12]) if r["status"] == "fail"})
    if failed:
        raise CheckFailed(f"fail reports for {failed}")


def every_identity_reported(out: dict[Command, bytes]) -> None:
    listed = {line.split("\t")[0] for line in out[LIST_IDENTITIES].decode().splitlines()}
    if not listed:
        raise CheckFailed("--list-identities printed nothing")
    missing = listed - {r["identity"] for r in _reports(out[VERIFY_12])}
    if missing:
        raise CheckFailed(f"identities never reported: {sorted(missing)}")


def expected_discrepancies_in_scope(out: dict[Command, bytes]) -> None:
    for r in _reports(out[VERIFY_12]):
        if r["status"] != "expected-discrepancy":
            continue
        if r["identity"] == "lah-via-first-kind-literal":
            continue
        if r["identity"] == "point-mass-collapse-multi-lah" and any(k != 1 for k in r["ks"]):
            continue
        raise CheckFailed(f"unexpected expected-discrepancy: {r}")


# ------------------------------------------------------------ table-det-64


def append_one(out: dict[Command, bytes]) -> None:
    """ms2(2,3,1; n+1) = sum_m C(n, m) ms2(2,3; m) for every n < 64."""
    prefix, full = _table(out[MS2_23]), _table(out[MS2_231])
    for n in range(ORDER):
        want = sum(comb(n, m) * prefix[m] for m in range(n + 1))
        _expect_equal(f"ms2(2,3,1; {n + 1})", full[n + 1], want)


def bernoulli_all_ones(out: dict[Command, bytes]) -> None:
    """multi-Bernoulli(1,1; n) = (-1)^n B^(2)_n / 2!."""
    table = _table(out[MB_11])
    for n, b2 in enumerate(bernoulli_order2(ORDER)):
        _expect_equal(f"multi-Bernoulli(1,1; {n})", table[n], (-1) ** n * b2 / 2)


# ------------------------------------------------------------ table-prob-64


def lah_via_first_kind(out: dict[Command, bytes]) -> None:
    """prob-multi-lah(n) = sum_k prob-multi-stirling2(k) [n; k]."""
    second, lah = _table(out[PMS2_12]), _table(out[PML_12])
    for n, row in enumerate(stirling1_rows(ORDER)):
        want = sum(second[k] * row[k] for k in range(n + 1))
        _expect_equal(f"prob-multi-lah(1,2; {n})", lah[n], want)


def prob_lah_first_column(out: dict[Command, bytes]) -> None:
    """prob-lah(n, 1) = sum_k [n; k] mu_k, mu the geometric:1/2 moments."""
    table, mu = _table(out[PLAH_GEOM]), ordered_bell(ORDER)
    for n, row in enumerate(stirling1_rows(ORDER)):
        if n >= 1:
            want = sum(row[k] * mu[k] for k in range(n + 1))
            _expect_equal(f"prob-lah({n}, 1)", table[(n, 1)], want)


def prob_lah_diagonal(out: dict[Command, bytes]) -> None:
    """prob-lah(n, n) = mu_1^n."""
    table, mu1 = _table(out[PLAH_GEOM]), ordered_bell(1)[1]
    for n in range(ORDER + 1):
        _expect_equal(f"prob-lah({n}, {n})", table[(n, n)], mu1**n)


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]  # timed, each a cold process, one at a time
    checks: tuple[Callable[[dict[Command, bytes]], None], ...]
    probes: tuple[Command, ...] = ()  # run once, untimed, for the checks only


WORKLOADS: dict[str, Workload] = {
    "verify-12": Workload(
        commands=(VERIFY_12,),
        checks=(no_fail_report, every_identity_reported, expected_discrepancies_in_scope),
        probes=(LIST_IDENTITIES,),
    ),
    "table-det-64": Workload(
        commands=(MS2_23, MS2_231, MB_11),
        checks=(append_one, bernoulli_all_ones),
    ),
    "table-prob-64": Workload(
        commands=(PMS2_12, PML_12, PLAH_GEOM),
        checks=(lah_via_first_kind, prob_lah_first_column, prob_lah_diagonal),
    ),
}
