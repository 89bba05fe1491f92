"""Command line front end.

Two subcommands:

* ``table``  -- stream one number family as JSON lines or CSV.
* ``verify`` -- run the identity suite over a grid and stream reports.

All rationals are rendered as canonical strings (``a`` or ``a/b``), never
as floats, and output is byte-deterministic for fixed flags.  Exit status:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Iterator, Optional

from .classical import bernoulli_higher, lah, stirling1, stirling2
from .identities import ALL_IDENTITIES, IDENTITY_DESCRIPTIONS, run_full_suite
from .moments import DistributionSpec, moments, parse_distribution
from .multi import multi_bernoulli, multi_lah, multi_stirling2
from .multilog import multi_stirling1, multilog
from .probabilistic import (
    prob_fubini,
    prob_lah,
    prob_multi_lah,
    prob_multi_stirling2,
    prob_stirling2,
)
from .report import FAIL, VerificationReport

ORDER_CAP = 64

FAMILIES = (
    "multilog",
    "multi-stirling1",
    "multi-stirling2",
    "multi-bernoulli",
    "multi-lah",
    "stirling1",
    "stirling2",
    "lah",
    "bernoulli-higher",
    "prob-stirling2",
    "prob-multi-stirling2",
    "prob-lah",
    "prob-multi-lah",
    "prob-fubini",
)

_NEEDS_KS = {
    "multilog",
    "multi-stirling1",
    "multi-stirling2",
    "multi-bernoulli",
    "multi-lah",
    "prob-multi-stirling2",
    "prob-multi-lah",
}
_NEEDS_DIST = {
    "prob-stirling2",
    "prob-multi-stirling2",
    "prob-lah",
    "prob-multi-lah",
    "prob-fubini",
}
_TWO_INDEX = {"stirling1", "stirling2", "lah", "prob-stirling2", "prob-lah"}


class UsageError(Exception):
    pass


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--ks must be comma-separated integers, got {text!r}") from exc
    if not ks:
        raise UsageError("--ks must not be empty")
    return ks


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} must be an integer or a/b rational, got {text!r}") from exc


def _check_order_flag(order: int, force: bool) -> int:
    if order < 0:
        raise UsageError("--order must be non-negative")
    if order > ORDER_CAP and not force:
        raise UsageError(
            f"--order {order} exceeds the cap of {ORDER_CAP}; pass --force-order to override"
        )
    return order


def _table_records(args) -> Iterator[dict]:
    family = args.family
    order = args.order
    ks: Optional[tuple[int, ...]] = None
    spec: Optional[DistributionSpec] = None
    ms = None

    if family in _NEEDS_KS:
        if args.ks is None:
            raise UsageError(f"family {family} requires --ks")
        ks = _parse_ks(args.ks)
    if family in _NEEDS_DIST:
        if args.dist is None:
            raise UsageError(f"family {family} requires --dist")
        try:
            spec = parse_distribution(args.dist)
            ms = moments(spec, order)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if family == "bernoulli-higher" or family == "prob-fubini":
        if args.r is None:
            raise UsageError(f"family {family} requires --r")
        if args.r < 1:
            raise UsageError("--r must be a positive integer")
    y = None
    if family == "prob-fubini":
        if args.y is None:
            raise UsageError("family prob-fubini requires --y")
        y = _parse_rational(args.y, "--y")

    ks_field = list(ks) if ks is not None else None
    dist_field = spec.label if spec is not None else None

    def record(n: int, k: Optional[int], value: Fraction) -> dict:
        return {
            "family": family,
            "ks": ks_field,
            "dist": dist_field,
            "n": n,
            "k": k,
            "value": str(value),
        }

    try:
        if family == "multilog":
            series = multilog(ks, order)
            for n in range(order + 1):
                yield record(n, None, series.coeff(n))
        elif family == "multi-stirling1":
            for n in range(order + 1):
                yield record(n, None, multi_stirling1(ks, n, order))
        elif family == "multi-stirling2":
            for n in range(order + 1):
                yield record(n, None, multi_stirling2(ks, n, order))
        elif family == "multi-bernoulli":
            for n in range(order + 1):
                yield record(n, None, multi_bernoulli(ks, n, order))
        elif family == "multi-lah":
            for n in range(order + 1):
                yield record(n, None, multi_lah(ks, n, order))
        elif family == "bernoulli-higher":
            for n in range(order + 1):
                yield record(n, None, bernoulli_higher(n, args.r, order))
        elif family == "stirling1":
            for n in range(order + 1):
                for k in range(n + 1):
                    yield record(n, k, Fraction(stirling1(n, k)))
        elif family == "stirling2":
            for n in range(order + 1):
                for k in range(n + 1):
                    yield record(n, k, Fraction(stirling2(n, k)))
        elif family == "lah":
            for n in range(order + 1):
                for k in range(n + 1):
                    yield record(n, k, Fraction(lah(n, k)))
        elif family == "prob-stirling2":
            for n in range(order + 1):
                for k in range(n + 1):
                    yield record(n, k, prob_stirling2(ms, n, k, order))
        elif family == "prob-lah":
            for n in range(order + 1):
                for k in range(n + 1):
                    yield record(n, k, prob_lah(ms, n, k, order))
        elif family == "prob-multi-stirling2":
            for n in range(order + 1):
                yield record(n, None, prob_multi_stirling2(ms, ks, n, order))
        elif family == "prob-multi-lah":
            for n in range(order + 1):
                yield record(n, None, prob_multi_lah(ms, ks, n, order))
        elif family == "prob-fubini":
            for n in range(order + 1):
                yield record(n, None, prob_fubini(ms, args.r, y, n, order))
        else:  # pragma: no cover - argparse choices forbid this
            raise UsageError(f"unknown family {family!r}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit_records(records, fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["family", "ks", "dist", "n", "k", "value"])
        for rec in records:
            writer.writerow(
                [
                    rec["family"],
                    "" if rec["ks"] is None else ",".join(str(k) for k in rec["ks"]),
                    "" if rec["dist"] is None else rec["dist"],
                    rec["n"],
                    "" if rec["k"] is None else rec["k"],
                    rec["value"],
                ]
            )


def _report_to_dict(rep: VerificationReport) -> dict:
    mismatch = None
    if rep.first_mismatch is not None:
        mismatch = {
            "n": rep.first_mismatch.n,
            "lhs": str(rep.first_mismatch.lhs),
            "rhs": str(rep.first_mismatch.rhs),
        }
    out = {
        "identity": rep.identity,
        "ks": list(rep.ks) if rep.ks is not None else None,
        "dist": rep.dist,
        "order": rep.order,
        "status": rep.status,
        "first_mismatch": mismatch,
    }
    if rep.detail:
        out["detail"] = rep.detail
    return out


def _load_grid(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read grid file {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise UsageError("grid file must hold a JSON list of {dist, ks} objects")
    grid = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "dist" not in entry or "ks" not in entry:
            raise UsageError(f"grid entry {i} must be an object with 'dist' and 'ks'")
        ks = entry["ks"]
        if not isinstance(ks, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in ks
        ):
            raise UsageError(f"grid entry {i}: 'ks' must be a list of integers, got {ks!r}")
        ks = tuple(ks)
        try:
            spec = parse_distribution(entry["dist"])
        except (ValueError, TypeError) as exc:
            raise UsageError(f"grid entry {i} is malformed: {exc}") from exc
        if not ks:
            raise UsageError(f"grid entry {i} has an empty index tuple")
        grid.append((spec, ks))
    return grid


def _cmd_table(args) -> int:
    _check_order_flag(args.order, args.force_order)
    records = list(_table_records(args))
    _emit_records(records, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    _check_order_flag(args.order, args.force_order)
    grid = _load_grid(args.grid) if args.grid else None
    identities = None
    if args.identity != "all":
        if args.identity not in ALL_IDENTITIES:
            known = ", ".join(ALL_IDENTITIES)
            raise UsageError(f"unknown identity {args.identity!r}; known: {known}")
        identities = [args.identity]
    try:
        reports = run_full_suite(grid=grid, order=args.order, identities=identities)
        # rendered in full before any is written; a value too large for str()
        # becomes a usage error rather than a traceback after partial output
        lines = [
            json.dumps(_report_to_dict(rep), separators=(",", ":")) + "\n" for rep in reports
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.writelines(lines)
    counts = {"pass": 0, "fail": 0, "skipped": 0, "expected-discrepancy": 0}
    for rep in reports:
        counts[rep.status] += 1
    sys.stderr.write(
        "verify: {pass} pass, {fail} fail, {skipped} skipped, "
        "{expected} expected-discrepancy\n".format(
            expected=counts["expected-discrepancy"], **{k: counts[k] for k in ("pass", "fail", "skipped")}
        )
    )
    return 1 if any(rep.status == FAIL for rep in reports) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multinum",
        description="Exact tables of multiple-logarithm number families and a mechanical identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit one family's values as JSON lines or CSV")
    table.add_argument("family", choices=FAMILIES)
    table.add_argument("--ks", help="comma-separated integer index tuple, e.g. 1,2")
    table.add_argument("--dist", help="distribution spec, e.g. bernoulli:1/2")
    table.add_argument("--order", type=int, default=12, help="truncation order (default 12)")
    table.add_argument("--r", type=int, help="power for bernoulli-higher / prob-fubini")
    table.add_argument("--y", help="rational argument for prob-fubini")
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument(
        "--force-order", action="store_true", help=f"allow --order above {ORDER_CAP}"
    )
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run the identity suite and stream JSON reports")
    verify.add_argument("--order", type=int, default=12, help="truncation order (default 12)")
    verify.add_argument("--grid", help="JSON file: list of {dist, ks} grid cells")
    verify.add_argument(
        "--identity",
        default="all",
        help="restrict to one identity id (see --list-identities), or 'all'",
    )
    verify.add_argument(
        "--list-identities", action="store_true", help="print identity ids and exit"
    )
    verify.add_argument(
        "--force-order", action="store_true", help=f"allow --order above {ORDER_CAP}"
    )
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "list_identities", False):
            for name in ALL_IDENTITIES:
                sys.stdout.write(f"{name}\t{IDENTITY_DESCRIPTIONS[name]}\n")
            return 0
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
