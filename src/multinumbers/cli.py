"""Command line front end.

Two subcommands:

* ``table``  -- stream one number family as JSON lines or CSV.
* ``verify`` -- run the identity suite over a grid and stream reports.

The command line is parsed by one loop, ``_parse_argv``, over one table,
``COMMANDS``: each command's function, positional argument and flags, each
flag with its attribute, parser, default and help line.  ``--help`` prints
that table.  The parse imports nothing: a general-purpose option parser
pulls in ``gettext``, ``locale``, ``shutil`` and the compression modules
behind it, which cost more cold-start time than an order-64 table takes
to compute.

Every family hands ``table`` integer columns ``(a, d)`` in lowest terms,
the values ``a[n] / d``, and each value is reduced by its own gcd and
written as the canonical string of that rational (``a`` or ``a/b``, as
``str(Fraction(a[n], d))`` gives it, never a float) with no ``Fraction``
made.  JSON lines and CSV rows are written with f-strings: every string
in them is a family name, an identity id, a canonical distribution
label, a fixed detail sentence or a rational, none of which JSON
escapes, and only a field holding a comma needs the quotes
``csv.writer`` would put round it.  So ``json`` is imported only to read
a ``--grid`` file, and ``csv`` not at all.  Output is byte-deterministic for
fixed flags.  Exit status:
0 success (and ``--help``), 1 verification failure, 2 usage error, with one
``error:`` line on stderr, 141 when stdout is a pipe whose reader has gone
(as for a process killed by SIGPIPE).
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

from .classical import _FIRST, _LAH, _SECOND, _columns, bernoulli_higher_series
from .identities import ALL_IDENTITIES, IDENTITIES, run_full_suite
from .moments import DistributionSpec, moments, parse_distribution
from .multi import multi_bernoulli_series, multi_lah_series, multi_stirling2_series
from .multilog import multilog
from .probabilistic import (
    prob_fubini_series,
    prob_lah_series,
    prob_multi_lah_series,
    prob_multi_stirling2_series,
    prob_stirling2_series,
)
from .report import EXPECTED_DISCREPANCY, FAIL, PASS, SKIPPED, VerificationReport

ORDER_CAP = 64
# table refuses inputs whose values would run to more bits than this before
# anything is computed.  CPython prints an int of at most 4300 decimal digits
# (about 14,300 bits) by default; a value between that and the cap is
# computed and then refused when it is printed.
BITS_CAP = 1 << 15


class Family(
    namedtuple("Family", ("inputs", "values", "two_index", "composed"), defaults=(False, False))
):
    """One ``table`` family.

    ``inputs`` names the flags it requires, of ks, dist, r and y; ``table``
    checks them in that order and refuses the others.  ``values(args,
    order)`` maps the parsed inputs (a ``SimpleNamespace``) and the order
    to the integer column ``(a, d)`` of the values ``a[n] / d`` for
    n = 0..order (``d > 0``, in lowest terms) or, for a ``two_index``
    family, to one such column per k = 0..order.
    ``composed`` marks a family whose value at n sums the
    multiple-logarithm coefficients of every chain end m <= n, so that its
    denominators grow like lcm(1..n)^k rather than n^k.
    """

    __slots__ = ()


def _multilog_column(a, order: int) -> tuple[tuple[int, ...], int]:
    series = multilog(a.ks, order)
    return series._num, series._den


def _triangle_columns(weights, order: int) -> list[tuple[tuple[int, ...], int]]:
    return [(column, 1) for column in _columns(weights, order)]


def _power_columns(series, ms, order: int) -> list[tuple[tuple[int, ...], int]]:
    return [series(ms, k, order).egf_column for k in range(order + 1)]


FAMILIES: dict[str, Family] = {
    "multilog": Family(("ks",), _multilog_column),
    "multi-stirling1": Family(("ks",), lambda a, order: multilog(a.ks, order).egf_column),
    "multi-stirling2": Family(
        ("ks",), lambda a, order: multi_stirling2_series(a.ks, order).egf_column, composed=True
    ),
    "multi-bernoulli": Family(
        ("ks",), lambda a, order: multi_bernoulli_series(a.ks, order).egf_column, composed=True
    ),
    "multi-lah": Family(
        ("ks",), lambda a, order: multi_lah_series(a.ks, order).egf_column, composed=True
    ),
    "stirling1": Family((), lambda a, order: _triangle_columns(_FIRST, order), two_index=True),
    "stirling2": Family((), lambda a, order: _triangle_columns(_SECOND, order), two_index=True),
    "lah": Family((), lambda a, order: _triangle_columns(_LAH, order), two_index=True),
    "bernoulli-higher": Family(
        ("r",), lambda a, order: bernoulli_higher_series(a.r, order).egf_column
    ),
    "prob-stirling2": Family(
        ("dist",),
        lambda a, order: _power_columns(prob_stirling2_series, a.ms, order),
        two_index=True,
    ),
    "prob-multi-stirling2": Family(
        ("ks", "dist"),
        lambda a, order: prob_multi_stirling2_series(a.ms, a.ks, order).egf_column,
        composed=True,
    ),
    "prob-lah": Family(
        ("dist",),
        lambda a, order: _power_columns(prob_lah_series, a.ms, order),
        two_index=True,
    ),
    "prob-multi-lah": Family(
        ("ks", "dist"),
        lambda a, order: prob_multi_lah_series(a.ms, a.ks, order).egf_column,
        composed=True,
    ),
    "prob-fubini": Family(
        ("dist", "r", "y"),
        lambda a, order: prob_fubini_series(a.ms, a.r, a.y, order).egf_column,
    ),
}


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


def _parse_dist(text: str) -> DistributionSpec:
    try:
        return parse_distribution(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_r(r: int) -> int:
    if r < 1:
        raise UsageError("--r must be a positive integer")
    return r


def _parse_y(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(
            f"--y must be an integer, an a/b rational or a decimal such as 0.5 or 1e-1, "
            f"got {text!r}"
        ) from exc


# the parser of each flag a family may require, in the order they are checked
_PARSERS = {"ks": _parse_ks, "dist": _parse_dist, "r": _parse_r, "y": _parse_y}


def _check_order_flag(order: int, force: bool) -> int:
    if order < 0:
        raise UsageError("--order must be non-negative")
    if order > ORDER_CAP and not force:
        raise UsageError(
            f"--order {order} exceeds the cap of {ORDER_CAP}; pass --force-order to override"
        )
    return order


def _param_bits(value) -> int:
    """Largest bit length of a numerator or denominator in a rational
    parameter or a nested tuple of them."""
    if isinstance(value, tuple):
        return max([_param_bits(v) for v in value], default=0)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _check_size(
    order: int, ks: tuple[int, ...], params: tuple, composed: bool, force: bool
) -> None:
    """Refuse inputs whose values would run past ``BITS_CAP`` bits, from an
    estimate that computes nothing.

    In a chain 0 < m_1 < ... < m_r <= N of the multiple logarithm index i
    reaches at most M_i = N - r + i.  The coefficient at n sums m_i^(-k_i)
    over every m_i <= M_i for i < r, about |k_i| log2(lcm(1..M_i)) bits, and
    fixes m_r = n, about |k_r| log2(N) bits; a ``composed`` family sums over
    every chain end as well, so its last index counts like the others.  The
    n-th moments of Y, and the coefficients built from them, grow by about
    the bits of the parameters (and log2 N) per order.
    """
    if force:
        return
    top = max(order, 1)
    bits = order * (top.bit_length() + _param_bits(params))
    r = len(ks)
    for i, k in enumerate(ks, 1):
        # lcm() of no arguments is 1; ceil(log2 x) = (x - 1).bit_length()
        reach = lcm(*range(1, order - r + i + 1)) if composed or i < r else top
        bits += abs(k) * (reach - 1).bit_length()
    if bits > BITS_CAP:
        raise UsageError(
            f"the values would run to about {bits} bits, past the cap of {BITS_CAP}; "
            "pass --force-order to override"
        )


def _value_strings(a, d: int) -> list[str]:
    """The values ``a[n] / d`` (``d > 0``) as ``str(Fraction(a[n], d))``
    writes them: ``p`` or ``p/q`` in lowest terms, the sign on ``p``.  Each
    value is reduced by its own gcd, so any column is written exactly; over
    ``d = 1`` each value is its numerator."""
    if d == 1:
        return [str(m) for m in a]
    return [f"{m // h}/{d // h}" if (h := gcd(m, d)) != d else str(m // h) for m in a]


def _table_rows(args) -> tuple[tuple[int, ...] | None, str | None, list[tuple]]:
    """The index tuple and the distribution label every row of the
    requested table shares (each None when the family takes none), and its
    rows ``(n, k, value)``, with ``k`` None for a one-index family and
    ``value`` a canonical rational string.  The flags the family requires
    are parsed, and a flag it does not use is refused."""
    family = FAMILIES[args.family]
    a = SimpleNamespace(ks=None, dist=None, ms=None, r=None, y=None)
    flags = vars(args)
    for flag in _PARSERS:
        given = flags[flag]
        if flag in family.inputs:
            if given is None:
                raise UsageError(f"family {args.family} requires --{flag}")
            setattr(a, flag, _PARSERS[flag](given))
        elif given is not None:
            raise UsageError(f"family {args.family} does not use --{flag}")
    order = args.order
    params = (a.dist.params if a.dist is not None else (), a.r or 0, a.y or 0)
    _check_size(order, a.ks or (), params, family.composed, args.force_order)
    try:
        if a.dist is not None:
            a.ms = moments(a.dist, order)
        values = family.values(a, order)
        # rendered inside the guard: a value past the int-to-str digit
        # limit is a usage error, not a traceback
        if family.two_index:
            # column k is read from row n = k on
            strings = [_value_strings(c[k:], d) for k, (c, d) in enumerate(values)]
            rows = [(n, k, strings[k][n - k]) for n in range(order + 1) for k in range(n + 1)]
        else:
            rows = [(n, None, value) for n, value in enumerate(_value_strings(*values))]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return a.ks, a.dist.label if a.dist is not None else None, rows


def _json_ints(ks: tuple[int, ...] | None) -> str:
    return "null" if ks is None else f"[{','.join(map(str, ks))}]"


def _json_text(text: str | None) -> str:
    return "null" if text is None else f'"{text}"'


def _report_line(rep: VerificationReport) -> str:
    """``rep`` as one compact JSON line: ``identity``, ``ks``, ``dist``,
    ``order``, ``status``, ``first_mismatch`` (``{n, lhs, rhs}`` or null)
    and, when it is not empty, ``detail``."""
    m = rep.first_mismatch
    mismatch = "null" if m is None else f'{{"n":{m.n},"lhs":"{m.lhs}","rhs":"{m.rhs}"}}'
    detail = f',"detail":"{rep.detail}"' if rep.detail else ""
    return (
        f'{{"identity":"{rep.identity}","ks":{_json_ints(rep.ks)},'
        f'"dist":{_json_text(rep.dist)},"order":{rep.order},"status":"{rep.status}",'
        f'"first_mismatch":{mismatch}{detail}}}\n'
    )


def _csv_field(text: str) -> str:
    return f'"{text}"' if "," in text else text


def _load_grid(path: str):
    import json

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
    ks, dist, rows = _table_rows(args)
    if args.format == "json":
        head = f'{{"family":"{args.family}","ks":{_json_ints(ks)},"dist":{_json_text(dist)}'
        lines = [
            f'{head},"n":{n},"k":{"null" if k is None else k},"value":"{value}"}}\n'
            for n, k, value in rows
        ]
    else:
        ks_field = _csv_field(",".join(map(str, ks or ())))
        head = f"{args.family},{ks_field},{_csv_field(dist or '')}"
        lines = ["family,ks,dist,n,k,value\n"]
        lines += [f"{head},{n},{'' if k is None else k},{value}\n" for n, k, value in rows]
    sys.stdout.writelines(lines)
    return 0


def _cmd_verify(args) -> int:
    if args.list_identities:
        sys.stdout.writelines(f"{entry.id}\t{entry.description}\n" for entry in IDENTITIES)
        return 0
    _check_order_flag(args.order, args.force_order)
    grid = _load_grid(args.grid) if args.grid else None
    # every cell is bounded before any is computed
    for i, (spec, ks) in enumerate(grid or ()):
        try:
            _check_size(args.order, ks, spec.params, composed=True, force=args.force_order)
        except UsageError as exc:
            raise UsageError(f"grid entry {i}: {exc}") from exc
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
        lines = [_report_line(rep) for rep in reports]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.writelines(lines)
    counts = Counter(rep.status for rep in reports)
    sys.stderr.write(
        f"verify: {counts[PASS]} pass, {counts[FAIL]} fail, {counts[SKIPPED]} skipped, "
        f"{counts[EXPECTED_DISCREPANCY]} expected-discrepancy\n"
    )
    return 1 if counts[FAIL] else 0


class Flag(namedtuple("Flag", ("attr", "parse", "default", "help"))):
    """One argument of a command: the attribute it sets, how its value is
    read (``int``, ``str``, the collection of accepted values, or None for
    a switch, which takes no value and sets True), its default and its
    help line."""

    __slots__ = ()


class Command(namedtuple("Command", ("func", "help", "positional", "flags"))):
    """One subcommand: the function that runs it, its help line, its one
    positional argument (a ``Flag``, or None) and its flags by name."""

    __slots__ = ()


_HELP = Flag(None, None, None, "print this help and exit")
_ORDER = Flag("order", int, 12, "truncation order (default 12)")
_FORCE = Flag(
    "force_order", None, False, f"allow --order above {ORDER_CAP} and inputs past the size cap"
)

COMMANDS: dict[str, Command] = {
    "table": Command(
        _cmd_table, "emit one family's values as JSON lines or CSV",
        Flag("family", FAMILIES, None, "the family to tabulate"),
        {
            "--ks": Flag("ks", str, None, "comma-separated integer index tuple, e.g. 1,2"),
            "--dist": Flag("dist", str, None, "distribution spec, e.g. bernoulli:1/2"),
            "--order": _ORDER,
            "--r": Flag("r", int, None, "power for bernoulli-higher / prob-fubini"),
            "--y": Flag("y", str, None, "rational argument for prob-fubini"),
            "--format": Flag("format", ("json", "csv"), "json", "output format (default json)"),
            "--force-order": _FORCE,
            "--help": _HELP,
        },
    ),
    "verify": Command(
        _cmd_verify, "run the identity suite and stream JSON reports", None,
        {
            "--order": _ORDER,
            "--grid": Flag("grid", str, None, "JSON file: list of {dist, ks} grid cells"),
            "--identity": Flag("identity", str, "all", "restrict to one identity id, or 'all'"),
            "--list-identities": Flag("list_identities", None, False, "list identity ids and exit"),
            "--force-order": _FORCE,
            "--help": _HELP,
        },
    ),
}
# the command line before its command: the command's name, or a request for help
_TOP = Command(
    None,
    "Exact tables of multiple-logarithm number families and a mechanical identity verifier.",
    Flag("command", COMMANDS, None, "the command to run"),
    {"--help": _HELP},
)


def _cmd_help(args) -> int:
    from textwrap import fill

    lines = ["usage: multinum COMMAND [FLAG ...]", "", _TOP.help]
    for name, command in COMMANDS.items():
        arg = command.positional
        usage = f"multinum {name} {arg.attr.upper()}" if arg else f"multinum {name}"
        lines += ["", f"{usage} [FLAG ...]", f"  {command.help}"]
        if arg:
            text = f"{arg.help}, one of: {', '.join(arg.parse)}"
            indent = f"  {arg.attr.upper():<22}"
            lines.append(
                fill(text, 78, initial_indent=indent, subsequent_indent=" " * 24,
                     break_on_hyphens=False)
            )
        for flag_name, flag in command.flags.items():
            if flag is _HELP:
                flag_name = "-h, --help"
            elif flag.parse in (int, str):
                flag_name += f" {flag.attr.upper()}"
            elif flag.parse:
                flag_name += f" {{{','.join(flag.parse)}}}"
            lines.append(f"  {flag_name:<22}{flag.help}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _value(name: str, parse, text: str):
    if parse is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"{name} must be an integer, got {text!r}") from None
    if parse is not str and text not in parse:
        raise UsageError(f"{name} must be one of {', '.join(parse)}; got {text!r}")
    return text


def _parse_argv(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: ``command`` and ``func``, the command's
    positional argument and the attribute of each of its flags, at its
    default unless given, or a request for help.

    A token that starts with ``-`` (other than ``-`` itself) is a flag: its
    full name, ``-h`` for ``--help``, or a prefix of exactly one name,
    followed by ``=value`` or, for a flag that takes one, by the next token
    as its value, whatever that token looks like.  Flags go before or after
    the positional argument, and a repeated flag keeps its last value.
    Anything else is refused with a ``UsageError``.
    """
    command, args = _TOP, SimpleNamespace()
    positional = command.positional
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-") or token == "-":
            if positional is None:
                raise UsageError(f"unexpected argument {token!r}")
            setattr(args, positional.attr, _value(positional.attr, positional.parse, token))
            positional = None
            if command is _TOP:
                command = COMMANDS[token]
                positional = command.positional
                args.func = command.func
                for flag in command.flags.values():
                    if flag.attr:
                        setattr(args, flag.attr, flag.default)
            continue
        name, eq, value = token.partition("=") if token != "-h" else ("--help", "", "")
        flags = command.flags
        names = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(names) != 1:
            raise UsageError(
                f"ambiguous flag {name}: could be {', '.join(names)}" if names
                else f"unknown flag {name}"
            )
        name = names[0]
        flag = flags[name]
        if flag.parse is None:
            if eq:
                raise UsageError(f"{name} takes no value")
            if flag is _HELP:
                return SimpleNamespace(func=_cmd_help)
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"{name} needs a value")
            value = _value(name, flag.parse, value)
        setattr(args, flag.attr, value)
    if positional is not None:
        raise UsageError(f"missing {positional.attr}: one of {', '.join(positional.parse)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        status = args.func(args)
        # a reader that has gone away is met here, not in the flush at exit
        sys.stdout.flush()
        return status
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # stdout goes to /dev/null so that the flush at exit writes nowhere
        # and prints nothing; the status is a SIGPIPE death's, 128 + 13
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
