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

Every family hands ``table`` integers in lowest terms, a column ``(a, d)``
of the values ``a[n] / d`` or, for a two-index family, a triangle
``(columns, d)`` over one denominator.  Each value is reduced by its own
gcd and written as the canonical string of that rational (``a`` or
``a/b``, as ``str(Fraction(a[n], d))`` gives it, never a float) by one
``series._value_strings`` call per table, with no ``Fraction`` made.
``--y`` and the spec parameters are read into integer pairs, and
``verify`` writes each mismatch from the two integer pairs compared, by
the same formatter, so
neither command imports ``fractions`` when its rationals are integers or
``a/b`` text; a decimal or exponent literal is read by ``Fraction``.  JSON lines and CSV rows are
written with f-strings: every string in them is a family name, an
identity id, a canonical distribution label, a fixed detail sentence or
a rational, none of which JSON escapes, and only a field holding a comma
needs the quotes ``csv.writer`` would put round it.  So ``json`` is imported only to read a
``--grid`` file, and ``csv`` not at all.  Output is byte-deterministic for
fixed flags.  Exit status:
0 success (and ``--help``), 1 verification failure, 2 usage error, with one
``error:`` line on stderr, 141 when stdout is a pipe whose reader has gone
(as for a process killed by SIGPIPE).

``main`` returns that status.  ``entrypoint``, behind ``python -m
multinumbers``, ``python -m multinumbers.cli`` and the ``multinum`` script,
is the one way a command-line process ends: it flushes stdout and stderr
and leaves by ``os._exit``, with no interpreter teardown.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from math import lcm
from types import SimpleNamespace

from .classical import _FIRST, _LAH, _SECOND, _columns, bernoulli_higher_series
from .identities import ALL_IDENTITIES, IDENTITIES, run_full_suite
from .moments import DistributionSpec, mgf, moments, parse_distribution, resolvent
from .multi import multi_bernoulli_series, multi_lah_series, multi_stirling2_series
from .multilog import multilog
from .probabilistic import (
    _fubini_series,
    _power_triangle,
    prob_multi_lah_series,
    prob_multi_stirling2_series,
)
from .report import EXPECTED_DISCREPANCY, FAIL, PASS, VerificationReport
from .series import _check_digits, _rational, _text, _value_strings

ORDER_CAP = 64
# table refuses inputs whose values would run to more bits than this before
# anything is computed.  CPython prints an int of at most 4300 decimal digits
# (about 14,300 bits) by default; a value between that and the cap is
# computed and then refused when it is printed.
BITS_CAP = 1 << 15


class Family(
    namedtuple(
        "Family",
        ("inputs", "values", "two_index", "composed", "shifted"),
        defaults=(False, False, False),
    )
):
    """One ``table`` family.

    ``inputs`` names the flags it requires, of ks, dist, r and y; ``table``
    checks them in that order and refuses the others.  ``values(args,
    order)`` maps the parsed inputs (a ``SimpleNamespace``) and the order
    to the integer column ``(a, d)`` of the values ``a[n] / d`` for
    n = 0..order (``d > 0``, in lowest terms) or, for a ``two_index``
    family, to one triangle ``(columns, d)`` of the values
    ``columns[k][n] / d`` for n, k = 0..order, in lowest terms as a whole:
    ``(_columns(weights, order), 1)`` or ``_power_triangle`` at M or R.
    ``composed`` marks a family whose value at n sums the
    multiple-logarithm coefficients of every chain end m <= n, so that its
    denominators grow like lcm(1..n)^k rather than n^k.  ``shifted`` marks
    a family that reads the multiple logarithm r orders past N, as
    multi-Bernoulli does, so that its chains reach N + r.
    """

    __slots__ = ()


def _multilog_column(a, order: int) -> tuple[tuple[int, ...], int]:
    series = multilog(a.ks, order)
    return series._num, series._den


FAMILIES: dict[str, Family] = {
    "multilog": Family(("ks",), _multilog_column),
    "multi-stirling1": Family(("ks",), lambda a, order: multilog(a.ks, order).egf_column),
    "multi-stirling2": Family(
        ("ks",), lambda a, order: multi_stirling2_series(a.ks, order).egf_column, composed=True
    ),
    "multi-bernoulli": Family(
        ("ks",),
        lambda a, order: multi_bernoulli_series(a.ks, order).egf_column,
        composed=True,
        shifted=True,
    ),
    "multi-lah": Family(
        ("ks",), lambda a, order: multi_lah_series(a.ks, order).egf_column, composed=True
    ),
    "stirling1": Family((), lambda a, order: (_columns(_FIRST, order), 1), two_index=True),
    "stirling2": Family((), lambda a, order: (_columns(_SECOND, order), 1), two_index=True),
    "lah": Family((), lambda a, order: (_columns(_LAH, order), 1), two_index=True),
    "bernoulli-higher": Family(
        ("r",), lambda a, order: bernoulli_higher_series(a.r, order).egf_column
    ),
    "prob-stirling2": Family(
        ("dist",), lambda a, order: _power_triangle(mgf(a.ms, order)), two_index=True
    ),
    "prob-multi-stirling2": Family(
        ("ks", "dist"),
        lambda a, order: prob_multi_stirling2_series(a.ms, a.ks, order).egf_column,
        composed=True,
    ),
    "prob-lah": Family(
        ("dist",), lambda a, order: _power_triangle(resolvent(a.ms, order)), two_index=True
    ),
    "prob-multi-lah": Family(
        ("ks", "dist"),
        lambda a, order: prob_multi_lah_series(a.ms, a.ks, order).egf_column,
        composed=True,
    ),
    "prob-fubini": Family(
        ("dist", "r", "y"),
        lambda a, order: _fubini_series(mgf(a.ms, order), a.r, a.y).egf_column,
    ),
}


class UsageError(Exception):
    pass


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--ks must be comma-separated integers, got {text!r}") from exc


def _parse_dist(text: str) -> DistributionSpec:
    try:
        return parse_distribution(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_r(r: int) -> int:
    if r < 1:
        raise UsageError("--r must be a positive integer")
    return r


def _parse_y(text: str) -> tuple[int, int]:
    _check_digits(text, "--y", UsageError)
    try:
        return _rational(text)
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
    """Largest bit length of a numerator or denominator in a nested tuple of
    integer pairs ``(p, q)`` and integers, each integer read over 1."""
    if isinstance(value, tuple):
        return max([_param_bits(v) for v in value], default=0)
    return max(value.bit_length(), 1)


def _check_size(
    order: int, ks: tuple[int, ...], params: tuple, composed: bool, force: bool, shift: int = 0
) -> None:
    """Refuse inputs whose values would run past ``BITS_CAP`` bits, from an
    estimate that computes nothing.

    In a chain 0 < m_1 < ... < m_r <= N of the multiple logarithm index i
    reaches at most M_i = N - r + i.  The coefficient at n sums m_i^(-k_i)
    over every m_i <= M_i for i < r, about |k_i| log2(lcm(1..M_i)) bits, and
    fixes m_r = n, about |k_r| log2(N) bits; a ``composed`` family sums over
    every chain end as well, so its last index counts like the others, and
    one that reads the multiple logarithm to order N + ``shift`` has chains
    that reach ``shift`` further.  The n-th moments of Y, and the
    coefficients built from them, grow by about log2 N and the bits of the
    parameters ``params``, one entry per parameter the family takes, added
    per order: the Fubini series multiplies the law's moments by powers of
    y and takes the r-th power, and every other family takes at most one.
    """
    if force:
        return
    top = max(order, 1)
    per_order = max(sum(map(_param_bits, params)), 1)
    bits = order * (top.bit_length() + per_order)
    r = len(ks)
    # ell = lcm(1..m), carried up the reaches, which grow with i, and only
    # for an index that counts it; the sum stops once it passes the cap, so
    # a refused tuple is printed with a partial sum.  ceil(log2 x) is
    # (x - 1).bit_length()
    ell = m = 1
    for i, k in enumerate(ks, 1):
        if composed or i < r:
            reach = order + shift - r + i
            if k and reach > m:
                ell = lcm(ell, *range(m + 1, reach + 1))
                m = reach
            bits += abs(k) * (ell - 1).bit_length()
        else:
            bits += abs(k) * (top - 1).bit_length()
        if bits > BITS_CAP:
            break
    if bits > BITS_CAP:
        try:
            shown = str(bits)
        except ValueError:  # past the int-to-str digit limit; the cap passed is a bound too
            shown = BITS_CAP + 1
        raise UsageError(
            f"the values would run to at least {shown} bits, past the cap of {BITS_CAP}; "
            "pass --force-order to override"
        )


def _table_rows(args) -> tuple[tuple[int, ...] | None, str | None, list[tuple]]:
    """The index tuple and the distribution label every row of the
    requested table shares (each None when the family takes none), and its
    rows ``(n, k, value)``, with ``k`` None for a one-index family and
    ``value`` a canonical rational string.  The flags the family requires
    are parsed, and a flag it does not use is refused.  Every table is
    written by one :func:`series._value_strings` call, over its column or,
    for a two-index family, over the entries of its triangle taken column
    by column, which the rows index."""
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
    params = tuple(
        a.dist.pairs if flag == "dist" else getattr(a, flag)
        for flag in family.inputs
        if flag != "ks"
    )
    shift = len(a.ks) if family.shifted else 0
    _check_size(order, a.ks or (), params, family.composed, args.force_order, shift)
    try:
        if a.dist is not None:
            a.ms = moments(a.dist, order)
        values = family.values(a, order)
        # rendered inside the guard: a value past the int-to-str digit
        # limit is a usage error, not a traceback
        if family.two_index:
            # one formatter call over the columns, each read from row n = k
            # on: (n, k) is at k (order + 1) - k (k - 1) / 2 + n - k
            columns, d = values
            strings = _value_strings([x for k, c in enumerate(columns) for x in c[k:]], d)
            base = [k * order - k * (k - 1) // 2 for k in range(order + 1)]
            rows = [(n, k, strings[base[k] + n]) for n in range(order + 1) for k in range(n + 1)]
        else:
            rows = [(n, None, value) for n, value in enumerate(_value_strings(*values))]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return a.ks, a.dist.label if a.dist is not None else None, rows


def _report_line(rep: VerificationReport, ks_json: str) -> str:
    """``rep`` as one compact JSON line: ``identity``, ``ks``, ``dist``,
    ``order``, ``status``, ``first_mismatch`` (``{n, lhs, rhs}`` or null)
    and, when it is not empty, ``detail``.  ``ks_json`` is the JSON text of
    ``rep.ks``, formed once per index tuple by the caller, so a report that
    matches makes no interpreter call of its own."""
    m = rep.first_mismatch
    if m is None:
        mismatch = "null"
    else:
        lhs, rhs = m.pairs
        mismatch = f'{{"n":{m.n},"lhs":"{_text(lhs)}","rhs":"{_text(rhs)}"}}'
    detail = f',"detail":"{rep.detail}"' if rep.detail else ""
    dist = "null" if rep.dist is None else f'"{rep.dist}"'
    return (
        f'{{"identity":"{rep.identity}","ks":{ks_json},"dist":{dist},"order":{rep.order},'
        f'"status":"{rep.status}","first_mismatch":{mismatch}{detail}}}\n'
    )


def _csv_field(text: str) -> str:
    return f'"{text}"' if "," in text else text


def _load_grid(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read grid file {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise UsageError("grid file must hold a JSON list of {dist, ks} objects")
    grid = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "dist" not in entry or "ks" not in entry:
            raise UsageError(f"grid entry {i} must be an object with 'dist' and 'ks'")
        unknown = sorted(entry.keys() - {"dist", "ks"})
        if unknown:
            raise UsageError(f"grid entry {i} has unknown keys {unknown}")
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
        ks_json = "null" if ks is None else f"[{','.join(map(str, ks))}]"
        dist_json = "null" if dist is None else f'"{dist}"'
        head = f'{{"family":"{args.family}","ks":{ks_json},"dist":{dist_json}'
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


def _check_grid(order: int, grid, force: bool) -> None:
    """Bound every cell of a ``verify`` grid before any is computed: its index
    tuple and, once per length r, the all-ones tuple of that length, which
    the all-ones checks build whatever the cell's indices.  Both are
    estimated at reach N + r, where the checks read each as multi-Bernoulli
    (the cell's own tuple in ``bernoulli-expansion`` and
    ``bernoulli-convolution``)."""
    lengths = set()
    for i, (spec, ks) in enumerate(grid):
        r = len(ks)
        sizes = [("", ks, spec.pairs, r)]
        if r not in lengths:
            lengths.add(r)
            sizes.append((f"the all-ones tuple of length {r}: ", (1,) * r, (), r))
        for what, tup, params, shift in sizes:
            try:
                _check_size(order, tup, params, True, force, shift)
            except UsageError as exc:
                raise UsageError(f"grid entry {i}: {what}{exc}") from exc


def _cmd_verify(args) -> int:
    if args.list_identities:
        sys.stdout.writelines(f"{entry.id}\t{entry.description}\n" for entry in IDENTITIES)
        return 0
    _check_order_flag(args.order, args.force_order)
    grid = _load_grid(args.grid) if args.grid else None
    _check_grid(args.order, grid or (), args.force_order)
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
        ks_json = {
            ks: "null" if ks is None else f"[{','.join(map(str, ks))}]"
            for ks in {rep.ks for rep in reports}
        }
        lines = [_report_line(rep, ks_json[rep.ks]) for rep in reports]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.writelines(lines)
    statuses = [rep.status for rep in reports]
    failed = statuses.count(FAIL)
    sys.stderr.write(
        f"verify: {statuses.count(PASS)} pass, {failed} fail, "
        f"{statuses.count(EXPECTED_DISCREPANCY)} expected-discrepancy\n"
    )
    return 1 if failed else 0


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


def entrypoint() -> None:
    """Run :func:`main` on the command line, flush stdout and stderr and end
    the process with its status by ``os._exit``.  The interpreter's
    teardown, which frees every module, cache and big integer and writes
    nothing, does not run, and neither do ``atexit`` handlers.  The library
    opens no file for writing, so the two streams are all there is to
    flush.  An exception that escapes ``main`` leaves as usual, with its
    traceback and status 1."""
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # here, not at the top: importing the module loads no os
    import os

    os._exit(status)


if __name__ == "__main__":
    entrypoint()
