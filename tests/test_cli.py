import collections
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multinumbers.classical import bernoulli_higher_series, lah, stirling1, stirling2
from multinumbers.cli import (
    COMMANDS, FAMILIES, ORDER_CAP, UsageError, _PARSERS, _check_grid, _check_size, _parse_argv,
    _value_strings, main,
)
from multinumbers.identities import default_grid, run_full_suite
from multinumbers.moments import moments, parse_distribution
from multinumbers.multi import multi_bernoulli_series, multi_lah_series, multi_stirling2_series
from multinumbers.multilog import multilog
from multinumbers.probabilistic import (
    prob_fubini_series, prob_lah, prob_multi_lah_series, prob_multi_stirling2_series,
    prob_stirling2,
)
from oracles import argparse_namespace

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


# ---------------------------------------------------------------- table


def test_table_stirling2_contains_known_entry(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling2", "--order", "4")
    assert code == 0
    records = json_lines(out)
    assert {"family": "stirling2", "ks": None, "dist": None, "n": 4, "k": 2, "value": "7"} in records
    assert len(records) == sum(n + 1 for n in range(5))


def test_table_prob_fubini_ordered_partition_counts(capsys):
    code, out, _ = run_cli(
        capsys, "table", "prob-fubini", "--dist", "point:1", "--r", "1", "--y", "1", "--order", "3"
    )
    assert code == 0
    assert [rec["value"] for rec in json_lines(out)] == ["1", "1", "3", "13"]


def test_table_multi_stirling1_rational_value(capsys):
    code, out, _ = run_cli(capsys, "table", "multi-stirling1", "--ks", "2", "--order", "3")
    assert code == 0
    records = json_lines(out)
    assert records[-1] == {
        "family": "multi-stirling1",
        "ks": [2],
        "dist": None,
        "n": 3,
        "k": None,
        "value": "2/3",
    }


def test_table_csv_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "table", "prob-stirling2", "--dist", "bernoulli:1/2", "--order", "3",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["family"] == "prob-stirling2"
    for row in rows:
        F(row["value"])  # canonical rational literal
        parse_distribution(row["dist"])
    assert {(r["n"], r["k"]) for r in rows} == {
        (str(n), str(k)) for n in range(4) for k in range(n + 1)
    }


@pytest.mark.parametrize("literal, rational", [("1e1", "10"), ("0.5", "1/2")])
def test_decimal_and_exponent_literals_read_as_the_rationals_they_spell(capsys, literal, rational):
    runs = [
        run_cli(capsys, "table", "prob-fubini", "--dist", dist, "--r", "1", "--y", y, "--order", "5")
        for dist, y in (("poisson:0.5", literal), ("poisson:1/2", rational))
    ]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0 and json_lines(out)[0]["dist"] == "poisson:1/2"


def test_a_bad_y_names_every_accepted_spelling(capsys):
    argv = ("table", "prob-fubini", "--dist", "point:1", "--r", "1", "--y", "x", "--order", "3")
    assert run_cli(capsys, *argv) == (
        2,
        "",
        "error: --y must be an integer, an a/b rational or a decimal such as 0.5 or 1e-1, "
        "got 'x'\n",
    )


def test_every_value_round_trips_through_the_grammar(capsys):
    code, out, _ = run_cli(capsys, "table", "multi-bernoulli", "--ks", "1,2", "--order", "8")
    assert code == 0
    for rec in json_lines(out):
        value = F(rec["value"])
        assert str(value) == rec["value"]


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "prob-stirling2", "--order", "3"),  # missing --dist
        ("table", "multilog", "--order", "3"),  # missing --ks
        ("table", "prob-fubini", "--dist", "point:1", "--y", "1", "--order", "3"),  # missing --r
        ("table", "prob-lah", "--dist", "bogus:1", "--order", "3"),  # bad dist
        ("table", "multilog", "--ks", "a,b", "--order", "3"),  # bad ks
        ("table", "stirling2", "--order", "70"),  # above cap
        ("verify", "--identity", "no-such-identity"),
        ("verify", "--order", "-1"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


# a valid value of each flag a family may require
FAMILY_FLAG_VALUES = {"ks": "1,2", "dist": "point:1", "r": "1", "y": "1"}


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
@pytest.mark.parametrize(
    "family, flag",
    [(name, flag) for name in FAMILIES for flag in FAMILY_FLAG_VALUES
     if flag not in FAMILIES[name].inputs],
)
def test_a_flag_the_family_does_not_use_is_refused(capsys, family, flag, joined):
    needed = [f"--{f}={FAMILY_FLAG_VALUES[f]}" for f in FAMILIES[family].inputs]
    value = FAMILY_FLAG_VALUES[flag]
    unused = [f"--{flag}={value}"] if joined else [f"--{flag}", value]
    assert run_cli(capsys, "table", family, *needed, "--order", "3")[0] == 0
    assert run_cli(capsys, "table", family, *needed, *unused, "--order", "3") == (
        2, "", f"error: family {family} does not use --{flag}\n"
    )


def test_the_unused_flags_of_a_two_index_family_are_refused_before_they_are_parsed(capsys):
    argv = ("table", "stirling2", "--order", "1", "--dist", "bogus:1", "--ks", "x", "--y", "zz",
            "--r", "0")
    assert run_cli(capsys, *argv) == (2, "", "error: family stirling2 does not use --ks\n")


def test_unknown_family_is_a_usage_error_naming_the_families(capsys):
    code, out, err = run_cli(capsys, "table", "not-a-family")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'not-a-family'" in err
    assert all(family in err for family in FAMILIES)


@pytest.mark.parametrize(
    "family, flags, field, value",
    [
        ("prob-fubini", ("--dist", "point:1", "--r", "1", "--y", "-1/2"), "value", "-1/2"),
        ("multilog", ("--ks", "-1,2"), "ks", [-1, 2]),
    ],
)
def test_a_negative_value_may_be_its_own_token(capsys, family, flags, field, value):
    joined = [f"{flag}={given}" for flag, given in zip(flags[::2], flags[1::2])]
    code, out, err = run_cli(capsys, "table", family, *flags, "--order", "4")
    assert (code, err) == (0, "")
    assert json_lines(out)[1][field] == value
    assert run_cli(capsys, "table", family, *joined, "--order", "4") == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("-h",),
        ("--help",),
        ("--he",),
        ("table", "-h"),
        ("table", "stirling2", "--order", "3", "--help"),
        ("verify", "--h"),
    ],
)
def test_help_names_every_command_flag_and_family(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: multinum ")
    words = set(re.findall(r"[\w-]+", out))
    for name, command in COMMANDS.items():
        assert f"multinum {name}" in out
        assert set(command.flags) <= words, name
    assert set(FAMILIES) <= words


def test_order_cap_override(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling1", "--order", "65", "--force-order")
    assert code == 0
    assert json_lines(out)[-1]["n"] == 65


# ---------------------------------------------------------------- verify


def test_verify_single_identity_filter(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "first-kind-inversion", "--order", "6")
    assert code == 0
    records = json_lines(out)
    assert records
    assert {rec["identity"] for rec in records} == {"first-kind-inversion"}
    assert all(rec["status"] == "pass" for rec in records)
    assert "fail" in err  # summary goes to stderr


def test_verify_reports_sorted_and_schema_stable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "append-one", "--order", "6")
    assert code == 0
    records = json_lines(out)
    keys = [(r["identity"], r["ks"], r["dist"]) for r in records]
    assert keys == sorted(keys)
    for rec in records:
        assert list(rec)[:6] == ["identity", "ks", "dist", "order", "status", "first_mismatch"]


def test_verify_known_discrepancy_record(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "lah-via-first-kind-literal", "--order", "8"
    )
    assert code == 0
    records = json_lines(out)
    target = [
        r for r in records if r["ks"] == [1, 1] and r["dist"] == "point:1"
    ]
    assert len(target) == 1
    assert target[0]["status"] == "expected-discrepancy"
    assert target[0]["first_mismatch"] == {"n": 3, "lhs": "6", "rhs": "12"}


def test_verify_empty_grid(tmp_path, capsys):
    grid_file = tmp_path / "empty.json"
    grid_file.write_text("[]")
    code, out, _ = run_cli(capsys, "verify", "--grid", str(grid_file))
    assert code == 0
    assert out == ""


def test_verify_custom_grid(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps([{"dist": "poisson:1", "ks": [1, 2]}]))
    code, out, _ = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "8")
    assert code == 0
    records = json_lines(out)
    assert records
    assert {r["dist"] for r in records if r["dist"] not in (None, "point:1")} == {"poisson:1"}


def test_verify_malformed_grid(tmp_path, capsys):
    grid_file = tmp_path / "bad.json"
    grid_file.write_text(json.dumps([{"dist": "poisson:1"}]))
    code, _, err = run_cli(capsys, "verify", "--grid", str(grid_file))
    assert code == 2
    assert "grid entry" in err


@pytest.mark.parametrize("ks", [[1.9, True], "12", ["3"]], ids=repr)
def test_verify_grid_rejects_non_integer_ks(tmp_path, capsys, ks):
    grid_file = tmp_path / "coerced.json"
    grid_file.write_text(
        json.dumps([{"dist": "poisson:1", "ks": [1]}, {"dist": "poisson:1", "ks": ks}])
    )
    code, out, err = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "4")
    assert code == 2
    assert out == ""
    assert "grid entry 1" in err


def test_verify_value_too_long_to_render_is_a_usage_error(tmp_path, capsys):
    # multi-Stirling values for k = 10000 have denominators past CPython's
    # int-to-str digit limit; no report line may be written before the error
    grid_file = tmp_path / "huge.json"
    grid_file.write_text(json.dumps([{"dist": "poisson:1", "ks": [10000]}]))
    code, out, err = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "multilog", "--ks", "1000000", "--order", "3"),
        ("table", "multilog", "--ks", "100000", "--order", "8"),
        # a composed family's denominators grow like lcm(1..N)^k
        ("table", "multi-stirling2", "--ks", "2000", "--order", "64"),
        ("table", "prob-lah", "--dist", "point:" + "9" * 300, "--order", "64"),
        ("table", "bernoulli-higher", "--r", "9" * 600, "--order", "64"),
    ],
    ids=["multilog-1e6", "multilog-1e5", "composed", "dist-params", "r"],
)
def test_runaway_table_inputs_are_refused_before_computing(capsys, monkeypatch, argv):
    from multinumbers import cli

    def computed(*args):
        raise AssertionError("computed a refused input")

    for name in ("multilog", "multi_stirling2_series", "moments", "bernoulli_higher_series"):
        monkeypatch.setattr(cli, name, computed)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the values would run to at least ") and err.endswith(
        "pass --force-order to override\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        # a denominator of 2^40000, past the size cap
        ("table", "multilog", "--ks", "40000", "--order", "2", "--force-order"),
        # integer values 8^5000 and p^n S(n, k) with p = 10^70, inside the
        # size cap but past the digit limit
        ("table", "multilog", "--ks", "-5000", "--order", "8"),
        ("table", "prob-stirling2", "--dist", "point:1" + "0" * 70, "--order", "64"),
    ],
    ids=["rational", "integer", "two-index"],
)
def test_a_table_value_too_long_to_render_is_a_usage_error(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


def test_force_order_overrides_the_size_cap(capsys):
    argv = ("table", "multilog", "--ks", "40000", "--order", "2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "past the cap" in err
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_cli(capsys, *argv, "--force-order")
        assert code == 0
        assert [rec["value"] for rec in json_lines(out)] == ["0", "1", f"1/{2 ** 40000}"]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "ks, order, values",
    [
        # only the last index reaches n = 2; the first stays at m_1 = 1
        ("20000,1", 2, ["0", "0", "1/2"]),
        # at order 3 the first index sums over m_1 = 1, 2
        ("12000,1", 3, ["0", "0", "1/2", f"{2 ** 12000 + 1}/{3 * 2 ** 12000}"]),
        ("14000", 2, ["0", "1", f"1/{2 ** 14000}"]),
    ],
)
def test_printable_inputs_near_the_size_cap_still_run(capsys, ks, order, values):
    code, out, _ = run_cli(capsys, "table", "multilog", "--ks", ks, "--order", str(order))
    assert code == 0
    assert [rec["value"] for rec in json_lines(out)] == values


def test_verify_grid_cells_past_the_size_cap_are_refused_before_computing(tmp_path, capsys):
    # before the bound this cell computed for about a minute and then
    # failed on the int-to-string limit
    grid_file = tmp_path / "large.json"
    grid_file.write_text(json.dumps([{"dist": "poisson:1", "ks": [1, 2]},
                                     {"dist": "poisson:1", "ks": [20000]}]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "12")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid entry 1: the values would run to at least ")
    assert err.endswith("past the cap of 32768; pass --force-order to override\n")


def test_force_order_lets_a_verify_grid_cell_past_the_size_cap_run(tmp_path, capsys):
    # verify prints a value only for a mismatch, so a large index that
    # verifies cleanly runs when forced
    grid_file = tmp_path / "large.json"
    grid_file.write_text(json.dumps([{"dist": "point:1", "ks": [100000]}]))
    argv = ("verify", "--grid", str(grid_file), "--order", "3", "--identity", "first-kind-inversion")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "past the cap" in err
    code, out, _ = run_cli(capsys, *argv, "--force-order")
    assert code == 0
    assert {rec["status"] for rec in json_lines(out)} == {"pass"}


def test_the_default_grid_is_within_the_size_cap_at_every_allowed_order():
    for order in range(ORDER_CAP + 1):
        _check_grid(order, default_grid(), force=False)


# an integer one digit past CPython's int/str digit limit, and the message
# that limit gives for it
LONG_INT = b"9" * (sys.get_int_max_str_digits() + 1)
try:
    int(LONG_INT)
except ValueError as exc:
    LONG_INT_ERROR = str(exc)
# an index of 4,299 digits, which the parsers take; its size estimate runs
# past that limit
NINES = "9" * 4299


# before the estimate reached N + r these ran unbounded: 300 ones took 3.6 s
# and 600 ones ran past 60 s; a cell of 400 zeros took 11.3 s, in the
# all-ones checks of length 400; a cell of 150 tens, estimated at reach N
# while its multi-Bernoulli series reads the multilog to N + r, took 11.1 s.
# A cell's own tuple is estimated first, so 800 twos are refused for their
# own size before the all-ones tuple of length 800 is estimated
@pytest.mark.parametrize(
    "argv,grid,stderr",
    [
        (("table", "bernoulli-higher", "--r", "0", "--order", "3"), None,
         "error: --r must be a positive integer\n"),
        (("table", "prob-fubini", "--dist", "point:1", "--r", "0", "--y", "1", "--order", "3"),
         None, "error: --r must be a positive integer\n"),
        (("table", "stirling2", "--order"), None, "error: --order needs a value\n"),
        (("verify", "--grid", "{grid}"), None,
         "error: cannot read grid file {grid}: [Errno 2] No such file or directory: '{grid}'\n"),
        (("verify", "--grid", "{grid}"), [{"dist": "point:1", "ks": []}],
         "error: grid entry 0 has an empty index tuple\n"),
        # a grid file given as bytes is written as it is
        pytest.param(
            ("verify", "--grid", "{grid}"), b"\xff\xfe[]",
            "error: cannot read grid file {grid}: 'utf-8' codec can't decode byte 0xff in "
            "position 0: invalid start byte\n",
            id="grid-not-utf-8",
        ),
        pytest.param(
            ("verify", "--grid", "{grid}"), b'[{"dist": "point:1", "ks": [%s]}]' % LONG_INT,
            f"error: cannot read grid file {{grid}}: {LONG_INT_ERROR}\n",
            id="grid-int-past-the-digit-limit",
        ),
    ],
)
def test_a_refusal_writes_exactly_its_one_error_line(tmp_path, capsys, argv, grid, stderr):
    # a grid of None leaves the file unwritten, so the path is missing
    path = tmp_path / "grid.json"
    if grid is not None:
        path.write_bytes(grid if isinstance(grid, bytes) else json.dumps(grid).encode())
    argv = [arg.format(grid=path) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", stderr.format(grid=path))


def test_a_forced_report_value_past_the_digit_limit_is_refused_before_any_line(tmp_path, capsys):
    # --force-order passes the size cap, so the render guard of verify sees
    # the value; its message is the one CPython gives for the digit limit
    with pytest.raises(ValueError) as exc:
        str(10 ** sys.get_int_max_str_digits())
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"dist": "point:1", "ks": [6000]}]))
    argv = ("verify", "--order", "4", "--force-order", "--grid", str(path))
    assert run_cli(capsys, *argv) == (2, "", f"error: {exc.value}\n")


@pytest.mark.parametrize(
    "argv,grid,prefix",
    [
        (("table", "multi-bernoulli", "--ks", ",".join(["1"] * 300)), None, ""),
        (("table", "multi-bernoulli", "--ks", ",".join(["1"] * 600)), None, ""),
        (("verify",), [{"dist": "poisson:1", "ks": [0] * 400}],
         "grid entry 0: the all-ones tuple of length 400: "),
        (("verify",), [{"dist": "poisson:1", "ks": [1, 2]}, {"dist": "point:1", "ks": [2] * 800}],
         "grid entry 1: "),
        (("verify",), [{"dist": "point:1", "ks": [10] * 150}], "grid entry 0: "),
        # an estimate too long to print is shown as the cap plus one
        (("table", "multi-stirling2", "--ks", NINES), None, ""),
        (("verify",), [{"dist": "point:1", "ks": [int(NINES)]}], "grid entry 0: "),
    ],
    ids=[
        "bernoulli-300-ones", "bernoulli-600-ones", "verify-400-zeros", "verify-800-twos",
        "verify-150-tens", "table-4299-nines", "verify-4299-nines",
    ],
)
def test_long_index_tuples_are_refused_up_front(tmp_path, argv, grid, prefix):
    if grid is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        argv += ("--grid", str(path))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "multinumbers", *argv, "--order", "64"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(
        f"error: {prefix}the values would run to at least [0-9]+ bits, past the cap of 32768; "
        "pass --force-order to override\n",
        proc.stderr,
    ), proc.stderr


# Fraction expands a literal's power of ten before any size cap runs: the
# first command spent 9.9 s before it exited 2, the second 10.3 s before it
# printed CPython's int/str digit-limit message.  A plain decimal of 4,000
# digits on each side of the point builds an 8,000-digit numerator, which
# ended in that message too, naming no argument.
LONG_DECIMAL = "7" * 4000 + "." + "3" * 4000


@pytest.mark.parametrize(
    "argv,grid,message",
    [
        (
            ("table", "prob-fubini", "--dist", "poisson:1", "--r", "1", "--y", LONG_DECIMAL),
            None,
            f"--y {LONG_DECIMAL!r}",
        ),
        (
            ("table", "prob-fubini", "--dist", f"point:{LONG_DECIMAL}", "--r", "1", "--y", "1"),
            None,
            f"invalid distribution spec 'point:{LONG_DECIMAL}': point mass location "
            f"{LONG_DECIMAL!r}",
        ),
        (
            ("table", "prob-fubini", "--dist", "poisson:1", "--r", "1", "--y", "1e10000000"),
            None,
            "--y '1e10000000'",
        ),
        (
            ("table", "prob-fubini", "--dist", "bernoulli:1e-10000000", "--r", "1", "--y", "1"),
            None,
            "invalid distribution spec 'bernoulli:1e-10000000': bernoulli parameter "
            "'1e-10000000'",
        ),
        (
            ("verify",),
            [{"dist": "poisson:1e10000000", "ks": [1]}],
            "grid entry 0 is malformed: invalid distribution spec 'poisson:1e10000000': "
            "poisson rate '1e10000000'",
        ),
    ],
    ids=["y-decimal", "dist-decimal", "y", "dist", "grid"],
)
def test_runaway_exponents_are_refused_up_front(tmp_path, argv, grid, message):
    if grid is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        argv += ("--grid", str(path))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "multinumbers", *argv, "--order", "2"],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message} writes out more than 4300 digits\n"


def test_size_estimate_reaches_n_plus_r_only_where_the_multiple_logarithm_does():
    # at order 64, 157 ones stay inside the cap at reach N + r and 158 do
    # not; read only to N, 158 ones are inside
    ones = (1,) * 158
    _check_size(64, ones[:157], (), True, False, shift=157)
    with pytest.raises(UsageError, match="past the cap"):
        _check_size(64, ones, (), True, False, shift=158)
    _check_size(64, ones, (), True, False)
    _check_grid(64, [(parse_distribution("point:1"), (0,) * 157)], force=False)
    _check_grid(64, [(parse_distribution("point:1"), (0,) * 158)], force=True)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda: _check_size(64, (1,) * 50000, (), True, False, shift=50000),
        lambda: _check_grid(64, [(parse_distribution("point:1"), (0,) * 50000)], force=False),
    ],
    ids=["50000-ones", "grid-cell-of-50000-zeros"],
)
def test_size_estimate_of_a_very_long_tuple_stops_at_the_cap(monkeypatch, estimate):
    # the lcm is extended only for a nonzero index and the sum stops once it
    # passes the cap, a few hundred indices in; carried to reach N + r over
    # all 50,000 indices, each estimate took about 1 s
    from multinumbers import cli

    calls = []

    def counted(*args):
        calls.append(len(args))
        return lcm(*args)

    monkeypatch.setattr(cli, "lcm", counted)
    with pytest.raises(UsageError, match="past the cap"):
        estimate()
    assert 0 < len(calls) < 1000


def test_table_with_too_few_raw_moments_is_a_usage_error(capsys):
    argv = ("table", "prob-stirling2", "--dist", "raw:1,2", "--order", "5")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: raw spec provides moments up to order 1, needed 5\n"


def test_verify_list_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list-identities")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert "fubini-convolution" in names
    assert "lah-via-first-kind-corrected" in names


def test_output_is_deterministic_between_runs(capsys):
    args = ("table", "prob-multi-stirling2", "--ks", "1,2", "--dist", "geometric:1/2", "--order", "6")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# one invocation of every family, with the inputs it requires
FAMILY_ARGV = [
    ("table", "multilog", "--ks", "1"),
    ("table", "multi-stirling1", "--ks", "1,2"),
    ("table", "multi-stirling2", "--ks", "2"),
    ("table", "multi-bernoulli", "--ks", "1,1"),
    ("table", "multi-lah", "--ks", "2,1"),
    ("table", "stirling1"),
    ("table", "stirling2"),
    ("table", "lah"),
    ("table", "bernoulli-higher", "--r", "2"),
    ("table", "prob-stirling2", "--dist", "poisson:1"),
    ("table", "prob-multi-stirling2", "--ks", "1,2", "--dist", "bernoulli:1/2"),
    ("table", "prob-lah", "--dist", "point:2"),
    ("table", "prob-multi-lah", "--ks", "1,1", "--dist", "geometric:1/2"),
    ("table", "prob-fubini", "--dist", "binomial:3,1/3", "--r", "2", "--y=-1/2"),
]


@pytest.mark.parametrize("argv", FAMILY_ARGV)
def test_every_family_emits_valid_records(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--order", "4")
    assert code == 0
    records = json_lines(out)
    assert records
    for rec in records:
        assert rec["family"] == argv[1]
        F(rec["value"])


def test_multilog_family_emits_ordinary_coefficients(capsys):
    code, out, _ = run_cli(capsys, "table", "multilog", "--ks", "1", "--order", "4")
    assert code == 0
    assert [rec["value"] for rec in json_lines(out)] == ["0", "1", "1/2", "1/3", "1/4"]


def test_verify_exit_1_on_unexpected_failure(capsys, monkeypatch):
    from multinumbers import cli
    from multinumbers.report import Mismatch, VerificationReport

    broken = VerificationReport(
        identity="fubini-convolution",
        order=4,
        ks=(1,),
        dist="point:1",
        status="fail",
        first_mismatch=Mismatch(2, F(1), F(2)),
    )
    monkeypatch.setattr(cli, "run_full_suite", lambda **kwargs: [broken])
    code, out, err = run_cli(capsys, "verify", "--order", "4")
    assert code == 1
    assert json_lines(out)[0]["status"] == "fail"
    assert "1 fail" in err


# sha256 of the report stream of `verify` as first recorded; the identity
# checks may be rewritten for speed, but not one byte of what they print may move.
PINNED_VERIFY_BYTES = [
    (
        ("verify", "--order", "8"),
        "2ce870c23e74da28ddc4361978956b38a4ea776802c08622323417d96f5d6817",
        "verify: 452 pass, 0 fail, 59 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "24"),
        "b9ff5ca6c97c14d768986163ebef2835a8323c3471b64fa4b8cde15e27266753",
        "verify: 452 pass, 0 fail, 59 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "64"),
        "2eb48a48f623d5e2b95614770feeca5f444f42f346e996fd740cabc0256434a9",
        "verify: 452 pass, 0 fail, 59 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "0"),
        "3f6073af2a213e49faf3957a73ab546dd503d06ef20da6513ff32219dea7a5af",
        "verify: 511 pass, 0 fail, 0 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "1"),
        "2f9a7996369eb54f5102904bb86d7ff27f7a0ffd5bb4633fe3634706363a5ce7",
        "verify: 511 pass, 0 fail, 0 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "2"),
        "191b9de6c4402decff789d96a375ec03a580a8e2db8f33a43f0c84ec36569e9c",
        "verify: 500 pass, 0 fail, 11 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "12"),
        "4e9fbc620bd8b6194417fa931fd04517b300031880aa4939bfff2eae8a5eeed7",
        "verify: 452 pass, 0 fail, 59 expected-discrepancy\n",
    ),
    (
        ("verify", "--list-identities"),
        "90711a0e570c0cec098293c40e5fadc8212ebf452d3c96d2a4891621a3c284ee",
        "",
    ),
    (
        ("verify", "--order", "16"),
        "d17d52dc1c7e4e88fbe0eeabb71bfccf33f0f34eaefa75e9b924d13f9e4259e7",
        "verify: 452 pass, 0 fail, 59 expected-discrepancy\n",
    ),
    (
        ("verify", "--order", "20"),
        "6fa43674f6277bfa753f747b17a54fae4b1af49b81143bf1a34d325e9342780f",
        "verify: 452 pass, 0 fail, 59 expected-discrepancy\n",
    ),
]


@pytest.mark.parametrize("argv,stdout_sha256,stderr", PINNED_VERIFY_BYTES, ids=lambda v: str(v))
def test_verify_output_bytes_are_pinned(capsys, argv, stdout_sha256, stderr):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    assert err == stderr


# sha256 of `table <family> --order 5` (JSON, CSV) for every family in
# FAMILY_ARGV, as first recorded: a refactor of the table code may not move a byte.
PINNED_TABLE_BYTES = {
    "multilog": (
        "f6d14ae7b73e1e810fee62b408019517ade32f7e6475ec33a848d937bf2dee06",
        "d2122630b9c60c111e17d3ec037991ae18cd8fd19531a231b71d2c56f105a38b",
    ),
    "multi-stirling1": (
        "f5f0466074550204e1dd2049e0c702ba2fa2c5741c25044d3984a789d850cd2c",
        "d351ec597fabb4ee7a4998c7facacf497b0eae9e6e1ab4f803cac365e4b674d6",
    ),
    "multi-stirling2": (
        "be2ad47e3411f3eb87428556d1a09db99bed91a857a43c85dbab49479fc27a7a",
        "8f81b02414e2676f971c1c2b483fe25e939b64a9a93bff24aa91129b9e25dc2f",
    ),
    "multi-bernoulli": (
        "2c3c500aa51beac15c9724ca033da70a0f2c430971ccffd94492a927d922846a",
        "046f11d3ba40e908f5ebdcbb498be7b9dc12db69a361829e12ff825081d4c18b",
    ),
    "multi-lah": (
        "49bc5b8f26964ca7e32afd3204c335583bb489a3fd3a4ad5e1e55b6c51251024",
        "849092d41108ab3b99c750d1b4c30cd26830f6c3b5c9d9bbd06fcfc44d54d5ee",
    ),
    "stirling1": (
        "b51460b47f8752836ed7dd0e485cb4ab88658121cef156a2eaa7b216ec821535",
        "a52309ac95579a3765ec0918b5bb4314a1da3f4eaf41660f53c9d02311953110",
    ),
    "stirling2": (
        "0324af3bb2eec8198f74acb3b6772f2689f5fce17b3b4266ea088bdb28194c8b",
        "a93e1bfe4fd3e95926482dee16a8cd0045953d431c9350a31b4f1de6f19bf05f",
    ),
    "lah": (
        "7a43184ba5fca179451d3143c092b08fdf5d54b16bb97c6559a94a6c8a1bd5fb",
        "7e5157986c195df1590feb097e26ace9700512881885b48660768418e6d2397f",
    ),
    "bernoulli-higher": (
        "ad597d74d51ecb91a1455d4ba70bf9fe61646218224ab7750aabccc58ca2c9de",
        "d950407420289c1263f010893850c54a65a84a3b72c21bd2b0f38e9455da98f6",
    ),
    "prob-stirling2": (
        "51fc0e66438df65669757bc4970f215b57f64520ed92844c5adb685e49ca4648",
        "18fa8756ab4f8572a8f1c7ab83581baa88c61dd5d3bdc0ed7d73bfb55c02e596",
    ),
    "prob-multi-stirling2": (
        "0b667483dbdba468c8e6b49d5a5ae26093b3d72163662e248cf2d4b2855a156d",
        "2eb2738989e6e8567018471b178ee1b3443c6f0fa42e67c3913d5155e5e2946f",
    ),
    "prob-lah": (
        "16517d6853cb7538d6b581ce52e45fe49ae50ff7eeca1e6fc431bef5cf88b9ab",
        "ac0d8c14dae06da878dd8cd8168f07fe378fa0d6cce6d7ae6d87cbc3aec5bf40",
    ),
    "prob-multi-lah": (
        "44ecafa16dce9e9f5d60b1187ea5815b53f66338b03761c8629f5938105beb35",
        "8879a2cfde8226acc7e57e571d9e30c4c8ff357b45daca2d1eb6d39f0b763e52",
    ),
    "prob-fubini": (
        "ada9199336573d7d996dadda474fd864c70680b85ef99981ae5b85374880089b",
        "fd36d57663db91d75771e42ee5a7bc88da16e84c4a750ae61b1bca3370134e2d",
    ),
}


@pytest.mark.parametrize("argv", FAMILY_ARGV, ids=lambda argv: argv[1])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_output_bytes_are_pinned(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--order", "5", "--format", fmt)
    assert code == 0
    assert err == ""
    want = PINNED_TABLE_BYTES[argv[1]][fmt == "csv"]
    assert hashlib.sha256(out.encode()).hexdigest() == want


# sha256 of the JSON stdout of the order-64 benchmark tables and of one
# multi-Bernoulli table with zero and negative indices, as first recorded:
# the shared powers and the shifted Bernoulli column may not move a byte.
PINNED_LARGE_TABLE_BYTES = {
    ("multi-stirling2", "--ks", "2,3", "--order", "64"):
        "65d11e4fe5f7500010b792d9b7f8f9d8fde61f0b30c74fd8105c6b2887282830",
    ("multi-stirling2", "--ks", "2,3,1", "--order", "64"):
        "c563ee63db837b6eff07731b592b4fc22fe03ed60e532a7a724097feb79320ea",
    ("multi-bernoulli", "--ks", "1,1", "--order", "64"):
        "d4a9fedc8bd3ae05b3dd798bb95e5b9e6045884d735457c3cb769256a4caf3ab",
    ("prob-multi-stirling2", "--ks", "1,2", "--dist", "poisson:1", "--order", "64"):
        "18475b21b7c8a076618ff43a813fc6bcf04d31b3bde3b38ea756dca6a8a9f6f2",
    ("prob-multi-lah", "--ks", "1,2", "--dist", "poisson:1", "--order", "64"):
        "7a2e0d0a2e9e415ec983484c8e583c538bebec4f18e8b8d3874f2144b73893a8",
    ("prob-lah", "--dist", "geometric:1/2", "--order", "64"):
        "6dc1080c42b69cfc893d5e3842923f7a3bbf1237b9ca20dad7b63f2ba54aebeb",
    ("multi-bernoulli", "--ks", "2,-1,0", "--order", "24"):
        "af9685aa9f4a155ee868dabe06c3da29147d441a26ddc05b8d832e6a1ec819e9",
    ("multi-lah", "--ks", "2,3", "--order", "64"):
        "1a9e381c6104d5563117028909e89d2763d6ab952d3397dcb4f708f3eb104dd4",
    ("multi-stirling2", "--ks", "0,-2,3", "--order", "40"):
        "16324620ec24552847cc68efd70142ece472ef6b16fc72b999cb99a069287d12",
}


@pytest.mark.parametrize("argv", PINNED_LARGE_TABLE_BYTES, ids=" ".join)
def test_large_table_output_bytes_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LARGE_TABLE_BYTES[argv]


# ---------------------------------------------------------------- writers

# each family's values from the library's Fraction API: a one-index family
# as the column for n = 0..order, a two-index one as its entry at (n, k)
ONE_INDEX_VALUES = {
    "multilog": lambda a, order: multilog(a.ks, order).coeffs,
    "multi-stirling1": lambda a, order: multilog(a.ks, order).egf_coeffs,
    "multi-stirling2": lambda a, order: multi_stirling2_series(a.ks, order).egf_coeffs,
    "multi-bernoulli": lambda a, order: multi_bernoulli_series(a.ks, order).egf_coeffs,
    "multi-lah": lambda a, order: multi_lah_series(a.ks, order).egf_coeffs,
    "bernoulli-higher": lambda a, order: bernoulli_higher_series(a.r, order).egf_coeffs,
    "prob-multi-stirling2": lambda a, order: prob_multi_stirling2_series(
        a.ms, a.ks, order
    ).egf_coeffs,
    "prob-multi-lah": lambda a, order: prob_multi_lah_series(a.ms, a.ks, order).egf_coeffs,
    "prob-fubini": lambda a, order: prob_fubini_series(a.ms, a.r, a.y, order).egf_coeffs,
}
TWO_INDEX_VALUES = {
    "stirling1": lambda a, n, k, order: stirling1(n, k),
    "stirling2": lambda a, n, k, order: stirling2(n, k),
    "lah": lambda a, n, k, order: lah(n, k),
    "prob-stirling2": lambda a, n, k, order: prob_stirling2(a.ms, n, k, order),
    "prob-lah": lambda a, n, k, order: prob_lah(a.ms, n, k, order),
}
# the raw list holds the moments 1/(n + 1) of the uniform law, up to order 7
WRITER_INPUTS = {
    "ks": ("2,-1,0", "-3"),
    "dist": (
        "binomial:3,1/3",
        "raw:" + ",".join(str(F(1, n + 1)) for n in range(8)),
        "finite:-4=1/2;0=1/3;5/2=1/6",
    ),
    "r": ("2",),
    "y": ("-1/2",),
}
WRITER_CASES = [
    (family, dict(zip(FAMILIES[family].inputs, values)), order)
    for family in FAMILIES
    for values in itertools.product(*[WRITER_INPUTS[flag] for flag in FAMILIES[family].inputs])
    for order in (0, 1, 7)
]


def writer_records(family, inputs, order):
    """The records of ``table family`` from the Fraction API, as dicts."""
    a = SimpleNamespace(
        ks=tuple(int(k) for k in inputs["ks"].split(",")) if "ks" in inputs else None,
        dist=parse_distribution(inputs["dist"]) if "dist" in inputs else None,
        r=int(inputs.get("r", 0)),
        y=F(inputs.get("y", 0)),
    )
    a.ms = moments(a.dist, order) if a.dist else None
    if family in TWO_INDEX_VALUES:
        entry = TWO_INDEX_VALUES[family]
        cells = [(n, k, entry(a, n, k, order)) for n in range(order + 1) for k in range(n + 1)]
    else:
        cells = [(n, None, value) for n, value in enumerate(ONE_INDEX_VALUES[family](a, order))]
    shared = {
        "family": family,
        "ks": list(a.ks) if a.ks else None,
        "dist": a.dist.label if a.dist else None,
    }
    return [{**shared, "n": n, "k": k, "value": str(value)} for n, k, value in cells]


def test_the_writer_cases_cover_every_family():
    assert {family for family, _, _ in WRITER_CASES} == set(FAMILIES)
    assert set(ONE_INDEX_VALUES) | set(TWO_INDEX_VALUES) == set(FAMILIES)
    assert {family for family in FAMILIES if FAMILIES[family].two_index} == set(TWO_INDEX_VALUES)


@pytest.mark.parametrize(
    "family, inputs, order",
    WRITER_CASES,
    ids=lambda v: ",".join(v.values()) if isinstance(v, dict) else str(v),
)
def test_table_lines_are_the_json_and_csv_of_their_records(capsys, family, inputs, order):
    argv = ["table", family, *[f"--{flag}={value}" for flag, value in inputs.items()]]
    argv += ["--order", str(order)]
    records = writer_records(family, inputs, order)
    assert run_cli(capsys, *argv) == (
        0, "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records), ""
    )
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(["family", "ks", "dist", "n", "k", "value"])
    for rec in records:
        ks = ",".join(map(str, rec["ks"] or ()))
        k = "" if rec["k"] is None else rec["k"]
        writer.writerow([rec["family"], ks, rec["dist"] or "", rec["n"], k, rec["value"]])
    assert run_cli(capsys, *argv, "--format", "csv") == (0, rows.getvalue(), "")


@pytest.mark.parametrize(
    "family, inputs, order",
    WRITER_CASES,
    ids=lambda v: ",".join(v.values()) if isinstance(v, dict) else str(v),
)
def test_family_value_columns_are_in_lowest_terms(family, inputs, order):
    args = _parse_argv(["table", family, *[f"--{flag}={value}" for flag, value in inputs.items()]])
    a = SimpleNamespace(ks=None, dist=None, ms=None, r=None, y=None)
    for flag in inputs:
        setattr(a, flag, _PARSERS[flag](getattr(args, flag)))
    if a.dist is not None:
        a.ms = moments(a.dist, order)
    values = FAMILIES[family].values(a, order)
    if FAMILIES[family].two_index:
        # one triangle over one denominator, in lowest terms as a whole
        columns, d = values
        assert len(columns) == order + 1 and {len(column) for column in columns} == {order + 1}
        assert d > 0 and gcd(d, *[x for column in columns for x in column]) == 1
    else:
        column, d = values
        assert d > 0 and gcd(d, *column) == 1


def report_record(rep):
    """A verification report as the dict its JSON line encodes."""
    mismatch = rep.first_mismatch
    record = {
        "identity": rep.identity,
        "ks": list(rep.ks) if rep.ks is not None else None,
        "dist": rep.dist,
        "order": rep.order,
        "status": rep.status,
        "first_mismatch": None if mismatch is None else {
            "n": mismatch.n, "lhs": str(mismatch.lhs), "rhs": str(mismatch.rhs)
        },
    }
    if rep.detail:
        record["detail"] = rep.detail
    return record


def verify_lines(reports):
    return "".join(json.dumps(report_record(rep), separators=(",", ":")) + "\n" for rep in reports)


def test_verify_lines_are_the_json_of_their_reports(capsys):
    reports = run_full_suite(order=12)
    assert collections.Counter(rep.status for rep in reports) == {
        "pass": 452, "expected-discrepancy": 59
    }
    assert run_cli(capsys, "verify", "--order", "12") == (
        0, verify_lines(reports), "verify: 452 pass, 0 fail, 59 expected-discrepancy\n"
    )


def test_verify_grid_lines_are_the_json_of_their_reports(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(IRREGULAR_GRID))
    grid = [(parse_distribution(cell["dist"]), tuple(cell["ks"])) for cell in IRREGULAR_GRID]
    reports = run_full_suite(grid=grid, order=12)
    # an expected discrepancy carries a detail, and so does nothing else here
    assert {rep.status for rep in reports if rep.detail} == {"expected-discrepancy"}
    code, out, _ = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "12")
    assert (code, out) == (0, verify_lines(reports))


def test_a_failure_report_line_is_the_json_of_its_report(capsys, monkeypatch):
    from multinumbers import cli
    from multinumbers.report import Mismatch, VerificationReport

    reports = [
        VerificationReport("fubini-convolution", 4, (2, -1), "raw:1,1/2", "fail",
                           Mismatch(3, F(-7, 2), F(0)), "a detail"),
        VerificationReport("derivative-rules", 0),
    ]
    monkeypatch.setattr(cli, "run_full_suite", lambda **kwargs: reports)
    code, out, _ = run_cli(capsys, "verify", "--order", "4")
    assert (code, out) == (1, verify_lines(reports))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0), st.integers(-50, 50), st.integers(-(2**4000), 2**4000)),
        max_size=6,
    ),
    st.one_of(st.just(1), st.integers(1, 50), st.integers(1, 2**4000)),
    st.one_of(st.just(1), st.integers(1, 2**64)),
)
def test_value_strings_are_the_fraction_strings(a, d, content):
    # the writer stays exact on a column that is not in lowest terms: a
    # common factor of the column and its denominator; d = 1 the integer path
    a, d = [m * content for m in a], d * content
    assert _value_strings(a, d) == [str(F(m, d)) for m in a]


# not a product of distributions and tuples, with a duplicated cell, a
# negative index and a mean-zero point mass, at which bernoulli-convolution
# compares the product form as everywhere else
IRREGULAR_GRID = [
    {"dist": "poisson:1", "ks": [1, 2]},
    {"dist": "point:0", "ks": [2, -1]},
    {"dist": "poisson:1", "ks": [1, 2]},
    {"dist": "geometric:1/2", "ks": [1]},
    {"dist": "point:1", "ks": [0, 3]},
]


def test_verify_irregular_grid_bytes_are_pinned(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(IRREGULAR_GRID))
    code, out, err = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "8")
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ceb19ed7475de7a0717b83e90e00b1699ccb87b770c3520fecbf14ebd9a9d8e2"
    )
    assert err == "verify: 74 pass, 0 fail, 6 expected-discrepancy\n"


# specs with equal moments: point:1, bernoulli:1 and binomial:1,1 (every
# moment 1, so M = e^t), then bernoulli:1/2 and binomial:1,1/2; the families
# are cached on the moment series, so equal specs read shared entries
EQUAL_MOMENT_GRID = [
    {"dist": dist, "ks": ks}
    for dist in ("point:1", "bernoulli:1", "binomial:1,1", "bernoulli:1/2", "binomial:1,1/2")
    for ks in ([1, 2], [2, -1], [1, 1])
]


def test_verify_equal_moment_grid_bytes_are_pinned(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(EQUAL_MOMENT_GRID))
    code, out, err = run_cli(capsys, "verify", "--grid", str(grid_file), "--order", "10")
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "8832aa0de07ddb457a9031feeaaa50e1158fe97a6821c55a176bd7ca017e696a"
    )
    assert err == "verify: 127 pass, 0 fail, 17 expected-discrepancy\n"


@pytest.mark.parametrize("order", [1, 2])
def test_verify_below_the_tuple_length_reports_instead_of_erroring(capsys, order):
    # the default grid has r = 3 tuples, so the Bernoulli comparisons have
    # no n to compare; that is a pass over an empty range, not a usage error
    code, out, err = run_cli(capsys, "verify", "--order", str(order))
    assert code == 0
    assert json_lines(out)
    assert " 0 fail," in err


def test_verify_order_below_a_grid_tuple_length(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps([{"dist": "bernoulli:1/2", "ks": [1, 1, 1, 1]}]))
    code, out, _ = run_cli(
        capsys, "verify", "--grid", str(grid_file), "--order", "3",
        "--identity", "bernoulli-convolution",
    )
    assert code == 0
    assert json_lines(out) == [
        {
            "identity": "bernoulli-convolution",
            "ks": [1, 1, 1, 1],
            "dist": "bernoulli:1/2",
            "order": 3,
            "status": "pass",
            "first_mismatch": None,
        }
    ]


@pytest.mark.parametrize(
    "identity,count",
    [(None, 511), ("bernoulli-convolution", 56), ("derivative-rules", 8)],
)
def test_verify_order_zero_compares_nothing_and_passes(capsys, identity, count):
    # --order 0 is accepted by the flag check; every comparison range is
    # empty there, including those of the derivative rules (0..N-1) and of
    # the Bernoulli convolution, whose moment sequence stops at mu_0
    argv = ["verify", "--order", "0"] + (["--identity", identity] if identity else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == f"verify: {count} pass, 0 fail, 0 expected-discrepancy\n"
    records = json_lines(out)
    assert len(records) == count
    assert all(rec["order"] == 0 and rec["status"] == "pass" for rec in records)


# ---------------------------------------------------------------- tooling

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses pulls in inspect, ast, dis and tokenize; argparse pulls in
# gettext and locale, and its help formatter shutil, which pulls in zlib,
# bz2, lzma and fnmatch.  json and csv are needed only to read a --grid
# file or as writers, and os only when stdout's reader has gone.  fractions
# pulls in decimal, numbers, re and enum, and the package builds a Fraction
# only for a caller that reads one.  None of them is needed to run these
# commands, and each costs cold-start time.
HEAVY_IMPORTS = (
    "dataclasses", "typing", "inspect", "ast", "dis", "tokenize",
    "argparse", "gettext", "locale", "shutil", "bz2", "lzma", "zlib", "fnmatch",
    "json", "csv", "os", "fractions", "decimal", "numbers", "re", "enum",
)

# the benchmark's six table commands and its verify command, a classical
# table, a CSV table and a verify at order 0
IMPORT_FREE_COMMANDS = [
    ["table", "multi-stirling2", "--ks", "2,3", "--order", "64"],
    ["table", "multi-stirling2", "--ks", "2,3,1", "--order", "64"],
    ["table", "multi-bernoulli", "--ks", "1,1", "--order", "64"],
    ["table", "prob-multi-stirling2", "--ks", "1,2", "--dist", "poisson:1", "--order", "64"],
    ["table", "prob-multi-lah", "--ks", "1,2", "--dist", "poisson:1", "--order", "64"],
    ["table", "prob-lah", "--dist", "geometric:1/2", "--order", "64"],
    ["verify", "--order", "12"],
    ["table", "stirling2", "--order", "0"],
    ["table", "prob-lah", "--dist", "binomial:2,1/2", "--format", "csv"],
    ["verify", "--order", "0"],
]


def test_cli_import_stays_off_the_heavy_stdlib_modules():
    # nothing is imported inside main, where the benchmark counts calls
    code = (
        "import sys\n"
        "from multinumbers.cli import main\n"
        f"for argv in {IMPORT_FREE_COMMANDS!r}:\n"
        "    before = set(sys.modules)\n"
        "    assert main(argv) == 0, argv\n"
        "    assert set(sys.modules) == before, (argv, set(sys.modules) ^ before)\n"
        f"print(' '.join(m for m in {HEAVY_IMPORTS!r} if m in sys.modules), file=sys.stderr)"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].split() == []


# under -m, runpy has loaded os before the program starts; under -S -c
# nothing has, so the handler's own import of os runs
PIPE_RUNNERS = {
    "m": ["-m", "multinumbers"],
    "S-c": [
        "-S", "-c",
        "import sys\n"
        "from multinumbers.cli import main\n"
        "assert 'os' not in sys.modules\n"
        "sys.exit(main())",
    ],
    "entrypoint": [
        "-S", "-c",
        "import sys\n"
        "from multinumbers.cli import entrypoint\n"
        "assert 'os' not in sys.modules\n"
        "entrypoint()",
    ],
}


@pytest.mark.parametrize("runner", PIPE_RUNNERS)
def test_a_reader_that_goes_away_ends_the_run_quietly_with_status_141(runner):
    # about 130 KB, more than a pipe holds, so a write fails once the reader
    # has closed its end after the first line
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [sys.executable, *PIPE_RUNNERS[runner], "table", "stirling2", "--order", "60"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert json.loads(first) == {
        "family": "stirling2", "ks": None, "dist": None, "n": 0, "k": 0, "value": "1"
    }
    assert (proc.returncode, err) == (141, b"")


# each way the command line is run; all of them end in cli.entrypoint, which
# flushes stdout and stderr and leaves by os._exit
EXIT_RUNNERS = {
    "m": ["-m", "multinumbers"],
    "m-cli": ["-m", "multinumbers.cli"],
    "entrypoint": ["-S", "-c", "from multinumbers.cli import entrypoint; entrypoint()"],
}


def run_python(args, stdout=subprocess.PIPE):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60
    )


@pytest.mark.parametrize("runner", EXIT_RUNNERS)
def test_every_runner_writes_what_main_writes_and_exits_with_its_status(runner, tmp_path, capsys):
    # about 130 KB, more than a pipe or a stdio buffer holds, written to a
    # regular file, which takes every byte before the process ends
    argv = ("table", "stirling2", "--order", "60")
    path = tmp_path / "out"
    with path.open("wb") as fh:
        proc = run_python([*EXIT_RUNNERS[runner], *argv], stdout=fh)
    code, out, err = run_cli(capsys, *argv)
    assert (proc.returncode, path.read_bytes(), proc.stderr) == (code, out.encode(), err.encode())

    argv = ("verify", "--order", "4")
    code, out, err = run_cli(capsys, *argv)
    proc = run_python([*EXIT_RUNNERS[runner], *argv])
    assert (code, err) == (0, "verify: 453 pass, 0 fail, 58 expected-discrepancy\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())

    argv = ("table", "stirling2", "--order", "-1")
    proc = run_python([*EXIT_RUNNERS[runner], *argv])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: --order must be non-negative\n"


def test_an_exception_out_of_main_ends_with_its_traceback_and_status_1():
    # COMMANDS holds _cmd_table itself, so the raise comes from inside it
    code = (
        "from multinumbers import cli\n"
        "def broken(args):\n"
        "    raise RuntimeError('table broke')\n"
        "cli._table_rows = broken\n"
        "cli.entrypoint()\n"
    )
    proc = run_python(["-S", "-c", code, "table", "stirling2", "--order", "2"])
    assert (proc.returncode, proc.stdout) == (1, b"")
    err = proc.stderr.decode()
    assert err.startswith("Traceback (most recent call last):\n"), err
    assert err.endswith("RuntimeError: table broke\n"), err
    assert "in _cmd_table" in err


# `verify` with every Series product, composition, exp and inverse done
# by the schoolbook Fraction oracles; exits 3 if a kernel it swaps never ran
ORACLE_KERNELS = """
import sys
from multinumbers import identities, probabilistic, series
from multinumbers.cli import main
from multinumbers.series import Series
from oracles import series_compose, series_exp, series_inverse, series_product

used = set()


def swap(name, oracle):
    def kernel(a, *b):
        used.add(name)
        return Series(oracle(list(a.coeffs), *[list(s.coeffs) for s in b]))
    return kernel


# Series.__mul__ and the fills of the memo of powers both multiply by it
series._product = swap("mul", series_product)
# Series.compose calls the core, and the multi families and a check call it directly
for module in (series, probabilistic, identities):
    module._compose = swap("compose", series_compose)
Series.exp = swap("exp", series_exp)
Series.inverse = swap("inverse", series_inverse)
code = main(sys.argv[1:])
sys.exit(code if {"mul", "compose", "exp", "inverse"} <= used else 3)
"""


def test_verify_bytes_are_the_same_on_the_fraction_oracle_kernels():
    argv, stdout_sha256, stderr = PINNED_VERIFY_BYTES[0]
    assert argv == ("verify", "--order", "8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    proc = subprocess.run(
        [sys.executable, "-c", ORACLE_KERNELS, *argv],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == stdout_sha256
    assert proc.stderr.decode() == stderr


# ---------------------------------------------------------------- fuzzing

small_ints = st.integers(min_value=-50, max_value=50)
rationals = st.one_of(
    small_ints.map(str),
    st.tuples(small_ints, small_ints).map(lambda p: f"{p[0]}/{p[1]}"),
)
junk = st.text(max_size=8)
ks_lists = st.lists(small_ints, max_size=3)
probabilities = st.fractions(min_value=0, max_value=1, max_denominator=6).filter(bool)
valid_dists = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(lambda c: f"point:{c}"),
    probabilities.map(lambda p: f"bernoulli:{p}"),
    st.tuples(st.integers(1, 4), probabilities).map(lambda mp: f"binomial:{mp[0]},{mp[1]}"),
    st.fractions(min_value=0, max_value=3, max_denominator=4).map(lambda lam: f"poisson:{lam}"),
    probabilities.map(lambda q: f"geometric:{q}"),
    st.tuples(st.integers(-3, 3), st.integers(4, 7), probabilities).map(
        lambda xyw: f"finite:{xyw[0]}={xyw[2]};{xyw[1]}={1 - xyw[2]}"
    ),
)
dists = st.one_of(
    valid_dists,
    st.builds(
        lambda kind, params: f"{kind}:{','.join(params)}",
        st.sampled_from(["point", "bernoulli", "binomial", "poisson", "geometric", "raw"]),
        st.lists(rationals, max_size=3),
    ),
    st.lists(st.tuples(rationals, rationals), max_size=3).map(
        lambda pairs: "finite:" + ";".join(f"{x}={w}" for x, w in pairs)
    ),
    junk,
)
flag_values = {
    "ks": st.one_of(ks_lists.map(lambda ks: ",".join(map(str, ks))), junk),
    "dist": dists,
    "y": st.one_of(rationals, junk),
    "r": st.one_of(small_ints.map(str), junk),
}
# every flag present and well formed; a family ignores the flags it does not take
valid_flags = st.fixed_dictionaries({
    "ks": st.lists(small_ints, min_size=1, max_size=3).map(lambda ks: ",".join(map(str, ks))),
    "dist": valid_dists,
    "y": st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
    "r": st.integers(min_value=1, max_value=50).map(str),
})


def run_fuzzed(argv):
    """Exit status and stderr of an in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(min_value=-1, max_value=8),
    st.one_of(valid_flags, st.fixed_dictionaries({}, optional=flag_values)),
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_table_flags_exit_cleanly(family, order, flags):
    argv = ["table", family, "--order", str(order)]
    argv += [f"--{flag}={value}" for flag, value in flags.items()]
    code, err = run_fuzzed(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


valid_grid_entries = st.fixed_dictionaries(
    {"dist": valid_dists, "ks": st.lists(small_ints, min_size=1, max_size=3)}
)
grid_entries = st.one_of(
    valid_grid_entries,
    st.fixed_dictionaries({"dist": dists, "ks": ks_lists}),
    st.fixed_dictionaries({}, optional={"dist": st.one_of(dists, small_ints), "ks": small_ints}),
    small_ints,
)


@given(
    st.one_of(
        st.lists(valid_grid_entries, min_size=1, max_size=3),
        st.lists(grid_entries, max_size=3),
        st.dictionaries(junk, small_ints, max_size=1),
    ),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_verify_grids_exit_cleanly(tmp_path_factory, grid, order):
    grid_file = tmp_path_factory.mktemp("grid") / "grid.json"
    grid_file.write_text(json.dumps(grid))
    code, err = run_fuzzed(["verify", "--grid", str(grid_file), "--order", str(order)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# ------------------------------------------------------- the flag table

# Where the flag table and the former argparse parser part on purpose:
# * a value that begins with "-", given as its own token: argparse refuses
#   it unless it is a negative number; the table takes the next token as the
#   value, whatever it is.  It is compared with the "--flag=value" spelling,
#   which argparse accepts (``dash_values_joined``).
# * a lone "--": argparse reads it as the end of the flags; no family or
#   value needs one, and the table refuses it as a prefix of every flag.
# * "--" as a flag's value, "--grid=--" or "--grid --": argparse drops it
#   and leaves the flag [], while the table keeps "--" as the value.  The oracle
#   is given a stand-in value there (``STAND_IN``) and read back as "--".
# Help (-h, --help) is left out: argparse answers it by exiting.


def dash_values_joined(argv):
    """``argv`` with each separate value that begins with "-" joined to its
    flag by "="."""
    flags, out, tokens = None, [], iter(argv)
    for token in tokens:
        out.append(token)
        if flags is None:
            flags = COMMANDS[token].flags if token in COMMANDS else None
            continue
        names = [token] if token in flags else [f for f in flags if f.startswith(token)]
        if token.startswith("--") and len(names) == 1 and flags[names[0]].parse is not None:
            value = next(tokens, None)
            if value is not None and value.startswith("-"):
                out[-1] += "=" + value
            elif value is not None:
                out.append(value)
    return out


# a value argparse keeps as it is, outside the alphabets values are drawn from
STAND_IN = "-DASHES-"


def dash_value_stood_in(token):
    """``token`` with a joined value "--" replaced by ``STAND_IN``."""
    if token.startswith("--") and token.endswith("=--"):
        return token[:-2] + STAND_IN
    return token


JUNK_FLAGS = ("--bogus", "--x", "-x", "-1", "-")
# values a flag takes, then values that look like flags or numbers
GOOD_VALUES = {"--order": ("0", "3"), "--r": ("2",), "--format": ("json", "csv")}
ODD_VALUES = ("-1", "-1/2", "-1,2", "1,2", "--order", "--force-order", "-", "", "x", "table")


@st.composite
def flag_items(draw, flags):
    """One of ``flags`` (or, now and then, an unknown flag), spelled in full
    or by a prefix, with a good, odd or junk value as one token or two, or
    with none (most often for a switch)."""
    name = draw(st.sampled_from(JUNK_FLAGS if draw(st.integers(0, 11)) == 0 else sorted(flags)))
    spelling = name[: draw(st.integers(min_value=min(3, len(name)), max_value=len(name)))]
    kind = draw(st.sampled_from(["good"] * 6 + ["odd", "junk"]))
    if kind == "good":
        value = draw(st.sampled_from(GOOD_VALUES.get(name, ("1,2", "point:1", "all"))))
    elif kind == "odd":
        value = draw(st.sampled_from(ODD_VALUES))
    else:
        value = draw(st.text(alphabet="-=,/019ax ", max_size=4))
    switch = name in flags and flags[name].parse is None
    form = draw(st.sampled_from(["separate", "joined"] + ["bare" if switch else "separate"] * 4))
    if form == "joined":
        return [f"{spelling}={value}"]
    return [spelling, value] if form == "separate" else [spelling]


@st.composite
def argvs(draw):
    """A command line: now and then a flag before the command, the command
    (or none, or a wrong one), its flags, and for ``table`` a family placed
    among them."""
    command = draw(st.sampled_from(["table"] * 10 + ["verify"] * 8 + ["tab", None]))
    flags = {n: f for n, f in COMMANDS.get(command, COMMANDS["table"]).flags.items() if f.attr}
    items = draw(st.lists(flag_items(flags), max_size=5))
    families = [1, 1, 1, 1, 0, 2] if command == "table" else [0] * 9 + [1]
    for _ in range(draw(st.sampled_from(families))):
        family = draw(st.sampled_from(["stirling2", "multilog", "prob-fubini", "nope"]))
        items.insert(draw(st.integers(min_value=0, max_value=len(items))), [family])
    head = [draw(flag_items(flags))] if draw(st.integers(0, 9)) == 0 else []
    argv = head + ([[command]] if command else []) + items
    return [token for item in argv for token in item]


@given(argvs())
@example(["verify", "--f", "--f", "--g", "--"])
@example(["table", "multilog", "--ks=--", "--order", "2"])
@settings(max_examples=500, deadline=None)
def test_the_flag_table_parses_as_argparse_did(argv):
    oracle_argv = dash_values_joined(argv)
    assume("--" not in oracle_argv)
    want = argparse_namespace([dash_value_stood_in(token) for token in oracle_argv])
    if want is not None:
        want = {name: "--" if value == STAND_IN else value for name, value in want.items()}
        assert vars(_parse_argv(argv)) == want
    else:
        with pytest.raises(UsageError):
            _parse_argv(argv)
        code, err = run_fuzzed(argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
