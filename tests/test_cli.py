import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from multinumbers.cli import main
from multinumbers.moments import parse_distribution

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


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "not-a-family"])
    assert excinfo.value.code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
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
        "verify: 452 pass, 0 fail, 0 skipped, 59 expected-discrepancy\n",
    ),
    (
        ("verify", "--list-identities"),
        "b81f37cb992b80ad15ff0860f6f0df749b4c375b01cf82d53e3256d1a68fdec1",
        "",
    ),
]


@pytest.mark.parametrize("argv,stdout_sha256,stderr", PINNED_VERIFY_BYTES, ids=lambda v: str(v))
def test_verify_output_bytes_are_pinned(capsys, argv, stdout_sha256, stderr):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    assert err == stderr
