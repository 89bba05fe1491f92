"""Tests of the benchmark's own reference code, checks, tracer and metric
names.

Run with ``PYTHONPATH=src python -m pytest bench``; nothing here starts a
process.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import reference
import run
import traced
import workloads
from workloads import CheckFailed

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_stirling_triangles_hand_values():
    assert reference.stirling2_rows(5)[5][2] == 15
    assert reference.stirling1_rows(5)[5][2] == 50
    assert reference.stirling1_rows(4)[4] == [0, 6, 11, 6, 1]
    assert reference.stirling2_rows(4)[4] == [0, 1, 7, 6, 1]


def test_stirling_row_sums():
    for n, row in enumerate(reference.stirling1_rows(10)):
        assert sum(row) == factorial(n)
    assert [sum(row) for row in reference.stirling2_rows(6)] == [1, 1, 2, 5, 15, 52, 203]


def test_lah_hand_values():
    assert reference.lah_rows(4)[4][2] == 36
    assert reference.lah_rows(3)[3] == [0, 6, 6, 1]


def test_bernoulli_recurrence():
    b = reference.bernoulli_numbers(8)
    assert b[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]
    assert b[3] == b[5] == b[7] == 0
    assert b[4] == Fraction(-1, 30)
    assert reference.bernoulli_order2(2) == [1, -1, Fraction(5, 6)]


def test_ordered_bell():
    assert reference.ordered_bell(4) == [1, 1, 3, 13, 75]


def _reports(*reports: dict) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in reports).encode()


def test_verify_checks_reject_wrong_reports():
    base = {"identity": "point-mass-collapse-multi-lah", "ks": [2], "dist": "point:1"}
    ok = dict(base, status="expected-discrepancy")
    all_ones = dict(base, ks=[1, 1], status="expected-discrepancy")
    failed = dict(base, identity="append-one", status="fail")
    workloads.expected_discrepancies_in_scope({workloads.VERIFY_12: _reports(ok)})
    with pytest.raises(CheckFailed):
        workloads.expected_discrepancies_in_scope({workloads.VERIFY_12: _reports(ok, all_ones)})
    with pytest.raises(CheckFailed):
        workloads.no_fail_report({workloads.VERIFY_12: _reports(ok, failed)})
    out = {
        workloads.VERIFY_12: _reports(ok),
        workloads.LIST_IDENTITIES: b"point-mass-collapse-multi-lah\tx\nappend-one\ty\n",
    }
    with pytest.raises(CheckFailed):
        workloads.every_identity_reported(out)


def test_table_check_rejects_a_wrong_entry():
    records = [
        {"family": "prob-lah", "ks": None, "dist": "geometric:1/2", "n": n, "k": n, "value": "1"}
        for n in range(workloads.ORDER + 1)
    ]
    out = {workloads.PLAH_GEOM: _reports(*records)}
    workloads.prob_lah_diagonal(out)
    records[7]["value"] = "2"
    with pytest.raises(CheckFailed):
        workloads.prob_lah_diagonal({workloads.PLAH_GEOM: _reports(*records)})


def test_tracer_self_time_excludes_child_spans():
    tracer = traced.Tracer()
    inner = tracer.wrap("layer.inner", "layer", lambda: time.sleep(0.02))
    outer = tracer.wrap("layer.outer", "layer", lambda: inner())
    outer()
    assert tracer.calls == {"layer.inner": 1, "layer.outer": 1}
    assert tracer.self_ns["layer.outer"] < 0.01e9 <= tracer.self_ns["layer.inner"]
    inner_span, outer_span = tracer.spans  # a span is stored when it ends
    assert inner_span[1] == outer_span[0] and outer_span[1] is None


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "py_calls", "peak_rss_mb", "setup_s"}
    empty = {"calls": {}, "self_s": {}, "fraction_calls": {}, "gcd_calls": {},
             "key_hashes": 0, "reports_built": 0, "reports_kept": 0, "records": 0, "out_bytes": 0}
    names = set(run.layer_metrics(empty)) | {"trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == names
