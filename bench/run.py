"""Benchmark of the ``multinum`` command line.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-12 --seed 1 --seconds 20 --trace 0

The program is pure Python; the only build step is compiling
``src/multinumbers`` to bytecode.  Each workload is a fixed list of
``python -S -m multinumbers`` commands (``workloads.py``).  A round runs
the calibration job once, then every command once, each as a cold process,
one at a time, in an order drawn from ``--seed``; before each command three
cold ``import multinumbers.cli`` are timed.  A run makes as many whole
rounds as fit in ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median round time x ``CALIBRATION_NOMINAL_S`` / median
  calibration time, i.e. the round time at a fixed host speed;
* ``py_calls``: calls executed inside ``multinumbers.cli.main`` over the
  workload's commands, counted by cProfile (``counted.py``) in a separate,
  untimed pass at the fixed ``--hash-seed``;
* ``peak_rss_mb``: largest peak RSS of any timed invocation;
* ``setup_s``: median of the timed cold imports.

``--trace 1`` alternates untraced rounds with rounds run under
``traced.py`` (at ``--hash-seed``) and reports the per-layer metrics of a
traced round, self times as medians over traced rounds, and
``trace.overhead``, traced over untraced round time.  Span files land in
``.bench_build/trace/``.

Every cold invocation and every output check is one operation.  An
invocation fails on a non-zero exit, a traceback on stderr, or stdout
that differs from the first run of the same command; its time still
counts.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
CHILD_TIMEOUT_S = 150
SETUP = ("-c", "import multinumbers.cli")
SETUP_REPS = 3  # cold imports timed before each command
CALIBRATION = (str(BENCH / "calibration.py"),)
# Typical median time of the calibration job on a 2-vCPU Intel Xeon VM at
# 2.1 GHz with CPython 3.11.7; ``wall_s`` is rescaled to the host speed at
# which the job takes this long.
CALIBRATION_NOMINAL_S = 0.5

IDENTITY_CHECKS = (
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
)


@dataclass
class Invocation:
    seconds: float
    rss_mb: float
    status: int
    out: bytes
    err: bytes


class Run:
    """One benchmark run: its random source, its operation tally, and the
    first stdout of every command, which later runs must reproduce."""

    def __init__(self, seed: int, hash_seed: int) -> None:
        self.rng = random.Random(seed)
        self.hash_seed = hash_seed
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[Command, bytes] = {}

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", file=sys.stderr)
        return ok

    def invoke(self, args: tuple[str, ...], hash_seed: int) -> Invocation:
        """Run ``python ARGS`` cold; time it from spawn to reap."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed), PYTHONDONTWRITEBYTECODE="1")
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-S", *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
            out.seek(0)
            err.seek(0)
            return Invocation(seconds, usage.ru_maxrss / 1024, proc.returncode, out.read(), err.read())

    def command(self, command: Command, prefix: tuple[str, ...], hash_seed: int) -> Invocation:
        """Invoke one workload command and record it as an operation."""
        inv = self.invoke((*prefix, *command), hash_seed)
        first = self.outputs.setdefault(command, inv.out)
        what = f"{' '.join(prefix)} {' '.join(command)}"
        if inv.status != 0:
            self.record(False, f"{what}: exit status {inv.status}")
        elif b"Traceback" in inv.err:
            self.record(False, f"{what}: traceback on stderr\n{inv.err.decode(errors='replace')}")
        else:
            self.record(inv.out == first, f"{what}: stdout differs from its first run")
        return inv

    def timed(self, args: tuple[str, ...], what: str) -> float:
        """Time one cold helper process (import or calibration job)."""
        inv = self.invoke(args, self.rng.randrange(2**32))
        self.record(inv.status == 0 and not inv.err,
                    f"{what}: exit status {inv.status}, stderr {inv.err[-500:]!r}")
        return inv.seconds

    def check(self, check) -> bool:
        try:
            check(self.outputs)
        except Exception as exc:  # a malformed output must fail the check, not the run
            traceback.print_exc()
            return self.record(False, f"check {check.__name__}: {exc}")
        return self.record(True, check.__name__)


def _another_round_fits(started: float, rounds: int, seconds: float) -> bool:
    """Whole rounds only: as many as fit in ``seconds`` at the pace so far."""
    return not rounds or (time.perf_counter() - started) * (rounds + 1) / rounds <= seconds


def end_to_end(run: Run, commands: tuple[Command, ...], seconds: float) -> dict:
    rounds, calibrations, setups, rss = [], [], [], []
    started = time.perf_counter()
    while _another_round_fits(started, len(rounds), seconds):
        calibrations.append(run.timed(CALIBRATION, "calibration job"))
        order = list(commands)
        run.rng.shuffle(order)
        total = 0.0
        for command in order:
            setups.extend(run.timed(SETUP, "cold import") for _ in range(SETUP_REPS))
            inv = run.command(command, ("-m", "multinumbers"), run.rng.randrange(2**32))
            total += inv.seconds
            rss.append(inv.rss_mb)
        rounds.append(total)
    py_calls = 0
    for command in commands:
        inv = run.command(command, (str(BENCH / "counted.py"),), run.hash_seed)
        last = inv.err.decode(errors="replace").splitlines()[-1:] or [""]
        name, _, value = last[0].partition(" ")
        if run.record(name == "py_calls" and value.isdigit(), f"call count of {command}"):
            py_calls += int(value)
    wall, calibration = statistics.median(rounds), statistics.median(calibrations)
    print(
        f"bench: {len(rounds)} rounds {[round(t, 3) for t in rounds]}, raw median {wall:.4f} s; "
        f"calibration median {calibration:.4f} s; {len(setups)} cold imports",
        file=sys.stderr,
    )
    return {
        "wall_s": (wall * CALIBRATION_NOMINAL_S / calibration, "s"),
        "py_calls": (py_calls, "calls"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _merge(summaries: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "fraction_calls": {}, "gcd_calls": {}}
    for summary in summaries:
        for field, per_name in merged.items():
            for name, value in summary[field].items():
                per_name[name] = per_name.get(name, 0) + value
    for field in ("key_hashes", "reports_built", "reports_kept", "records", "out_bytes"):
        merged[field] = sum(summary[field] for summary in summaries)
    return merged


def _is_series_builder(function: str) -> bool:
    return function.endswith("_series") or function == "li_argument"


def _is_entry(function: str) -> bool:
    """A function that returns one number of a family, e.g. ``prob_lah``."""
    return not _is_series_builder(function)


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics of one traced round, from its merged summary."""
    calls, self_s = t["calls"], t["self_s"]

    def total(field: dict, layer: str, keep=lambda function: True):
        return sum(v for name, v in field.items()
                   if name.startswith(layer + ".") and keep(name.partition(".")[2]))

    m = {}
    for op in ("mul", "compose"):
        m[f"series.{op}.calls"] = (calls.get(f"series.{op}", 0), "calls")
    for op in ("mul", "compose", "exp", "log", "inverse", "divide"):
        m[f"series.{op}.s"] = (self_s.get(f"series.{op}", 0.0), "s")
    m["series.fraction_calls"] = (t["fraction_calls"].get("series", 0), "calls")
    m["series.gcd_calls"] = (t["gcd_calls"].get("series", 0), "calls")
    m["multilog.calls"] = (total(calls, "multilog"), "calls")
    m["multilog.s"] = (total(self_s, "multilog"), "s")
    for function in ("moments", "mgf"):
        m[f"moments.{function}.s"] = (self_s.get(f"moments.{function}", 0.0), "s")
    m["moments.resolvent.calls"] = (calls.get("moments.resolvent", 0), "calls")
    m["moments.resolvent.s"] = (self_s.get("moments.resolvent", 0.0), "s")
    m["moments.key_hashes"] = (t["key_hashes"], "calls")
    m["classical.s"] = (total(self_s, "classical"), "s")
    for layer in ("multi", "probabilistic"):
        m[f"{layer}.series.s"] = (total(self_s, layer, _is_series_builder), "s")
        m[f"{layer}.entry.calls"] = (total(calls, layer, _is_entry), "calls")
    for check in IDENTITY_CHECKS:
        m[f"identities.{check}.s"] = (self_s.get(f"identities.{check}", 0.0), "s")
    m["identities.suite.s"] = (self_s.get("identities.run_full_suite", 0.0), "s")
    m["identities.reports_built"] = (t["reports_built"], "count")
    m["identities.reports_kept"] = (t["reports_kept"], "count")
    m["cli.s"] = (self_s.get("cli.main", 0.0), "s")
    m["cli.records"] = (t["records"], "count")
    m["cli.out_bytes"] = (t["out_bytes"], "bytes")
    return m


def per_layer(run: Run, workload: str, commands: tuple[Command, ...], seconds: float) -> dict:
    trace_dir = WORK / "trace"
    trace_dir.mkdir(exist_ok=True)
    untraced, traced, rounds = [], [], []
    started = time.perf_counter()
    while _another_round_fits(started, len(rounds), seconds):
        order = list(commands)
        run.rng.shuffle(order)
        untraced.append(sum(
            run.command(c, ("-m", "multinumbers"), run.rng.randrange(2**32)).seconds
            for c in order))
        summaries, total = [], 0.0
        for command in order:
            stem = trace_dir / f"{workload}-{commands.index(command)}"
            summary_file = Path(f"{stem}.summary.json")
            summary_file.unlink(missing_ok=True)
            inv = run.command(command, (str(BENCH / "traced.py"), str(stem)), run.hash_seed)
            total += inv.seconds
            if not run.record(summary_file.is_file(), f"trace summary of {command}"):
                continue
            summary = json.loads(summary_file.read_text(encoding="utf-8"))
            summary["records"] = inv.out.count(b"\n")
            summary["out_bytes"] = len(inv.out)
            summaries.append(summary)
        traced.append(total)
        rounds.append(layer_metrics(_merge(summaries)))
    metrics = {name: (statistics.median_low(r[name][0] for r in rounds), unit)
               for name, (_, unit) in rounds[0].items()}
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hash-seed", type=int, default=0,
        help="PYTHONHASHSEED of the counted and traced passes (default 0)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "multinumbers" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'multinumbers'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC / "multinumbers"), quiet=1)
    workload = WORKLOADS[args.workload]
    run = Run(args.seed, args.hash_seed)
    run.timed(SETUP, "warm-up import")  # untimed: loads the interpreter's files into the page cache
    if args.trace:
        metrics = per_layer(run, args.workload, workload.commands, args.seconds)
    else:
        metrics = end_to_end(run, workload.commands, args.seconds)
    for probe in workload.probes:
        run.command(probe, ("-m", "multinumbers"), run.hash_seed)
    correct = all([run.check(check) for check in workload.checks])
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
