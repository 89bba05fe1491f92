"""Run the multinum command line once, with a span around every call into
each layer's public functions.

    python3 bench/traced.py OUT_STEM ARG...

runs ``multinumbers.cli.main([ARG...])`` and, when it ends, writes

* ``OUT_STEM.spans.jsonl``: one span per line, ``[id, parent id, name,
  start ns, end ns]``, where ``name`` is ``<layer>.<function>``;
* ``OUT_STEM.summary.json``: calls and self time (span minus child spans)
  per name, and counters of Fraction-level work.

The wrapping happens in this process only; nothing under ``src/`` changes,
and the command's stdout is the same as without tracing.
"""

from __future__ import annotations

import fractions
import importlib
import itertools
import json
import math
import sys
import time
import types
from fractions import Fraction

import multinumbers.cli
from multinumbers.report import VerificationReport

# Series operations.  Only some are reported; the others are traced so
# that their time is not counted in their callers' self time.
SERIES_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "exp": "exp",
    "log": "log",
    "inverse": "inverse",
    "compose": "compose",
    "divide": "divide",
    "derivative": "derivative",
}

# Public functions per layer.  Accessors and validators (``Series.coeff``,
# ``index_tuple``) are left out: they are cheap and called per coefficient.
LAYER_FUNCTIONS = {
    "multilog": ("multilog", "multilog_coefficient", "multi_stirling1"),
    "classical": ("stirling1", "stirling2", "lah", "bernoulli_higher", "bernoulli_higher_series"),
    "moments": ("parse_distribution", "moments", "mgf", "resolvent", "sum_power_moment"),
    "multi": (
        "li_argument",
        "multi_stirling2_series",
        "multi_bernoulli_series",
        "multi_lah_series",
        "multi_stirling2",
        "multi_bernoulli",
        "multi_lah",
    ),
    "probabilistic": (
        "prob_stirling2_series",
        "prob_multi_stirling2_series",
        "prob_lah_series",
        "prob_multi_lah_series",
        "prob_fubini_series",
        "prob_stirling2",
        "prob_stirling2_by_moments",
        "prob_multi_stirling2",
        "prob_lah",
        "prob_multi_lah",
        "prob_fubini",
    ),
    "identities": ("run_full_suite",),
    "cli": ("main",),
}

# Every public ``check_*`` of these modules is traced as part of the
# identities layer, wherever it is defined.
CHECK_MODULES = ("multilog", "multi", "identities")


def _bump(counts: dict, key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


class Tracer:
    """Spans kept in memory, with call counts and self time per span name."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list[int]] = []  # open spans: [span id, ns spent in child spans]
        self.layer = "outside"  # layer of the innermost open span
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.fractions: dict[str, int] = {}  # Fraction constructions per innermost layer
        self.gcds: dict[str, int] = {}  # math.gcd calls from Fraction arithmetic, per layer
        self.key_hashes = 0  # Fraction.__hash__ calls
        self.reports_built = 0
        self.reports_kept = 0
        self._ids = itertools.count()

    def wrap(self, name: str, layer: str, fn, on_result=None):
        clock = time.perf_counter_ns
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.self_ns

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            outer_layer, self.layer = self.layer, layer
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.layer = outer_layer
                if stack:
                    stack[-1][1] += end - start
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + (end - start) - frame[1]
                spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Swap every layer function for its traced wrapper in every module
        that binds it, and count Fraction-level work."""
        series_cls = importlib.import_module("multinumbers.series").Series
        wrapped = {}  # original's id -> (original, wrapper)
        for attr, op in SERIES_METHODS.items():
            original = series_cls.__dict__.get(attr)
            if original is None:
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = (original, self.wrap(f"series.{op}", "series", original))
            setattr(series_cls, attr, wrapped[id(original)][1])
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"multinumbers.{layer}")
            for name in names:
                if hasattr(module, name):
                    original = getattr(module, name)
                    on_result = self._count_kept if name == "run_full_suite" else None
                    wrapper = self.wrap(f"{layer}.{name}", layer, original, on_result)
                    wrapped[id(original)] = (original, wrapper)
        for module_name in CHECK_MODULES:
            module = importlib.import_module(f"multinumbers.{module_name}")
            for name in getattr(module, "__all__", ()):
                if name.startswith("check_"):
                    original = getattr(module, name)
                    wrapper = self.wrap(f"identities.{name}", "identities", original)
                    wrapped[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name == "multinumbers" or module_name.startswith("multinumbers."):
                for attr, value in list(vars(module).items()):
                    original, wrapper = wrapped.get(id(value), (None, None))
                    if original is value:
                        setattr(module, attr, wrapper)
        self._count_fraction_work()

    def _count_kept(self, reports) -> None:
        self.reports_kept += len(reports)

    def _count_fraction_work(self) -> None:
        tracer = self
        new, hash_, gcd = Fraction.__new__, Fraction.__hash__, math.gcd
        init = VerificationReport.__init__

        def counted_new(cls, *args, **kwargs):
            _bump(tracer.fractions, tracer.layer)
            return new(cls, *args, **kwargs)

        def counted_hash(value):
            tracer.key_hashes += 1
            return hash_(value)

        def counted_gcd(*args):
            _bump(tracer.gcds, tracer.layer)
            return gcd(*args)

        def counted_init(report, *args, **kwargs):
            tracer.reports_built += 1
            init(report, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)
        Fraction.__hash__ = counted_hash
        VerificationReport.__init__ = counted_init
        math_with_counted_gcd = types.ModuleType("math")
        math_with_counted_gcd.__dict__.update(vars(math))
        math_with_counted_gcd.gcd = counted_gcd
        fractions.math = math_with_counted_gcd

    def write(self, stem: str) -> None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)
        summary = {
            "calls": self.calls,
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "fraction_calls": self.fractions,
            "gcd_calls": self.gcds,
            "key_hashes": self.key_hashes,
            "reports_built": self.reports_built,
            "reports_kept": self.reports_kept,
        }
        with open(f"{stem}.summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return multinumbers.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(stem)


if __name__ == "__main__":
    sys.exit(main())
