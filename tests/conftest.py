import cProfile
import gc
import sys
from collections import Counter

import pytest


@pytest.fixture
def shallow_stack():
    """Lower the recursion limit to 100 frames above the test's own depth,
    so that a table filled one frame per step fails at a small size."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    yield
    sys.setrecursionlimit(limit)


def _calls_by_callee(fn, *args) -> Counter:
    """The Python and builtin calls made while ``fn(*args)`` runs, by callee:
    a builtin by its ``cProfile`` name, a Python function by its file, line
    and name.  The collector is off while ``fn`` runs, so that a gc
    callback, such as the one hypothesis installs, is not counted."""
    profiler = cProfile.Profile(builtins=True)
    collecting = gc.isenabled()
    gc.disable()
    try:
        profiler.runcall(fn, *args)
    finally:
        if collecting:
            gc.enable()
    counts = Counter()
    for entry in profiler.getstats():
        code = entry.code
        if not isinstance(code, str):
            code = code.co_filename, code.co_firstlineno, code.co_name
        counts[code] += entry.callcount
    return counts


@pytest.fixture
def call_count():
    """``count(fn, *args)``: the Python and builtin calls made while
    ``fn(*args)`` runs, counted by ``cProfile`` with builtins as
    ``bench/counted.py`` counts them."""

    def count(fn, *args):
        return sum(_calls_by_callee(fn, *args).values())

    return count


@pytest.fixture
def calls_by_callee():
    """``count(fn, *args)``: the calls ``call_count`` counts, as a
    ``Counter`` from each callee to its number of calls."""
    return _calls_by_callee
