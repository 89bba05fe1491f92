import cProfile
import sys

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


@pytest.fixture
def call_count():
    """``count(fn, *args)``: the Python and builtin calls made while
    ``fn(*args)`` runs, counted by ``cProfile`` with builtins as
    ``bench/counted.py`` counts them."""

    def count(fn, *args):
        profiler = cProfile.Profile(builtins=True)
        profiler.runcall(fn, *args)
        return sum(entry.callcount for entry in profiler.getstats())

    return count
