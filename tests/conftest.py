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
