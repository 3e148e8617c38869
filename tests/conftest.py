import os
import sys

# Write no bytecode under src/: a benchmark run in this checkout would load
# it instead of compiling the package, which lowers its set-up time and peak
# memory.  Subprocesses that tests start inherit the variable.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest  # noqa: E402

from mlsgraph import MetricGraph  # noqa: E402


@pytest.fixture
def theta() -> MetricGraph:
    """Two vertices joined by parallel edges of lengths 1, 2, 3."""
    return MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3)], name="theta")


@pytest.fixture
def dumbbell() -> MetricGraph:
    """Self-loops of lengths 2 and 3 joined by a bridge of length 1."""
    return MetricGraph([0, 1], [(0, 0, 0, 2), (1, 1, 1, 3), (2, 0, 1, 1)], name="dumbbell")


@pytest.fixture
def pendant_theta() -> MetricGraph:
    """Theta on vertices {1,2} with a pendant leaf 0; the basepoint falls
    outside the core."""
    return MetricGraph(
        [0, 1, 2],
        [(0, 1, 2, 1), (1, 1, 2, 2), (2, 1, 2, 3), (3, 0, 1, 5)],
        name="pendant-theta")
