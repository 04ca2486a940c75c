import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lamcc.graph import Graph, enumerate_wedges
from lamcc.lp import FractionalSolution


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def k3():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def star4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def cycle4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def wedges_of():
    return enumerate_wedges


def _solution(g, orientation, lam, values, objective):
    """A FractionalSolution over g from a {(u, v): value} dict (u < v)."""
    items = sorted((u * g.n + v, val) for (u, v), val in values.items())
    keys = np.array([k for k, _ in items], dtype=np.int64)
    vals = np.array([val for _, val in items], dtype=np.float64)
    return FractionalSolution(orientation, lam, g.n, keys, vals, objective)


@pytest.fixture
def solution_of():
    return _solution


def _python_child(script: str, *path_first: Path) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's lamcc."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [*map(str, path_first), str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )


@pytest.fixture
def python_child():
    return _python_child
