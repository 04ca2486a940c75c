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
