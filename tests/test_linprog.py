from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin.linprog import hull_gap, hull_vertices, in_hull, simplex_max


def test_simplex_basic():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4
    value, x = simplex_max([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
    assert value == 4
    assert x[0] + x[1] == 4


def test_simplex_degenerate_ties_terminate():
    # degenerate b = 0 rows; Bland's rule must not cycle
    value, _ = simplex_max([1], [[1], [1], [1]], [0, 0, 1])
    assert value == 0


def test_simplex_rejects_negative_rhs():
    with pytest.raises(ValueError):
        simplex_max([1], [[1]], [-1])


def test_hull_membership_interior_and_outside():
    square = [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert in_hull([Fraction(1, 2), Fraction(1, 2)], square)
    assert in_hull([0, 0], square)
    gap, direction = hull_gap([2, 0], square)
    assert gap == 1
    # separating direction certifies the gap
    lhs = sum(d * q for d, q in zip(direction, [2, 0]))
    best = max(sum(d * p for d, p in zip(direction, pt)) for pt in square)
    assert lhs - best == gap


def test_hull_membership_midpoint_of_segment():
    pts = [[0, 1], [1, 0]]
    assert in_hull([Fraction(1, 2), Fraction(1, 2)], pts)
    assert not in_hull([Fraction(1, 2), Fraction(1, 4)], pts)


def test_hull_vertices_drops_interior_and_duplicates():
    pts = [[0, 0], [1, 0], [0, 1], [Fraction(1, 4), Fraction(1, 4)], [0, 0]]
    assert hull_vertices(pts) == [0, 1, 2]


def test_hull_vertices_single_point():
    assert hull_vertices([[3, 5]]) == [0]
    assert hull_vertices([[3, 5], [3, 5]]) == [0]


def test_hull_vertices_keeps_the_first_of_near_equal_points():
    twins = [(0.3, 0.7), (0.30000000000000004, 0.7), (0.5, 0.5)]
    assert hull_vertices(twins, tol=1e-9) == [0, 2]
    assert hull_vertices(twins) == [0, 1, 2]


def _reference_hull_vertices(points):
    """Each distinct point (first occurrence) against the hull of all the others."""
    distinct = {}
    for i, p in enumerate(points):
        distinct.setdefault(tuple(Fraction(v) for v in p), i)
    keys = list(distinct)
    if len(keys) == 1:
        return [distinct[keys[0]]]
    return sorted(distinct[k] for k in keys
                  if hull_gap(list(k), [list(o) for o in keys if o != k])[0] > 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=1, max_size=8),
       st.integers(1, 4))
def test_hull_vertices_at_tol_0_are_the_extreme_points(cells, scale):
    points = [[Fraction(v, scale) for v in p] for p in cells]
    assert hull_vertices(points) == _reference_hull_vertices(points)
