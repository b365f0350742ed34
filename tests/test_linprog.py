from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin import linprog
from sublin.errors import NumericalFailure
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


@pytest.mark.parametrize("tol", [0, 1, 1e-9, -1e-9, Fraction(-1, 3)])
def test_in_hull_answers_a_hull_point_without_an_lp(tol, monkeypatch):
    def refuse(*args):
        raise AssertionError("simplex_max called")

    monkeypatch.setattr(linprog, "simplex_max", refuse)
    exact = [[Fraction(1, 3), Fraction(2, 3)], [1, 0], [Fraction(1, 2), Fraction(1, 2)]]
    floats = [[0.3, 0.7], [1.0, 0.0]]
    for point, hull in [(exact[0], exact), ([0, 1], [[1, 0], [0, 1]]),
                        ((0.3, 0.7), floats), ([0.5, 0.5], exact), ([1, 0], floats)]:
        assert in_hull(point, hull, tol) is (0 <= tol)


def test_in_hull_refuses_a_non_finite_point_it_matches():
    with pytest.raises(OverflowError):
        in_hull([float("inf"), 0.0], [[float("inf"), 0.0]])
    nan = float("nan")
    with pytest.raises(ValueError):
        in_hull([nan, 0.0], [[nan, 0.0]])


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


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _reference_simplex_max(c, A, b):
    """The dense `Fraction`-tableau simplex that the integer rows replaced, verbatim."""
    m, n = len(A), len(c)
    cost = [Fraction(v) for v in c]
    rows = []
    for i in range(m):
        if Fraction(b[i]) < 0:
            raise ValueError("simplex_max requires b >= 0")
        row = [Fraction(v) for v in A[i]]
        row += [_ONE if j == i else _ZERO for j in range(m)]
        row.append(Fraction(b[i]))
        rows.append(row)
    obj = [-v for v in cost] + [_ZERO] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave is None:
            raise NumericalFailure("unbounded linear program")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                factor = rows[i][enter]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [v - factor * w for v, w in zip(obj, rows[leave])]
        basis[leave] = enter

    x = [_ZERO] * (n + m)
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    return obj[-1], x[:n]


def _outcome(solve, *args):
    """The solver's result, or the type of the exception it raised."""
    try:
        return solve(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    value, x = got
    assert value == want[0] and type(value) is type(want[0])
    assert x == want[1]
    assert [type(v) for v in x] == [type(v) for v in want[1]]


# few distinct magnitudes, so that ratio-test ties and degenerate pivots are common;
# floats reach the integer rows with power-of-two denominators up to 2**-52 and beyond
_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    st.sampled_from([0.1, -0.3, 0.5, 0.30000000000000004, 1e-3, -2.5, 1 / 3]),
)
_RHS = st.one_of(
    st.just(0),
    st.integers(0, 3),
    st.builds(Fraction, st.integers(0, 4), st.integers(1, 6)),
    st.sampled_from([0.0, 0.5, 0.1, 0.7]),
)


@st.composite
def _lps(draw):
    """LPs up to 16 rows by 14 columns, the sizes of the exact pass's hull LPs,
    with zero rows and columns and degenerate zeros in ``b``; most are
    bounded, and rarely ``b`` is negative or an entry is not a finite number."""
    m, n = draw(st.integers(0, 16)), draw(st.integers(0, 14))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3))
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=3))
    A = [[0 if i in zero_rows or j in zero_cols else draw(_ENTRY) for j in range(n)]
         for i in range(m)]
    c = [draw(_ENTRY) for _ in range(n)]
    b = [draw(_RHS) for _ in range(m)]
    if m and draw(st.integers(0, 3)):
        # a row with positive entries bounds the problem
        A[draw(st.integers(0, m - 1))] = [draw(st.sampled_from([1, 2, Fraction(1, 2), 0.25]))
                                          for _ in range(n)]
    if m and n and draw(st.integers(0, 19)) == 0:
        bad = draw(st.sampled_from([-1, Fraction(-1, 2), float("nan"), float("inf")]))
        if draw(st.booleans()):
            b[draw(st.integers(0, m - 1))] = bad
        else:
            A[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = bad
    return c, A, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lps())
def test_simplex_matches_the_fraction_tableau(lp):
    _assert_same_outcome(_outcome(simplex_max, *lp), _outcome(_reference_simplex_max, *lp))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(_ENTRY, min_size=d, max_size=d), min_size=2, max_size=7)))
def test_hull_gap_matches_the_fraction_tableau(points):
    point, hull = points[0], points[1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "simplex_max", _reference_simplex_max)
        want = hull_gap(point, hull)
    _assert_same_outcome(hull_gap(point, hull), want)


def _reference_hull_gap(point, hull_points):
    """The `Fraction`-built hull LP that the integer set-up replaced, verbatim."""
    if not hull_points:
        raise ValueError("hull_points must be nonempty")
    q = [Fraction(v) for v in point]
    ps = [[Fraction(v) for v in p] for p in hull_points]
    m = len(q)
    low = min(sum(p) for p in ps)
    c = [2 * v for v in q] + [-_ONE, _ONE]
    A = [[2 * v for v in p] + [-_ONE, _ONE] for p in ps]
    b = [sum(p) - low for p in ps]
    A += [[_ONE if k == j else _ZERO for k in range(m + 2)] for j in range(m)]
    b += [_ONE] * m
    value, x = simplex_max(c, A, b)
    return value + low - sum(q), [2 * u - 1 for u in x[:m]]


@st.composite
def _hull_problems(draw):
    """A point and a hull of 1-8 points in R^1..R^4 over ``_ENTRY``; hull
    points may repeat, and the point may be one of them."""
    d = draw(st.integers(1, 4))
    coords = st.lists(_ENTRY, min_size=d, max_size=d)
    hull = draw(st.lists(coords, min_size=1, max_size=6))
    hull += draw(st.lists(st.sampled_from(hull), max_size=2))
    point = draw(st.one_of(coords, st.sampled_from(hull)))
    return point, draw(st.permutations(hull))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_hull_problems())
def test_integer_hull_lp_matches_the_fraction_built_lp(problem):
    # scaling the LP by the common denominator moves no pivot: same gap, same direction
    _assert_same_outcome(_outcome(hull_gap, *problem), _outcome(_reference_hull_gap, *problem))


def test_hull_gap_refuses_an_empty_hull():
    with pytest.raises(ValueError, match="^hull_points must be nonempty$"):
        hull_gap([Fraction(1, 2)], [])
