"""Exact linear programming for convex-hull membership.

A small dense simplex over `Fraction` arithmetic.  Float inputs are
converted to exact rationals (every float is a rational), so every
feasibility decision here is exact; callers apply their own numeric
tolerance to the returned gap when working in float mode.

Problem sizes are tiny throughout the package (a few dozen variables),
so exact pivoting is fast enough and removes all conditioning worries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NumericalFailure

_ZERO = Fraction(0)
_ONE = Fraction(1)


def simplex_max(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Maximize ``c . x`` subject to ``A x <= b``, ``x >= 0``, ``b >= 0``.

    Uses Bland's rule, so it terminates on every input.  Returns
    ``(value, x)`` with exact Fraction entries.
    """
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


def hull_gap(point: Sequence, hull_points: Sequence[Sequence]):
    """Separation gap between ``point`` and ``conv(hull_points)``.

    Solves ``max  y.q - max_i y.p_i`` over ``|y|_inf <= 1``.  The optimum
    is 0 exactly when the point lies in the hull; otherwise it is positive
    and ``y`` is a separating direction.  Returns ``(gap, y)``.
    """
    if not hull_points:
        raise ValueError("hull_points must be nonempty")
    q = [Fraction(v) for v in point]
    m = len(q)
    # variables: y+ (m), y- (m), s+, s-
    c = q + [-v for v in q] + [-_ONE, _ONE]
    A = []
    b = []
    for p in hull_points:
        pr = [Fraction(v) for v in p]
        A.append(pr + [-v for v in pr] + [-_ONE, _ONE])
        b.append(_ZERO)
    for j in range(2 * m):
        A.append([_ONE if k == j else _ZERO for k in range(2 * m)] + [_ZERO, _ZERO])
        b.append(_ONE)
    value, x = simplex_max(c, A, b)
    y = [x[j] - x[m + j] for j in range(m)]
    return value, y


def in_hull(point: Sequence, hull_points: Sequence[Sequence], tol=0) -> bool:
    """True when ``point`` lies in ``conv(hull_points)`` up to ``tol``."""
    gap, _ = hull_gap(point, hull_points)
    return gap <= tol


def hull_vertices(points: Sequence[Sequence], tol=0):
    """Indices of the extreme points of ``conv(points)``.

    Duplicates are collapsed (first occurrence wins).  From the last point
    to the first, a point is dropped when its gap against the hull of the
    points still kept is at most ``tol``, so of two points within ``tol`` the
    first survives.  At tol 0 these are exactly the extreme points: no extreme
    point lies in the hull of the others, and each other point lies in the
    hull of the extreme ones.
    """
    kept = {}
    for i, p in enumerate(points):
        kept.setdefault(tuple(Fraction(v) for v in p), i)
    for key in reversed(list(kept)):
        others = [list(k) for k in kept if k != key]
        if others and hull_gap(list(key), others)[0] <= tol:
            del kept[key]
    return sorted(kept.values())
