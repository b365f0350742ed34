"""Exact linear programming for convex-hull membership.

A small dense simplex with Bland's rule on a fraction-free tableau: each
row is a list of Python ints over one positive row denominator, and a
pivot is an integer Gauss-Jordan step followed by one gcd reduction per
row.  Float inputs are converted to exact rationals (every float is a
rational), so every feasibility decision here is exact; callers apply
their own numeric tolerance to the returned gap when working in float mode.

Problem sizes are tiny throughout the package (a few dozen variables),
so exact pivoting is fast enough and removes all conditioning worries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import NumericalFailure

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rational(v):
    """``v`` as an exact rational: ints and Fractions as they are, else ``Fraction(v)``."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _integer_row(fracs):
    """Integer numerators of rationals ``fracs`` over their least common denominator."""
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _reduce(row, den):
    """The integer row ``row`` over ``den`` > 0 in lowest terms."""
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(row, den, f, prow, pden, nonzero):
    """Eliminate the entering column from ``row``/``den``, whose entry there is
    ``f``: ``(row*pden - f*prow) / (den*pden)``, touching only the pivot row's
    ``nonzero`` positions.
    """
    new = [v * pden for v in row] if pden != 1 else row[:]
    for j in nonzero:
        new[j] -= f * prow[j]
    return _reduce(new, den * pden)


def simplex_max(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Maximize ``c . x`` subject to ``A x <= b``, ``x >= 0``, ``b >= 0``.

    Uses Bland's rule, so it terminates on every input.  Returns
    ``(value, x)`` with exact Fraction entries.

    The tableau is fraction-free: row i holds integer numerators over one
    positive denominator, so entry j is ``rows[i][j] / dens[i]``.
    """
    m, n = len(A), len(c)
    obj, obj_den = _integer_row([-_rational(v) for v in c])
    obj += [0] * (m + 1)
    rows, dens = [], []
    for i in range(m):
        bi = _rational(b[i])
        if bi < 0:
            raise ValueError("simplex_max requires b >= 0")
        row, den = _integer_row([_rational(v) for v in A[i]] + [bi])
        rhs = row.pop()
        row += [den if j == i else 0 for j in range(m)]
        row.append(rhs)
        rows.append(row)
        dens.append(den)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        # ratio rhs/coeff over rows with coeff > 0; the row denominator
        # cancels, and ratios compare by cross-multiplying
        leave = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                here = rows[i][-1] * rows[leave][enter]
                best = rows[leave][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise NumericalFailure("unbounded linear program")
        prow, pden = _reduce(rows[leave], rows[leave][enter])
        rows[leave], dens[leave] = prow, pden
        nonzero = [j for j, w in enumerate(prow) if w]
        for i in range(m):
            f = rows[i][enter]
            if i != leave and f:
                rows[i], dens[i] = _eliminate(rows[i], dens[i], f, prow, pden, nonzero)
        if obj[enter]:
            obj, obj_den = _eliminate(obj, obj_den, obj[enter], prow, pden, nonzero)
        basis[leave] = enter

    x = [_ZERO] * (n + m)
    for i, bi in enumerate(basis):
        x[bi] = Fraction(rows[i][-1], dens[i])
    return Fraction(obj[-1], obj_den), x[:n]


def hull_gap(point: Sequence, hull_points: Sequence[Sequence]):
    """Separation gap between ``point`` and ``conv(hull_points)``.

    Solves ``max  y.q - t`` subject to ``y.p_i <= t`` and ``|y|_inf <= 1``.
    The optimum is 0 exactly when the point lies in the hull; otherwise it
    is positive and ``y`` is a separating direction.  Returns ``(gap, y)``.

    The LP substitutes ``y = 2u - 1`` with ``0 <= u <= 1``, and
    ``t + low = s+ - s-`` with ``low = min_i sum(p_i)``, so that every
    right-hand side is >= 0: m + 2 columns and k + m rows for k points in R^m.
    """
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
