"""LLN/CLT experiment drivers, moment diagnostics, and the exact
counterexample family with its limit values.

Every experiment pairs a finite-n DP computation with the predicted limit
(or an analytic bracket) and reports both; nothing here claims a proven
limit.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ModelError, ModelTooLarge, NumericalFailure, UsageError
from .gheat import GParams, GridConfig, g_normal_expectation
from .measures import (
    AmbiguitySet,
    DiscreteDistribution,
    NumericMode,
    is_exact,
    lower_expectation,
    upper_expectation,
)
from .phi import evaluate_array, parse_phi
from .recursion import StepSequence, sublinear_eval_sum


def _fmt(x) -> str:
    if is_exact(x):  # an int or a Fraction prints as "p/q", or "p" when q = 1
        try:
            return str(x)
        except ValueError:  # past Python's int-string digit limit
            raise ModelTooLarge("an exact result has too many digits to print") from None
    return f"{float(x):.17g}"


@dataclass
class ExperimentRow:
    n: int
    value: object
    prediction: object

    @property
    def gap(self):
        return self.value - self.prediction


_COLUMNS = ("n", "value", "prediction", "gap")


@dataclass
class ExperimentTable:
    """Rows of (n, computed value, predicted limit, gap) plus metadata."""

    rows: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(set(ns)):
            raise ModelError("row schedule must be strictly increasing")

    def __iter__(self):
        return iter(self.rows)

    def _cells(self):
        return [(r.n, _fmt(r.value), _fmt(r.prediction), _fmt(r.gap)) for r in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerows([_COLUMNS, *self._cells()])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {"metadata": self.metadata,
                "rows": [dict(zip(_COLUMNS, cells)) for cells in self._cells()]}


def _decaying(table) -> bool:
    """Whether an ``(n, value)`` tail table decays: its largest value on the
    second half of the schedule is below that on the first, or all are 0."""
    half = len(table) // 2
    head = max(v for _, v in table[: half + 1])
    tail = max(v for _, v in table[half:])
    return tail < head or all(v == 0 for _, v in table)


@dataclass(frozen=True)
class MomentSummary:
    """First/second-moment envelopes and the H1/H2 tail diagnostics."""

    mu_bar: object
    mu_lo: object
    sigma2_bar: object
    sigma2_lo: object
    truncated_means: tuple  # (n, mu_lo_n, mu_bar_n)
    tail_abs: tuple  # (n, n*V(|X| >= n))
    tail_sq: tuple  # (n, n*V(X^2 >= n))
    cesaro: tuple  # (n, (1/n^2) sum_i E[X_i^2 1{|X_i| <= n}])

    @property
    def h1_decaying(self) -> bool:
        return _decaying(self.tail_abs)

    @property
    def h2_decaying(self) -> bool:
        return _decaying(self.tail_sq)


def _check_schedule(ns: list) -> list:
    if not ns or ns[0] < 1 or ns != sorted(set(ns)):
        raise UsageError("n-schedule must be strictly increasing positive integers")
    return ns


def default_diagnostic_schedule(n_max: int) -> list:
    out = sorted({*range(1, min(11, n_max + 1)), *(
        int(round(10 ** (i / 4))) for i in range(4, 200) if 10 ** (i / 4) <= n_max
    ), n_max})
    return [n for n in out if n >= 1]


class _MemberTable(NamedTuple):
    """One member's nonzero-weight atoms sorted by |x| (keys |x| and x*x),
    with prefix sums of w*x and w*x^2 and suffix sums of w, as integer
    numerators over ``den``: E[X 1{|X| < n}] is
    ``wx[bisect_left(abs_keys, n)] / den``, E[X^2 1{|X| <= n}] is
    ``wx2[bisect_right(abs_keys, n)] / den``, and P(|X| >= n) and
    P(X^2 >= n) are ``tail`` at ``bisect_left`` on ``abs_keys`` and
    ``sq_keys``."""

    abs_keys: list
    sq_keys: list
    den: int
    wx: list
    wx2: list
    tail: list


def _member_table(m: DiscreteDistribution) -> _MemberTable:
    pairs = sorted(((x, w) for x, w in m.atoms if w != 0), key=lambda p: abs(p[0]))
    try:  # floats convert exactly; ints and Fractions stay as they are
        pairs = [tuple(v if is_exact(v) else Fraction(v) for v in p) for p in pairs]
    except (OverflowError, ValueError):  # inf or nan
        raise NumericalFailure("a law has a non-finite atom or weight") from None
    # over wd*xd^2 (w = wn/wd, x = xn/xd) all three terms have integer
    # numerators: wn*xd^2, wn*xn*xd and wn*xn^2
    den = math.lcm(*(w.denominator * x.denominator ** 2 for x, w in pairs))
    w, wx, wx2 = [], [], []
    for x, v in pairs:
        xn, xd = x.numerator, x.denominator
        c = v.numerator * (den // (v.denominator * xd * xd))
        w.append(c * xd * xd)
        wx.append(c * xn * xd)
        wx2.append(c * xn * xn)
    return _MemberTable(
        [abs(x) for x, _ in pairs], [x * x for x, _ in pairs], den,
        list(accumulate(wx, initial=0)), list(accumulate(wx2, initial=0)),
        list(accumulate(reversed(w), initial=0))[::-1],
    )


def _first_max(tables, nums):
    """The first table whose ``num / den`` is largest, with that numerator;
    ties go to the first, as in ``upper_expectation``."""
    best, top = None, None
    for t, v in zip(tables, nums):
        if best is None or v * best.den > top * t.den:
            best, top = t, v
    return best, top


def moment_summary(
    seq: StepSequence, n_max: int, schedule: Optional[Sequence[int]] = None
) -> MomentSummary:
    """All displayed moment/tail quantities up to horizon n_max.

    Every quantity is computed exactly, float atoms and weights included
    as the rationals they are.  The summary is rational in exact mode
    (``seq.mode``) and on a sequence whose step sets are all rational; then
    every field is a Fraction.  Any other summary rounds each field to a
    float once, as it is stored: the correctly rounded value of the exact
    quantity.

    Each distinct step set (by identity) gets one ``_MemberTable`` per
    member, built once: Python-int numerators over one denominator.  At
    each n, each quantity is one bisection per member; members are compared
    by cross-multiplying numerators, and only the first maximiser
    (minimiser) becomes a value.
    """
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    schedule = _check_schedule(
        list(schedule) if schedule is not None else default_diagnostic_schedule(n_max))
    n_steps = len(seq.steps)

    # distinct steps in order of first appearance, with their positions
    distinct = {}
    for j, aset in enumerate(seq.steps):
        distinct.setdefault(id(aset), (aset, []))[1].append(j)
    rational = seq.mode is NumericMode.EXACT or all(a.exact() for a, _ in distinct.values())
    steps = [([_member_table(m) for m in a.members], pos) for a, pos in distinct.values()]

    def stored(q):
        return q if rational else float(q)

    def step_counts(m, extra):
        # how often each distinct step occurs among the first m; the last
        # step also stands for the ``extra`` steps past the sequence
        for ts, pos in steps:
            if pos[0] >= m:
                break
            yield ts, bisect_left(pos, m) + (extra if pos[-1] == n_steps - 1 else 0)

    per_step_sq_hi = []
    per_step_sq_lo = []
    for ts, _ in step_counts(min(n_max, n_steps), 0):
        second = [t.wx2[-1] for t in ts]
        t, v = _first_max(ts, second)
        per_step_sq_hi.append(Fraction(v, t.den))
        t, v = _first_max(ts, [-v for v in second])
        per_step_sq_lo.append(-Fraction(v, t.den))

    truncated = []
    tail_abs = []
    tail_sq = []
    cesaro = []
    for n in schedule:
        hi_sum = lo_sum = ces_sum = 0
        v_abs, v_sq = [], []
        for ts, mult in step_counts(min(n, n_steps), max(n - n_steps, 0)):
            cut = [bisect_left(t.abs_keys, n) for t in ts]
            mean = [t.wx[k] for t, k in zip(ts, cut)]
            t, v = _first_max(ts, mean)
            hi_sum += mult * Fraction(v, t.den)
            t, v = _first_max(ts, [-v for v in mean])
            lo_sum -= mult * Fraction(v, t.den)
            t, v = _first_max(ts, [t.wx2[bisect_right(t.abs_keys, n)] for t in ts])
            ces_sum += mult * Fraction(v, t.den)
            t, v = _first_max(ts, [t.tail[k] for t, k in zip(ts, cut)])
            v_abs.append(Fraction(v, t.den))
            t, v = _first_max(ts, [t.tail[bisect_left(t.sq_keys, n)] for t in ts])
            v_sq.append(Fraction(v, t.den))
        truncated.append((n, stored(lo_sum / n), stored(hi_sum / n)))
        tail_abs.append((n, stored(n * max(v_abs))))
        tail_sq.append((n, stored(n * max(v_sq))))
        cesaro.append((n, stored(ces_sum / (n * n))))

    return MomentSummary(
        mu_bar=truncated[-1][2],
        mu_lo=truncated[-1][1],
        sigma2_bar=stored(max(per_step_sq_hi)),
        sigma2_lo=stored(min(per_step_sq_lo)),
        truncated_means=tuple(truncated),
        tail_abs=tuple(tail_abs),
        tail_sq=tuple(tail_sq),
        cesaro=tuple(cesaro),
    )


LLN_GRID_POINTS = 2_000_001
_GRID_CHUNK = 1 << 16


def lln_bounds(phi: Callable, mu_lo, mu_bar):
    """(min, max) of phi over LLN_GRID_POINTS evenly spaced points of
    [mu_lo, mu_bar], its end points included.

    Every point of [mu_lo, mu_bar] lies within half a spacing of the grid,
    the spacing being (mu_bar - mu_lo) / (LLN_GRID_POINTS - 1).  So for phi
    with Lipschitz constant L the max is at most L * spacing / 2 below phi's
    max over the interval, and the min at most that above its min, up to
    rounding of the grid points.  The grid is evaluated in chunks, so it
    never sits in memory whole.
    """
    mu_lo, mu_bar = float(mu_lo), float(mu_bar)
    if mu_lo > mu_bar:
        raise UsageError("need mu_lo <= mu_bar")
    count = LLN_GRID_POINTS
    span = mu_bar - mu_lo
    lo = hi = None
    for start in range(0, count, _GRID_CHUNK):
        i = np.arange(start, min(start + _GRID_CHUNK, count), dtype=float)
        vals = evaluate_array(phi, mu_lo + span * i / (count - 1))
        # the first extreme point, as min()/max() over the points would pick
        low, high = vals[np.argmin(vals)], vals[np.argmax(vals)]
        if lo is None or low < lo:
            lo = low
        if hi is None or high > hi:
            hi = high
    return float(lo), float(hi)


def lln_experiment(
    aset: AmbiguitySet,
    phi: Callable,
    n_schedule: Sequence[int],
    mode: NumericMode = NumericMode.FLOAT64,
) -> ExperimentTable:
    """E[phi(S_n/n)] for each n, against the i.i.d. limit max phi over
    [-E[-X], E[X]].

    The prediction is the max of ``lln_bounds``; the metadata's
    ``grid_spacing`` is the spacing of its grid, so for phi with Lipschitz
    constant L the prediction is at most L * grid_spacing / 2 below the
    limit, up to rounding of the grid points.
    """
    schedule = _check_schedule(sorted(set(n_schedule)))
    mu_hi = upper_expectation(aset, lambda x: x).value
    mu_lo = lower_expectation(aset, lambda x: x).value
    _, prediction = lln_bounds(phi, mu_lo, mu_hi)
    rows = []
    for n in schedule:
        seq = StepSequence.iid(aset, n, mode)
        value = sublinear_eval_sum(seq, phi, scale=n)
        rows.append(ExperimentRow(n, value, prediction))
    spacing = (float(mu_hi) - float(mu_lo)) / (LLN_GRID_POINTS - 1)
    return ExperimentTable(rows, {"experiment": "lln", "mu": [_fmt(mu_lo), _fmt(mu_hi)],
                                  "grid_spacing": spacing})


# largest |E[X]| or |E[-X]| that clt_experiment accepts as centered on a set
# with a float weight or atom; a rational set must be centered exactly
CLT_MEAN_TOL = 1e-12


def clt_experiment(
    aset: AmbiguitySet,
    phi: Callable,
    n_schedule: Sequence[int],
    grid: GridConfig = GridConfig(),
    truncate_sqrt_n: bool = False,
    mode: NumericMode = NumericMode.FLOAT64,
) -> ExperimentTable:
    """E[phi(S_n/sqrt(n))] per n against the G-normal PDE prediction, with
    sigma^2 spanning the second-moment envelope [-E[-X^2], E[X^2]].

    Requires E[X] = E[-X] = 0 per step: exactly when every weight and atom
    is rational, within CLT_MEAN_TOL otherwise.  ``truncate_sqrt_n`` clips each
    step's atoms to [-sqrt(n), sqrt(n)] before running (the triangular
    truncation device); default off.
    """
    schedule = _check_schedule(sorted(set(n_schedule)))
    mu_hi = upper_expectation(aset, lambda x: x).value
    mu_lo = lower_expectation(aset, lambda x: x).value
    tol = 0 if aset.exact() else CLT_MEAN_TOL
    if abs(mu_hi) > tol or abs(mu_lo) > tol:
        raise NumericalFailure(
            f"CLT experiment requires centered steps; got mean envelope "
            f"[{_fmt(mu_lo)}, {_fmt(mu_hi)}]"
        )
    sig2_hi = upper_expectation(aset, lambda x: x * x).value
    sig2_lo = lower_expectation(aset, lambda x: x * x).value
    gparams = GParams(math.sqrt(float(sig2_lo)), math.sqrt(float(sig2_hi)))
    prediction = g_normal_expectation(phi, gparams, grid)
    rows = []
    for n in schedule:
        root = _sqrt(n, mode)
        run_set = aset
        if truncate_sqrt_n:
            run_set = aset.map(lambda x: max(-root, min(x, root)))
        seq = StepSequence.iid(run_set, n, mode)
        value = sublinear_eval_sum(seq, phi, scale=root)
        rows.append(ExperimentRow(n, value, prediction))
    return ExperimentTable(
        rows,
        {
            "experiment": "clt",
            "sigma": [gparams.sigma_lo, gparams.sigma_hi],
            "truncate_sqrt_n": truncate_sqrt_n,
        },
    )


def counterexample_family(K: int) -> AmbiguitySet:
    """The family {P_k : 1 <= k <= K} with P_k({0}) = 1 - 1/k^2 and
    P_k({+-k}) = 1/(2 k^2); exact rational weights.  Every member has
    E[X] = 0 and E[X^2] = 1.
    """
    if K < 1:
        raise UsageError("K must be >= 1")
    members = []
    for k in range(1, K + 1):
        w = Fraction(1, 2 * k * k)
        members.append(DiscreteDistribution([-k, 0, k], [w, 1 - 2 * w, w]))
    return AmbiguitySet(members, label=f"counterexample(K={K})")


def squared_counterexample_family(K: int) -> AmbiguitySet:
    """Laws of X^2 under the counterexample family (for the LLN failure)."""
    return counterexample_family(K).map(lambda x: x * x, label=f"squared(K={K})")


def prop62_experiment(
    K: int, n: int, clamp: float = 2.0, mode: NumericMode = NumericMode.FLOAT64
):
    """DP value of E[phi_M((Y_1+..+Y_n)/n)], Y_i = X_i^2, with the bounded
    modification phi_M(y) = max(1 - y, 1 - M).

    Returns (value, analytic lower bound); the bound is the single-strategy
    "always P_K" estimate 1 - (1 - (1-1/K^2)^n) * M, and the value is always
    <= 1.
    """
    if not 1 < clamp < math.inf:
        raise UsageError("clamp M must be > 1 and finite")
    aset = squared_counterexample_family(K)
    seq = StepSequence.iid(aset, n, mode)
    value = sublinear_eval_sum(seq, parse_phi(f"max(1-x,{1 - Fraction(clamp)})"), scale=n)
    return value, _always_pk_bound(K, n, Fraction(clamp), mode)


def prop63_experiment(
    K: int, n: int, clamp: Optional[float] = 1.0, mode: NumericMode = NumericMode.FLOAT64
):
    """DP value of E[phi(S_n/sqrt(n))] over the counterexample family with
    phi(x) = max(1 - |x|, 1 - M) for clamp M (None = no clamp).

    The bounded modification keeps phi in the bounded-Lipschitz class; with
    M = 1 the one-step value at K = 2 is exactly 3/4.  Returns
    (value, analytic lower bound) where the bound is again the
    "always P_K" single-strategy estimate.
    """
    if clamp is not None and not 0 < clamp < math.inf:
        raise UsageError("clamp M must be positive and finite")
    aset = counterexample_family(K)
    seq = StepSequence.iid(aset, n, mode)
    root = _sqrt(n, mode)
    phi = parse_phi("1-abs(x)" if clamp is None else f"max(1-abs(x),{1 - Fraction(clamp)})")
    value = sublinear_eval_sum(seq, phi, scale=root)
    per_jump_cost = Fraction(clamp) if clamp is not None else Fraction(K * n)  # crude
    return value, _always_pk_bound(K, n, per_jump_cost, mode)


def _always_pk_bound(K: int, n: int, cost: Fraction, mode: NumericMode):
    """The "always P_K" estimate 1 - (1 - (1 - 1/K^2)^n) * cost: a Fraction,
    rounded to a float outside exact mode."""
    no_jump = (1 - Fraction(1, K * K)) ** n
    bound = 1 - (1 - no_jump) * cost
    return bound if mode is NumericMode.EXACT else float(bound)


def _sqrt(n: int, mode: NumericMode):
    """sqrt(n): a float, or in exact mode an exact integer root."""
    if mode is not NumericMode.EXACT:
        return math.sqrt(n)
    r = math.isqrt(n)
    if r * r != n:
        raise UsageError("exact-rational CLT scaling needs a perfect-square n")
    return Fraction(r)
