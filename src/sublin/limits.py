"""LLN/CLT experiment drivers, moment diagnostics, and the exact
counterexample family with its limit values.

Every experiment pairs a finite-n DP computation with the predicted limit
(or an analytic bracket) and reports both; nothing here claims a proven
limit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ModelError, NumericalFailure, UsageError
from .gheat import GParams, GridConfig, g_normal_expectation
from .measures import (
    AmbiguitySet,
    DiscreteDistribution,
    NumericMode,
    lower_expectation,
    upper_expectation,
    upper_probability,
)
from .phi import evaluate_array, lipschitz_estimate
from .recursion import StepSequence, sublinear_eval_sum, sublinear_event_probability


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return f"{float(x):.17g}"


@dataclass
class ExperimentRow:
    n: int
    value: object
    prediction: object

    @property
    def gap(self):
        return self.value - self.prediction


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

    def to_csv(self, path: Optional[str] = None):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "value", "prediction", "gap"])
        for r in self.rows:
            w.writerow([r.n, _fmt(r.value), _fmt(r.prediction), _fmt(r.gap)])
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return text

    def to_json(self, path: Optional[str] = None):
        doc = {
            "metadata": self.metadata,
            "rows": [
                {
                    "n": r.n,
                    "value": _fmt(r.value),
                    "prediction": _fmt(r.prediction),
                    "gap": _fmt(r.gap),
                }
                for r in self.rows
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return text


def _step_at(seq: StepSequence, i: int) -> AmbiguitySet:
    # heterogeneous sequences shorter than the diagnostic horizon reuse
    # their last step
    return seq.steps[min(i, len(seq.steps) - 1)]


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

    @property
    def gparams(self) -> GParams:
        return GParams(math.sqrt(float(self.sigma2_lo)), math.sqrt(float(self.sigma2_bar)))


def default_diagnostic_schedule(n_max: int) -> list:
    out = sorted({*range(1, min(11, n_max + 1)), *(
        int(round(10 ** (i / 4))) for i in range(4, 200) if 10 ** (i / 4) <= n_max
    ), n_max})
    return [n for n in out if n >= 1]


def moment_summary(
    seq: StepSequence, n_max: int, schedule: Optional[Sequence[int]] = None
) -> MomentSummary:
    """All displayed moment/tail quantities up to horizon n_max."""
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    schedule = list(schedule) if schedule is not None else default_diagnostic_schedule(n_max)

    per_step_upper_means = []
    per_step_sq_hi = []
    per_step_sq_lo = []
    for i in range(min(n_max, max(len(seq.steps), 1))):
        aset = _step_at(seq, i)
        per_step_sq_hi.append(upper_expectation(aset, lambda x: x * x).value)
        per_step_sq_lo.append(lower_expectation(aset, lambda x: x * x).value)

    truncated = []
    tail_abs = []
    tail_sq = []
    cesaro = []
    n_steps = len(seq.steps)
    for n in schedule:
        hi_sum = 0
        lo_sum = 0
        ces_sum = 0
        v_abs = 0
        v_sq = 0
        # steps repeat beyond the sequence length; weight each distinct
        # step by its multiplicity instead of looping to n
        for j in range(min(n, n_steps)):
            mult = 1 if j < n_steps - 1 or n <= n_steps else n - (n_steps - 1)
            aset = seq.steps[j]
            hi_sum += mult * upper_expectation(
                aset, lambda x: x if abs(x) < n else 0 * x
            ).value
            lo_sum += mult * lower_expectation(
                aset, lambda x: x if abs(x) < n else 0 * x
            ).value
            ces_sum += mult * upper_expectation(
                aset, lambda x: x * x if abs(x) <= n else 0 * x
            ).value
            v_abs = max(v_abs, upper_probability(aset, lambda x: abs(x) >= n).value)
            v_sq = max(v_sq, upper_probability(aset, lambda x: x * x >= n).value)
        truncated.append((n, lo_sum / n, hi_sum / n))
        tail_abs.append((n, n * v_abs))
        tail_sq.append((n, n * v_sq))
        cesaro.append((n, ces_sum / (n * n)))

    mu_lo_n, mu_bar_n = truncated[-1][1], truncated[-1][2]
    return MomentSummary(
        mu_bar=mu_bar_n,
        mu_lo=mu_lo_n,
        sigma2_bar=max(per_step_sq_hi),
        sigma2_lo=min(per_step_sq_lo),
        truncated_means=tuple(truncated),
        tail_abs=tuple(tail_abs),
        tail_sq=tuple(tail_sq),
        cesaro=tuple(cesaro),
    )


LLN_GRID_CAP = 2_000_001
_GRID_CHUNK = 1 << 16


def _lln_grid_count(mu_lo: float, mu_bar: float, lipschitz: float, tol: float) -> int:
    spacing = tol / max(lipschitz, 1e-12)
    count = max(2, int(math.ceil((mu_bar - mu_lo) / spacing)) + 1)
    return min(count, LLN_GRID_CAP)


def lln_bounds(phi: Callable, mu_lo, mu_bar, lipschitz: float, tol: float = 1e-6):
    """(min, max) of phi over [mu_lo, mu_bar] by grid search.

    Grid spacing <= tol / lipschitz guarantees error <= tol, but the grid is
    capped at LLN_GRID_CAP points; at the cap the error bound is
    lipschitz * (mu_bar - mu_lo) / (LLN_GRID_CAP - 1), which can exceed tol
    (``lln_experiment`` reports the bound achieved).  The grid is evaluated
    in chunks, so it never sits in memory whole.
    """
    mu_lo, mu_bar = float(mu_lo), float(mu_bar)
    if mu_lo > mu_bar:
        raise UsageError("need mu_lo <= mu_bar")
    if mu_lo == mu_bar:
        v = phi(mu_lo)
        return v, v
    count = _lln_grid_count(mu_lo, mu_bar, lipschitz, tol)
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
    lipschitz: Optional[float] = None,
) -> ExperimentTable:
    """E[phi(S_n/n)] for each n, against the i.i.d. limit max phi over
    [-E[-X], E[X]].

    The prediction is ``lln_bounds`` at tol=1e-9, with ``lipschitz``
    estimated on [-E[-X], E[X]] when not given; the metadata's
    ``prediction_error`` is the error bound its grid achieved.
    """
    tol = 1e-9
    mu_hi = upper_expectation(aset, lambda x: x).value
    mu_lo = lower_expectation(aset, lambda x: x).value
    if lipschitz is None:
        lipschitz = lipschitz_estimate(phi, mu_lo, mu_hi)
    _, prediction = lln_bounds(phi, mu_lo, mu_hi, lipschitz, tol)
    lo, hi = float(mu_lo), float(mu_hi)
    error = lipschitz * (hi - lo) / (_lln_grid_count(lo, hi, lipschitz, tol) - 1)
    rows = []
    for n in sorted(set(n_schedule)):
        seq = StepSequence.iid(aset, n, mode)
        value = sublinear_eval_sum(seq, lambda s, n=n: phi(s / n))
        rows.append(ExperimentRow(n, value, prediction))
    return ExperimentTable(rows, {"experiment": "lln", "mu": [_fmt(mu_lo), _fmt(mu_hi)],
                                  "prediction_error": error})


def weak_lln_check(seq: StepSequence, eps: float, n: int) -> float:
    """Lower probability of {mu_lo - eps <= S_n/n <= mu_bar + eps}.

    Computed under the enlargement, which lower-bounds the lower
    probability under the original measure set.
    """
    summary = moment_summary(seq, n)
    lo = float(summary.mu_lo) - eps
    hi = float(summary.mu_bar) + eps
    run = StepSequence.iid(seq.steps[0], n, seq.mode) if len(seq.steps) == 1 else (
        StepSequence(tuple(_step_at(seq, i) for i in range(n)), seq.mode)
    )
    return sublinear_event_probability(run, lambda s: lo <= s / n <= hi, "lower")


def clt_experiment(
    aset: AmbiguitySet,
    phi: Callable,
    n_schedule: Sequence[int],
    gparams: Optional[GParams] = None,
    grid: GridConfig = GridConfig(),
    truncate_sqrt_n: bool = False,
    mode: NumericMode = NumericMode.FLOAT64,
    mean_tol: float = 1e-12,
) -> ExperimentTable:
    """E[phi(S_n/sqrt(n))] per n against the G-normal PDE prediction.

    Requires E[X] = E[-X] = 0 per step.  ``truncate_sqrt_n`` clips each
    step's atoms to [-sqrt(n), sqrt(n)] before running (the triangular
    truncation device); default off.
    """
    mu_hi = upper_expectation(aset, lambda x: x).value
    mu_lo = lower_expectation(aset, lambda x: x).value
    if abs(float(mu_hi)) > mean_tol or abs(float(mu_lo)) > mean_tol:
        raise NumericalFailure(
            f"CLT experiment requires centered steps; got mean envelope "
            f"[{_fmt(mu_lo)}, {_fmt(mu_hi)}]"
        )
    if gparams is None:
        sig2_hi = upper_expectation(aset, lambda x: x * x).value
        sig2_lo = lower_expectation(aset, lambda x: x * x).value
        gparams = GParams(math.sqrt(float(sig2_lo)), math.sqrt(float(sig2_hi)))
    prediction = g_normal_expectation(phi, gparams, grid)
    rows = []
    for n in sorted(set(n_schedule)):
        root = _exact_sqrt(n) if mode is NumericMode.EXACT else math.sqrt(n)
        run_set = aset
        if truncate_sqrt_n:
            run_set = aset.map(lambda x: max(-root, min(x, root)))
        seq = StepSequence.iid(run_set, n, mode)
        value = sublinear_eval_sum(seq, lambda s, root=root: phi(s / root))
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
    P_k({+-k}) = 1/(2 k^2); exact rational weights.

    Construction checks: E[X] = E[-X] = 0 and E[X^2] = -E[-X^2] = 1.
    """
    if K < 1:
        raise UsageError("K must be >= 1")
    members = []
    for k in range(1, K + 1):
        w = Fraction(1, 2 * k * k)
        members.append(DiscreteDistribution([-k, 0, k], [w, 1 - 2 * w, w]))
    aset = AmbiguitySet(members, label=f"counterexample(K={K})")
    assert upper_expectation(aset, lambda x: x).value == 0
    assert lower_expectation(aset, lambda x: x).value == 0
    assert upper_expectation(aset, lambda x: x * x).value == 1
    assert lower_expectation(aset, lambda x: x * x).value == 1
    return aset


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
    if clamp <= 1:
        raise UsageError("clamp M must be > 1")
    aset = squared_counterexample_family(K)
    seq = StepSequence.iid(aset, n, mode)
    exact = mode is NumericMode.EXACT

    def terminal(s):
        y = Fraction(s, n) if exact else s / n
        floor = Fraction(1) - Fraction(clamp) if exact else 1.0 - clamp
        return max(1 - y, floor)

    value = sublinear_eval_sum(seq, terminal)
    no_jump = (1 - Fraction(1, K * K)) ** n
    bound = 1 - (1 - no_jump) * Fraction(clamp)
    return value, (bound if exact else float(bound))


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
    if clamp is not None and clamp <= 0:
        raise UsageError("clamp M must be positive")
    aset = counterexample_family(K)
    seq = StepSequence.iid(aset, n, mode)
    exact = mode is NumericMode.EXACT
    if exact:
        root = _exact_sqrt(n)

    def terminal(s):
        if exact:
            base = 1 - abs(Fraction(s, 1)) / root
            return base if clamp is None else max(base, 1 - Fraction(clamp))
        base = 1.0 - abs(s) / math.sqrt(n)
        return base if clamp is None else max(base, 1.0 - clamp)

    value = sublinear_eval_sum(seq, terminal)
    no_jump = (1 - Fraction(1, K * K)) ** n
    per_jump_cost = Fraction(clamp) if clamp is not None else Fraction(K * n)  # crude
    bound = 1 - (1 - no_jump) * per_jump_cost
    return value, (bound if exact else float(bound))


def _exact_sqrt(n: int) -> Fraction:
    r = math.isqrt(n)
    if r * r != n:
        raise UsageError("exact-rational CLT scaling needs a perfect-square n")
    return Fraction(r)
