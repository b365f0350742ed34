"""Backward recursion for sublinear expectations of partial sums.

The evaluator embeds all step atoms on a common rational lattice, bounds
each step's window of partial sums by its least and greatest atoms, and
then sweeps backward over every state of each window

    v_n(x)   = f(x / scale)
    v_{k-1}(x) = max over step-k laws Q of  sum_y Q(y) v_k(x + y)

so ``v_0(0)`` is the nested (robust-DP) value, i.e. the supremum over the
rectangular enlargement of the per-step ambiguity sets.  A state the walk
can reach reads only reachable states, so the values that the others carry
never reach v_0(0).  Float mode evaluates v_n in one call of
:func:`~sublin.phi.evaluate_array`.

One dense numpy sweep serves both numeric modes: float64 arrays in float
mode, arrays of integer numerators over a common denominator in
exact-rational mode.  The exact numerators are reduced by their gcd with
the denominator after every step, and held as int64 while a step cannot
take them past 2**62, as Python ints above that.  A step with enough atoms
sweeps only the states between the flat ends of v_{k+1}, where a clamped
terminal holds one constant, and copies the value of the nearest swept
state across each end.  Both modes are bounded by the window-state cap
and the state-atom work cap; exact mode is further capped to small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ModelError, NoCommonLattice, NumericalFailure, StateExplosion
from .measures import AmbiguitySet, NumericMode, is_exact
from .phi import evaluate_array

MAX_LATTICE_DENOMINATOR = 10**4
LATTICE_TOL = 1e-12
DEFAULT_STATE_CAP = 50_000_000
# window states x atoms, summed over the steps: the sweep's time bound
MAX_STATE_ATOMS = 10**10
EXACT_WORK_CAP = 10**4
# states per block of the backward sweep: a block's live arrays stay in L2
_BLOCK = 32768
# exact numerators stay int64 while a step keeps them below this
_INT64_BOUND = 2**62
# a step with this many atoms, summed over its measures, looks for flat ends
_FLAT_MIN_ATOMS = 8


@dataclass(frozen=True)
class StepSequence:
    """Per-step ambiguity sets for X_1, ..., X_n (identical entries = i.i.d.)."""

    steps: tuple
    mode: NumericMode = NumericMode.FLOAT64

    def __init__(self, steps: Sequence[AmbiguitySet], mode: NumericMode = NumericMode.FLOAT64):
        steps = tuple(steps)
        if not steps:
            raise ModelError("a step sequence needs at least one step")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def iid(cls, aset: AmbiguitySet, n: int, mode: NumericMode = NumericMode.FLOAT64):
        if n < 1:
            raise ModelError("n must be >= 1")
        _check_length(n)
        return cls((aset,) * n, mode)

    def __len__(self):
        return len(self.steps)


def _check_length(n: int):
    """Refuse n steps before building them: n steps reach at least n + 1
    lattice states, so the sweep would raise StateExplosion anyway."""
    if n >= DEFAULT_STATE_CAP:
        raise StateExplosion(f"{n} steps exceed the state cap ({DEFAULT_STATE_CAP})")


class LatticeEmbedding(NamedTuple):
    """Common spacing h plus integerized atoms: steps[k][measure] = (ints, weights)."""

    h: Fraction
    steps: tuple


def _rationalize(x):
    if is_exact(x):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ModelError(f"non-finite atom {x!r}")
        approx = Fraction(x).limit_denominator(MAX_LATTICE_DENOMINATOR)
        if abs(float(approx) - x) <= LATTICE_TOL * max(1.0, abs(x)):
            return approx
        raise NoCommonLattice(
            f"atom {x!r} is not within {LATTICE_TOL:g} of a rational with "
            f"denominator <= {MAX_LATTICE_DENOMINATOR}"
        )
    raise ModelError(f"not a number: {x!r}")


def lattice_embed(seq: StepSequence) -> LatticeEmbedding:
    """Common rational spacing h with every atom an integer multiple of h.

    Zero-weight atoms are pruned here (they cannot affect the recursion).
    A float atom snaps to the nearest rational with denominator <=
    MAX_LATTICE_DENOMINATOR if that lies within LATTICE_TOL * max(1, |x|);
    raises :class:`NoCommonLattice` for an atom that does not snap.
    """
    # each distinct set once: StepSequence.iid repeats one object n times
    pruned = {}
    for aset in seq.steps:
        if id(aset) not in pruned:
            measures = []
            for m in aset.members:
                pairs = [(x, w) for x, w in m.atoms if w != 0]
                pts = [_rationalize(x) for x, _ in pairs]
                measures.append((pts, tuple(w for _, w in pairs)))
            pruned[id(aset)] = measures

    rationals = [p for measures in pruned.values() for pts, _ in measures for p in pts]
    denom_lcm = math.lcm(*(r.denominator for r in rationals))
    ints = [r.numerator * (denom_lcm // r.denominator) for r in rationals]
    g = math.gcd(*ints)
    h = Fraction(g, denom_lcm) if g else Fraction(1)

    embedded = {
        key: tuple((tuple(int(p / h) for p in pts), weights) for pts, weights in measures)
        for key, measures in pruned.items()
    }
    return LatticeEmbedding(h, tuple(embedded[id(aset)] for aset in seq.steps))


def _windows(emb: LatticeEmbedding):
    """Each step's window of partial sums as (lo, width), from its least and
    greatest atom, step 0 = (0, 1); raises StateExplosion past
    DEFAULT_STATE_CAP window states or MAX_STATE_ATOMS."""
    lo, width = 0, 1
    out = [(lo, width)]
    total = 1
    state_atoms = 0
    for measures in emb.steps:
        state_atoms += width * sum(len(ints) for ints, _ in measures)
        if state_atoms > MAX_STATE_ATOMS:
            raise StateExplosion(
                f"the backward sweep exceeds the work cap ({MAX_STATE_ATOMS} state-atoms)"
            )
        least = min(min(ints) for ints, _ in measures)
        greatest = max(max(ints) for ints, _ in measures)
        lo, width = lo + least, width + greatest - least
        total += width
        if total > DEFAULT_STATE_CAP:
            raise StateExplosion(
                f"the backward sweep exceeds the state cap ({DEFAULT_STATE_CAP} window states)"
            )
        out.append((lo, width))
    return out


def _sweep(seq, emb, f, scale=1, sign=1):
    """Backward sweep from v_n = ``sign * f(S_n / scale)`` over the ``_windows``.

    ``seq.mode`` picks the arithmetic.  Float mode holds float64 values.
    Exact mode holds integer numerators over one common denominator.  Each
    step multiplies the denominator by the lcm of its weight denominators
    and weighs with the integers w * lcm, so the inner loop runs no gcd per
    operation; after the step, ``_reduce`` divides the numerators and the
    denominator by their gcd, which keeps them near the size of the value's
    own denominator.  Before each step the numerators are held as int64 if
    max|v| times the step's largest per-measure sum of |w * lcm| is below
    2**62, and as Python ints (dtype object) otherwise.  That product bounds
    every product and partial sum of the step, so int64 never wraps (numpy
    would wrap silently).

    Each step walks its window in blocks of ``_BLOCK`` states and runs the
    whole per-measure loop on one block before the next, so the block's
    accumulator, running max and slices of ``v`` stay in L2 instead of
    streaming the full window (up to 200,001 states for
    ``prop62_experiment(100, 20)``) from L3 once per atom.  Every element
    sees the same operations in the same order as in one unblocked pass,
    so values are bit-identical for any block size.

    The blocks cover only the states between the window's flat ends.  State
    i of step k reads v_{k+1}[i .. i + span], span = max atom - min atom.
    If the first P entries of v_{k+1} all equal v[0], every state at or
    below head = P - span - 1 reads only entries equal to v[0], so it runs
    head's operations on equal inputs; likewise every state at or above
    len(v) - Q, for the last Q entries and v[-1].  The sweep copies the
    values of those two states across the ends, bit for bit (an entry -0.0
    adds +0.0 to an accumulator that starts at +0.0).  The clamped
    counterexample terminals make nearly every state of
    ``prop62_experiment`` flat.  Only a step whose atoms, summed over its
    measures, reach ``_FLAT_MIN_ATOMS`` looks for the ends: below that, the
    search costs more than the sweep it saves.

    Float error: a step sums at most max_atoms products whose weights sum
    to 1, so rounding the weights to float64 and the products and sums
    costs at most about (max_atoms + 1) * 2**-53 * max|f| per step.  The
    max over measures is non-expansive and each step averages the errors
    it inherits, so they add up without growing: to first order the value
    is within n * (max_atoms + 1) * 2**-53 * max|f| of the exact one.
    """
    exact = seq.mode is NumericMode.EXACT
    if exact:
        work = len(seq) * max(
            len({a for ints, _ in measures for a in ints}) for measures in emb.steps
        )
        if work > EXACT_WORK_CAP:
            raise StateExplosion(
                f"exact-rational evaluation capped at n*|support| <= {EXACT_WORK_CAP}"
            )
    windows = _windows(emb)
    lo_n, width_n = windows[-1]
    states = np.arange(lo_n, lo_n + width_n)
    if exact:
        step = emb.h / scale
        terminal = [f(s * step) for s in states.tolist()]
        if any(isinstance(t, float) for t in terminal):
            raise NumericalFailure("terminal function returned a float in exact mode")
        terminal = [Fraction(t) for t in terminal]
        denom = math.lcm(*(t.denominator for t in terminal))
        v = np.array([sign * int(t * denom) for t in terminal], dtype=object)
    else:
        v = evaluate_array(f, states * float(emb.h) / float(scale))
        v *= sign

    weight_cache = {}
    for k in range(len(seq) - 1, -1, -1):
        lo_k, width = windows[k]
        lo_next = windows[k + 1][0]
        step_lcm, weights, weight_sum = _step_weights(emb.steps[k], exact, weight_cache)
        if exact:
            denom *= step_lcm
            fits = max(int(v.max()), -int(v.min()), 1) * weight_sum < _INT64_BOUND
            v = v.astype(np.int64 if fits else object, copy=False)
        best = np.empty(width, dtype=v.dtype)
        # sweep states [head, tail), then copy best[head] and best[tail - 1]
        # across the flat ends that they border
        head, tail = 0, width
        if sum(map(len, weights)) >= _FLAT_MIN_ATOMS:
            span = len(v) - width
            head = max(_flat_run(v, v[0]) - span - 1, 0)
            tail = min(len(v) - _flat_run(v[::-1], v[-1]) + 1, width)
            tail = max(tail, head + 1)
        for b0 in range(head, tail, _BLOCK):
            b1 = min(b0 + _BLOCK, tail)
            blk = best[b0:b1]
            for mi, ((ints, _), ws) in enumerate(zip(emb.steps[k], weights)):
                acc = np.zeros(b1 - b0, dtype=v.dtype)
                for a, w in zip(ints, ws):
                    start = lo_k + a - lo_next + b0
                    acc += w * v[start : start + b1 - b0]
                if mi == 0:
                    blk[:] = acc
                else:
                    np.maximum(blk, acc, out=blk)
        best[:head] = best[head]
        best[tail:] = best[tail - 1]
        if not exact and not np.all(np.isfinite(best)):
            raise NumericalFailure("non-finite value during backward sweep")
        v = best
        if exact:
            v, denom = _reduce(v, denom)
    return Fraction(int(v[0]), denom) if exact else float(v[0])


def _step_weights(measures, exact, cache):
    """A step's weights in the sweep's arithmetic, computed once per
    distinct step and keyed by ``id`` as in ``lattice_embed``: (lcm,
    weights per measure, largest per-measure sum of |weight|).  Float mode
    has float64 weights, lcm 1 and sum 1.  Exact mode has integer weights
    over the lcm of their denominators."""
    key = id(measures)
    if key not in cache:
        if exact:
            fracs = [[Fraction(w) for w in ws] for _, ws in measures]
            step_lcm = math.lcm(*(w.denominator for ws in fracs for w in ws))
            weights = [[int(w * step_lcm) for w in ws] for ws in fracs]
            weight_sum = max(sum(map(abs, ws)) for ws in weights)
        else:
            weights = [[float(w) for w in ws] for _, ws in measures]
            step_lcm = weight_sum = 1
        cache[key] = step_lcm, weights, weight_sum
    return cache[key]


def _flat_run(v, c):
    """Length of the longest prefix of ``v`` whose entries all equal ``c``.
    Probes blocks of doubling size, so a short run costs little."""
    start, size = 0, 8
    while start < len(v):
        end = min(start + size, len(v))
        off = np.flatnonzero(v[start:end] != c)
        if len(off):
            return start + int(off[0])
        start, size = end, 2 * size
    return len(v)


def _reduce(v, denom):
    """Divide the numerators ``v`` and ``denom`` by their gcd.  On Python
    ints, the gcd of the first 8 numerators decides whether a full pass,
    which stops at 1, is worth making."""
    if v.dtype == object:
        g = math.gcd(denom, *v[:8].tolist())
        if g > 1:
            nums = v.tolist()
            for i in range(8, len(nums), 64):
                g = math.gcd(g, *nums[i : i + 64])
                if g == 1:
                    break
    else:
        g = math.gcd(denom, int(np.gcd.reduce(v)))
    if g == 1:
        return v, denom
    # int64 numerators are below 2**62; if g is not, g divides them all
    # only because they are all 0, and g may not fit in an int64
    if v.dtype == object or g < _INT64_BOUND:
        v //= g
    return v, denom // g


def sublinear_eval_sum(seq: StepSequence, f: Callable, direction: str = "upper", scale=1):
    """Nested sublinear expectation of ``f(S_n / scale)`` (upper) or
    ``-E[-f(S_n / scale)]`` (lower), with ``scale`` 1, n or sqrt(n).

    Float mode evaluates ``f`` by :func:`~sublin.phi.evaluate_array` at every
    ``s * h / scale`` of the final window, the lattice points between the
    least and greatest S_n, rounded after each operation; exact mode calls
    ``f`` on each ``s * (h / scale)`` there.  The lower direction negates the
    terminal values and the result.  Raises StateExplosion past
    DEFAULT_STATE_CAP window states or MAX_STATE_ATOMS state-atoms of sweep
    work.  ``f`` must be defined and finite at every point of the window,
    reachable or not.
    """
    if direction not in ("upper", "lower"):
        raise ModelError(f"direction must be 'upper' or 'lower', got {direction!r}")
    sign = -1 if direction == "lower" else 1
    # overflow to inf and inf - inf are left to the finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        return sign * _sweep(seq, lattice_embed(seq), f, scale, sign)

