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
take them past 2**62, as Python ints above that.  Every step sweeps only
the states between the flat ends of v_{k+1}, where a clamped terminal holds
one constant, and copies the value of the nearest swept state across each
end; the ends are measured once, on the terminal, and each step's fill
gives the next step its ends.  Both modes bound what the sweep stores by
``MAX_WINDOW_STATES`` states in the final window, the widest, and its time
by one work budget, ``MAX_STATE_ATOMS`` float state-atoms, against which
each sweep keeps one tally.  Float mode is charged its whole sweep once
its terminal's flat ends are known, before the first step: the states each
step sweeps times its atoms, 1 a copied state and a fixed cost a step.
Exact mode is charged its terminal per state before any array is built,
and each step by the size of its numerators before the step runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (MAX_WINDOW_STATES, ModelError, NoCommonLattice, NumericalFailure,
                     StateExplosion)
from .linprog import _integer_row
from .measures import AmbiguitySet, NumericMode, is_exact
from .phi import evaluate_array

MAX_LATTICE_DENOMINATOR = 10**4
LATTICE_TOL = 1e-12
# the sweep's time budget in float state-atoms (swept states x atoms, plus
# 1 a copied state and _STEP_COST a step, summed over the steps); exact
# steps cost more per state-atom, and the exact terminal is charged too,
# see _sweep
MAX_STATE_ATOMS = 10**10
# states per block of the backward sweep: a block's live arrays stay in L2
_BLOCK = 32768
# exact numerators stay int64 while a step keeps them below this
_INT64_BOUND = 2**62
# fitted costs in float state-atoms (see _sweep): one step's own, over and
# above its state-atoms, and one state of the exact terminal
_STEP_COST = 12_500
_TERMINAL_COST = 10_000


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
    """Refuse n steps before building them if their step charges alone pass
    MAX_STATE_ATOMS, as ``_sweep`` would."""
    _charge(0, n * _STEP_COST, f", {n} steps")


class LatticeEmbedding(NamedTuple):
    """Common spacing h plus integerized atoms: steps[k][measure] = (ints, weights)."""

    h: Fraction
    steps: tuple


def _rationalize(x):
    """An atom, a number by construction of its law, as a rational."""
    if is_exact(x):
        return Fraction(x)
    if not math.isfinite(x):
        raise ModelError(f"non-finite atom {x!r}")
    approx = Fraction(x).limit_denominator(MAX_LATTICE_DENOMINATOR)
    if abs(float(approx) - x) <= LATTICE_TOL * max(1.0, abs(x)):
        return approx
    raise NoCommonLattice(
        f"atom {x!r} is not within {LATTICE_TOL:g} of a rational with "
        f"denominator <= {MAX_LATTICE_DENOMINATOR}"
    )


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
    ints, denom_lcm = _integer_row(rationals)
    g = math.gcd(*ints)
    h = Fraction(g, denom_lcm) if g else Fraction(1)

    embedded = {
        key: tuple((tuple(int(p / h) for p in pts), weights) for pts, weights in measures)
        for key, measures in pruned.items()
    }
    return LatticeEmbedding(h, tuple(embedded[id(aset)] for aset in seq.steps))


def _charge(spent, work, note=""):
    """``spent + work`` float state-atoms; StateExplosion past MAX_STATE_ATOMS."""
    spent += work
    if spent > MAX_STATE_ATOMS:
        raise StateExplosion(
            f"the backward sweep exceeds the work cap ({MAX_STATE_ATOMS} state-atoms{note})")
    return spent


def _windows(emb: LatticeEmbedding):
    """Each step's window of partial sums as (lo, width), step 0 = (0, 1),
    and each step's atom count over its measures.  A distinct step's least
    and greatest atom and count are found once, keyed by ``id`` as in
    ``lattice_embed``.  Raises StateExplosion at the first window wider than
    MAX_WINDOW_STATES.  Windows never shrink, so the width check bounds the
    final window, and with it every array of the sweep.  ``_sweep`` meters
    the sweep's time."""
    shapes = {}
    lo, width = 0, 1
    out, atoms = [(lo, width)], []
    for measures in emb.steps:
        if id(measures) not in shapes:
            ints = [a for pts, _ in measures for a in pts]
            shapes[id(measures)] = min(ints), max(ints), len(ints)
        least, greatest, count = shapes[id(measures)]
        lo, width = lo + least, width + greatest - least
        if width > MAX_WINDOW_STATES:
            raise StateExplosion(f"the backward sweep exceeds the window bound "
                                 f"({MAX_WINDOW_STATES} states, {width} in step {len(out)})")
        out.append((lo, width))
        atoms.append(count)
    return out, atoms


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
    streaming all the swept states from L3 once per atom.  Every element
    sees the same operations in the same order as in one unblocked pass,
    so values are bit-identical for any block size.  A sweep between flat
    ends is often one block: ``prop62_experiment(100, 20)`` computes 41 of
    up to 190,001 window states a step, ``prop63_experiment(400, 25)`` at
    most 9,611.

    The blocks cover only the states between the window's flat ends.  State
    i of step k reads v_{k+1}[i .. i + span], span = max atom - min atom.
    If v[:head] all equal v[head], every state at or below head - span
    reads only entries equal to v[head], so it runs the same operations on
    equal inputs; likewise every state at or above tail - 1 if v[tail:] all
    equal v[tail - 1].  The step sweeps the states from max(head - span, 0)
    up to min(tail, width) and copies the first and the last of them across
    the ends, bit for bit (an entry -0.0 adds +0.0 to an accumulator that
    starts at +0.0).  Its fill is the next step's (head, tail), so
    ``_flat_ends`` measures the ends once, on the terminal, and every step
    of either mode takes this one path, whatever its atom count.  The
    finiteness check and ``_reduce`` read the swept states before the fill,
    and the int64 test reads v[head:tail], which holds every distinct value
    of v.  The clamped counterexample terminals make nearly every state of
    ``prop62_experiment`` flat.

    Work: one tally per sweep against MAX_STATE_ATOMS; the first charge
    that would pass it raises StateExplosion.  Float mode evaluates its
    terminal, at most MAX_WINDOW_STATES points, takes every step's
    [head, tail) from the terminal's flat ends by the recurrence above, and
    charges the whole sweep before its first step: each swept state its
    atoms, each copied state 1, each step ``_STEP_COST``.  That is about
    what float mode costs (1.2 ns per state-atom on the wide steps of
    ``prop63_experiment(400, 25)``, 11-13 us per step of a one-atom law, on
    a shared 2-vCPU x86 host), though sweeps that mostly copy, such as
    ``prop62_experiment`` at (100, 101) to (300, 100), took 1.4-3.4 ns a
    unit.  Every step costs at least ``_STEP_COST``, so ``StepSequence.iid``
    refuses more than MAX_STATE_ATOMS // _STEP_COST = 800,000 steps before
    it builds them.  Exact mode is metered as it runs.
    Before its states are listed it charges ``_TERMINAL_COST`` per terminal
    state, for the call of f and the conversion of its value to a numerator
    (6-10 us on the counterexample terminals, 16 us on the band's x*x).
    Before each step it charges the states it sweeps times the step's atoms
    plus 2 (the int64 test and the gcd reduction), times a cost per
    state-atom; plus 4 per window state for allocating and filling the
    window, which copies references whatever the numerators' size; plus
    ``_STEP_COST``.  The cost is 3 on an int64 step and
    10 * (w + 10) + w**2 // 32 on a Python-int step, for w 64-bit words of
    the int64 test's bound; the square stands for the gcd reduction, which
    grows faster than w.  Timed on that host at 1.2 ns a unit, exact
    ``prop63_experiment`` at (10, 400), (20, 225), (20, 100), (30, 81) and
    (40, 121), ``prop62_experiment`` at (30, 100), (50, 50) and (100, 50)
    and the Bernoulli band at n = 5,000 each took 0.57-1.01 times its
    charge.  So the budget stops an exact sweep within about as long as
    10**10 float state-atoms take: exact ``prop63_experiment(40, 121)``,
    which takes 41-58 s to finish, is refused after 10-15 s.

    Float error: a step sums at most max_atoms products whose weights sum
    to 1, so rounding the weights to float64 and the products and sums
    costs at most about (max_atoms + 1) * 2**-53 * max|f| per step.  The
    max over measures is non-expansive and each step averages the errors
    it inherits, so they add up without growing: to first order the value
    is within n * (max_atoms + 1) * 2**-53 * max|f| of the exact one.
    """
    exact = seq.mode is NumericMode.EXACT
    windows, atoms = _windows(emb)
    lo_n, width_n = windows[-1]
    # the sweep's one tally; the exact terminal is charged before any array is built
    spent = _charge(0, width_n * _TERMINAL_COST if exact else 0,
                    ", the exact terminal charged per state")
    states = np.arange(lo_n, lo_n + width_n)
    if exact:
        step = emb.h / scale
        terminal = [f(s * step) for s in states.tolist()]
        if any(isinstance(t, float) for t in terminal):
            raise NumericalFailure("terminal function returned a float in exact mode")
        nums, denom = _integer_row([Fraction(t) for t in terminal])
        v = np.array(nums, dtype=object)
    else:
        v = evaluate_array(f, states * float(emb.h) / float(scale))
    v *= sign
    # ends[n] = (head, tail) with v_n[:head] all equal v_n[head] and v_n[tail:]
    # all equal v_n[tail - 1]; step k sweeps states ends[k] = [head, tail) and
    # copies best[head] and best[tail - 1] across the flat ends they border
    ends = [None] * len(seq) + [_flat_ends(v)]
    work = len(seq) * _STEP_COST
    for k in range(len(seq) - 1, -1, -1):
        (head, tail), width = ends[k + 1], windows[k][1]
        head = max(head - windows[k + 1][1] + width, 0)
        ends[k] = head, max(min(tail, width), head + 1)
        # float mode: a swept state costs its atoms, a copied state 1
        work += (ends[k][1] - head) * (atoms[k] - 1) + width
    # float mode is charged its whole sweep here, exact mode each step as it runs
    spent = _charge(spent, 0 if exact else work)

    weight_cache = {}
    for k in range(len(seq) - 1, -1, -1):
        (lo_k, width), (lo_next, _) = windows[k : k + 2]
        step_lcm, weights, weight_sum = _step_weights(emb.steps[k], exact, weight_cache)
        head, tail = ends[k]
        if exact:
            denom *= step_lcm
            core = v[slice(*ends[k + 1])]  # every distinct value of v
            bound = max(int(core.max()), -int(core.min()), 1) * weight_sum
            fits = bound < _INT64_BOUND
            v = v.astype(np.int64 if fits else object, copy=False)
            words = bound.bit_length() // 64 + 1
            cost = 3 if fits else 10 * (words + 10) + words * words // 32
            spent = _charge(spent, (tail - head) * (atoms[k] + 2) * cost
                            + 4 * width + _STEP_COST, ", exact steps charged by numerator size")
        best = np.empty(width, dtype=v.dtype)
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
        if exact:
            denom = _reduce(best[head:tail], denom)
        elif not np.all(np.isfinite(best[head:tail])):
            raise NumericalFailure("non-finite value during backward sweep")
        best[:head] = best[head]
        best[tail:] = best[tail - 1]
        v = best
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


def _flat_ends(v):
    """(head, tail) with v[:head] all equal to v[head] and v[tail:] all
    equal to v[tail - 1], for the longest such runs: one comparison each."""
    rise = np.flatnonzero(v != v[0])
    fall = np.flatnonzero(v != v[-1])
    head = int(rise[0]) - 1 if len(rise) else len(v) - 1
    tail = int(fall[-1]) + 2 if len(fall) else 1
    return head, max(tail, head + 1)


def _reduce(v, denom):
    """Divide the numerators ``v``, a step's swept states, in place, and
    ``denom``, by their gcd; return the reduced denominator."""
    g = math.gcd(denom, *(v.tolist() if v.dtype == object else [int(np.gcd.reduce(v))]))
    # int64 numerators are below 2**62; if g is not, g divides them all
    # only because they are all 0, and g may not fit in an int64
    if g > 1 and (v.dtype == object or g < _INT64_BOUND):
        v //= g
    return denom // g


def sublinear_eval_sum(seq: StepSequence, f: Callable, direction: str = "upper", scale=1):
    """Nested sublinear expectation of ``f(S_n / scale)`` (upper) or
    ``-E[-f(S_n / scale)]`` (lower), with ``scale`` 1, n or sqrt(n).

    Float mode evaluates ``f`` by :func:`~sublin.phi.evaluate_array` at every
    ``s * h / scale`` of the final window, the lattice points between the
    least and greatest S_n, rounded after each operation; exact mode calls
    ``f`` on each ``s * (h / scale)`` there.  The lower direction negates the
    terminal values and the result.  Raises StateExplosion before ``f`` is
    called when the final window holds more than MAX_WINDOW_STATES states,
    which bounds the sweep's arrays.  It raises StateExplosion too past
    MAX_STATE_ATOMS float state-atoms of sweep work, kept in one tally (see
    ``_sweep``): float mode charges the states each step sweeps times its
    atoms, 1 a copied state and a fixed cost a step, after ``f`` and before
    the first step; exact mode charges each terminal state before ``f`` is
    called, and each step by the size of its numerators before it runs.
    ``f`` must be defined and finite at every point of the window,
    reachable or not.
    """
    if direction not in ("upper", "lower"):
        raise ModelError(f"direction must be 'upper' or 'lower', got {direction!r}")
    sign = -1 if direction == "lower" else 1
    # overflow to inf and inf - inf are left to the finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        return sign * _sweep(seq, lattice_embed(seq), f, scale, sign)

