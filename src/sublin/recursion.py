"""Backward recursion for sublinear expectations of partial sums.

The evaluator embeds all step atoms on a common rational lattice, bounds
each step's window of partial sums by its least and greatest atoms, and
then sweeps backward over each window

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
one constant, into one of two buffers that the steps alternate between,
and copies the value of the nearest swept state into just the states past
each end that the next step reads; the ends are measured once, on the
terminal, and each step's ends give the next step its own.  The terminal of
a :class:`~sublin.phi.PhiExpression` in the exact subset is evaluated only
between the runs at the window's ends that interval evaluation proves
constant.  Both modes bound what the sweep stores by
``MAX_WINDOW_STATES`` states in the final window, the widest, and its time
by one work budget, ``MAX_STATE_ATOMS`` float state-atoms, against which
each sweep keeps one tally.  Float mode is charged its whole sweep once
its terminal's flat ends are known, before the first step: the states each
step sweeps times its atoms, 1 a state past its flat ends and a fixed cost
a step.  Exact mode is charged its terminal per state before any array is
built, and each step by the size of its numerators before the step runs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (MAX_WINDOW_STATES, ModelError, NoCommonLattice, NumericalFailure,
                     StateExplosion)
from .linprog import _integer_row
from .measures import AmbiguitySet, NumericMode, is_exact
from .phi import constant_prover, evaluate_array

MAX_LATTICE_DENOMINATOR = 10**4
LATTICE_TOL = 1e-12
# the sweep's time budget in float state-atoms (swept states x atoms, plus
# 1 a state past the flat ends and _STEP_COST a step, summed over the steps); exact
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

    Each step walks its swept states in blocks of ``_BLOCK`` and runs the
    whole per-measure loop on one block before the next, so the block's
    sums, running max and slices of ``v`` stay in L2 instead of streaming
    all the swept states from L3 once per atom.  Every product lands in a
    buffer allocated once a sweep: the first measure sums straight into the
    block of ``best``, each later one into ``acc``, and the block then
    takes ``max(best, acc)`` in place.  A measure's sum is its first
    product, ``w * v[...]`` written into the sum, plus each later product,
    written into ``tmp`` and added in place: about 2 * atoms array calls a
    measure, with no zero fill and no temporary array.  The offsets and
    weights come from ``_step_weights``, once per distinct step, float
    weights as 0-d arrays, which numpy takes without converting.  Every
    element sees the same operations in the same order as in one unblocked
    pass, so values are bit-identical for any block size.  A sweep between
    flat ends is often one block: ``prop62_experiment(100, 20)`` computes
    41 of up to 190,001 window states a step, ``prop63_experiment(400, 25)``
    at most 9,611.

    A sum that starts at its first product is -0.0 when all its products
    are; float mode adds +0.0 to the swept states after each step, so every
    zero is +0.0, as a sum that started at +0.0 would give.  The sign of a
    zero shows: the lower value of a zero ``f`` is -(+0.0) = -0.0.

    The blocks cover only the states between the window's flat ends.  State
    i of step k reads v_{k+1}[i .. i + span], span = max atom - min atom.
    If v[:head] all equal v[head], every state at or below head - span
    reads only entries equal to v[head], so it runs the same operations on
    equal inputs; likewise every state at or above tail - 1 if v[tail:] all
    equal v[tail - 1].  The step sweeps the states from max(head - span, 0)
    up to min(tail, width), and those are the next step's (head, tail), so
    ``_flat_ends`` measures the ends once, on the terminal, and every step
    of either mode takes this one path, whatever its atom count.  A step
    reads v_{k+1} over [its head, its tail + span), which reaches past
    v_{k+1}'s own swept states by at most span on each side; before the step
    runs, those states, v_{k+1}[max(head - span, 0):head] and
    v_{k+1}[tail:tail + span], take copies of v_{k+1}[head] and
    v_{k+1}[tail - 1], bit for bit (after the add of +0.0 above, a state's
    value does not depend on the signs of the zeros it reads).  No other
    state of a window is written.  The steps alternate between two buffers
    of the final window's width, allocated by ``_buffers`` at a dtype's first
    use, so a step costs its swept states and its margins, not its window.
    The finiteness check and ``_reduce`` read the swept states, and the
    int64 test reads v[head:tail], which holds every distinct value of v;
    exact mode converts between int64 and Python ints only the states a
    step reads.  The clamped counterexample terminals make nearly every
    state of ``prop62_experiment`` flat.

    The terminal is evaluated on the whole window for an opaque callable or
    an expression outside the exact subset.  For a PhiExpression in it,
    ``_unproven`` bisects for the widest run at each end of the window that
    interval evaluation proves constant (``phi.constant_prover``), and f
    is evaluated on the states between those runs and on one state of each:
    on 41 of the 200,001 of ``prop62_experiment(100, 20)`` and 101 of the
    500,001 of its exact (100, 50).  ``_flat_ends`` on those states, shifted
    to the window, gives the ends that it gives on the whole window: the
    runs hold copies of the evaluated states at their ends, and a terminal
    that is one constant throughout takes the ends (width - 1, width).
    Proven states are finite, so a terminal with a non-finite value at some
    state is refused as before.

    Work: one tally per sweep against MAX_STATE_ATOMS; the first charge
    that would pass it raises StateExplosion.  Float mode evaluates its
    terminal, at most MAX_WINDOW_STATES points, takes every step's
    [head, tail) from the terminal's flat ends by the recurrence above, and
    charges the whole sweep before its first step: each swept state its
    atoms, each state past the ends 1, each step ``_STEP_COST``: the
    charges of a sweep that filled its whole window, kept so that every
    refused input is still refused.  The meter was fitted on a shared
    2-vCPU x86 host at 1.2 ns a unit, what the wide steps of
    ``prop63_experiment(400, 25)`` took per state-atom there (and a one-atom
    law 11-13 us per step).  On another 2-vCPU x86 host, with buffers
    allocated once a sweep and filled at their margins, the whole of
    ``prop63_experiment(400, 25)`` takes 0.84-0.86 ns a unit, a one-atom law
    7.6-8.0 us per step, and ``prop62_experiment`` at (100, 101) and
    (300, 100) 0.47 and 0.18 ns (1.38-1.45 and 1.99-2.08 ns when each step
    allocated and filled its window).  Every step costs at least
    ``_STEP_COST``, so ``StepSequence.iid`` refuses more than
    MAX_STATE_ATOMS // _STEP_COST = 800,000 steps before it builds them.
    Exact mode is metered as it runs.  Before its states are listed it
    charges ``_TERMINAL_COST`` per window state, proven or not, for the call
    of f and the conversion of its value to a numerator (6-10 us on the
    counterexample terminals, 16 us on the band's x*x).  Before each step it
    charges the states it sweeps times the step's atoms plus 2 (the int64
    test and the gcd reduction), times a cost per state-atom; plus 4 per
    window state, for the allocation and fill of the whole window that steps
    once made; plus ``_STEP_COST``.  The cost is 3 on an int64 step and
    10 * (w + 10) + w**2 // 32 on a Python-int step, for w 64-bit words of
    the int64 test's bound; the square stands for the gcd reduction, which
    grows faster than w.  Timed on the host the meter was fitted on, at
    1.2 ns a unit, exact ``prop63_experiment`` at (10, 400), (20, 225),
    (20, 100), (30, 81) and (40, 121), ``prop62_experiment`` at (30, 100),
    (50, 50) and (100, 50) and the Bernoulli band at n = 5,000 each took
    0.57-1.01 times its charge, when the whole terminal was evaluated and
    every step filled its window.  So the budget stops an exact sweep
    within about as long as 10**10 float state-atoms take: exact
    ``prop63_experiment(40, 121)``, which takes 41-58 s to finish, is
    refused after 10-15 s.  With the terminal evaluated between its proven
    runs and each step filled at its margins, ``prop62_experiment`` at
    (30, 100), (50, 50) and (100, 50) take 0.04-0.13 times their charge on
    another 2-vCPU x86 host, where ``prop63_experiment`` at (20, 100) and
    (30, 81), whose steps sweep their windows, still take 0.41-0.75.

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
    if exact:
        step = emb.h / scale
        point = lambda s: s * step
    else:
        h, unit = float(emb.h), float(scale)
        point = lambda s: s * h / unit
    first, stop = _unproven(f, lo_n, width_n, point, exact)
    if exact:
        terminal = [f(point(s)) for s in range(lo_n + first, lo_n + stop)]
        if any(isinstance(t, float) for t in terminal):
            raise NumericalFailure("terminal function returned a float in exact mode")
        nums, denom = _integer_row([Fraction(t) for t in terminal])
        core = np.array(nums, dtype=object)
    else:
        core = evaluate_array(f, np.arange(lo_n + first, lo_n + stop) * h / unit)
    core *= sign
    # ends[n] = (head, tail) with v_n[:head] all equal v_n[head] and v_n[tail:]
    # all equal v_n[tail - 1]; step k sweeps states ends[k] = [head, tail) and
    # reads v_{k+1}'s copies of v_{k+1}[head] and v_{k+1}[tail - 1] past them
    head, tail = _flat_ends(core)
    if head == len(core) - 1:  # one constant, as is the whole window, whose
        first = width_n - len(core)  # ends are then (width_n - 1, width_n)
    ends = [None] * len(seq) + [(head + first, tail + first)]
    work = len(seq) * _STEP_COST
    for k in range(len(seq) - 1, -1, -1):
        (head, tail), width = ends[k + 1], windows[k][1]
        head = max(head - windows[k + 1][1] + width, 0)
        ends[k] = head, max(min(tail, width), head + 1)
        # float mode: a swept state costs its atoms, a state past the ends 1
        work += (ends[k][1] - head) * (atoms[k] - 1) + width
    # float mode is charged its whole sweep here, exact mode each step as it runs
    spent = _charge(spent, 0 if exact else work)

    pool = {core.dtype: _buffers(core.dtype, width_n)}  # a dtype's buffers, at its first use
    v = pool[core.dtype][0]
    head, tail = ends[-1]
    v[head:tail] = core[head - first:tail - first]
    weight_cache = {}
    for k in range(len(seq) - 1, -1, -1):
        head, tail = ends[k + 1]
        span = windows[k + 1][1] - windows[k][1]
        # the states past v_{k+1}'s flat ends that step k reads
        v[max(head - span, 0):head] = v[head]
        v[tail:tail + span] = v[tail - 1]
        step_lcm, terms, weight_sum = _step_weights(emb.steps[k], exact, weight_cache)
        head, tail = ends[k]
        src = v[head:tail + span]  # state i of step k reads src[i - head + offset]
        if exact:
            denom *= step_lcm
            core = v[slice(*ends[k + 1])]  # every distinct value of v
            bound = max(int(core.max()), -int(core.min()), 1) * weight_sum
            fits = bound < _INT64_BOUND
            src = src.astype(np.int64 if fits else object, copy=False)
            words = bound.bit_length() // 64 + 1
            cost = 3 if fits else 10 * (words + 10) + words * words // 32
            spent = _charge(spent, (tail - head) * (atoms[k] + 2) * cost
                            + 4 * windows[k][1] + _STEP_COST,
                            ", exact steps charged by numerator size")
        if src.dtype not in pool:
            pool[src.dtype] = _buffers(src.dtype, width_n)
        one, other, acc_buf, tmp_buf = pool[src.dtype]
        best = other if one is v else one
        for b0 in range(0, tail - head, _BLOCK):
            b1 = min(b0 + _BLOCK, tail - head)
            blk, acc, tmp = best[head + b0:head + b1], acc_buf[: b1 - b0], tmp_buf[: b1 - b0]
            for mi, ((a, w), rest) in enumerate(terms):
                out = acc if mi else blk
                np.multiply(w, src[b0 + a : b1 + a], out=out)
                for a, w in rest:
                    np.multiply(w, src[b0 + a : b1 + a], out=tmp)
                    np.add(out, tmp, out=out)
                if mi:
                    np.maximum(blk, out, out=blk)
        swept = best[head:tail]
        if exact:
            denom = _reduce(swept, denom)
        else:
            # -0.0 products sum to -0.0: make every zero +0.0 (see above)
            swept += 0.0
            if not np.logical_and.reduce(np.isfinite(swept)):
                raise NumericalFailure("non-finite value during backward sweep")
        v = best
    return Fraction(int(v[0]), denom) if exact else float(v[0])


def _unproven(f, lo, width, point, exact):
    """[a, b): the states of the window ``lo`` .. ``lo + width - 1`` on which
    the terminal is evaluated; the others are proven to hold the value of
    state a or of state b - 1.  For a PhiExpression in the exact subset,
    bisection finds the widest run at each end of the window that interval
    evaluation over its box [point(first), point(last)] proves constant
    (each box inside a proven box is proven), and [a, b) keeps one state of
    each run; for any other ``f`` it is the whole window."""
    prove = constant_prover(f, exact)
    if prove is None:
        return 0, width
    proven = lambda i, j: prove(point(lo + i), point(lo + j - 1))
    # the widest proven runs [0, head) and [tail, width)
    head = bisect.bisect_left(range(1, width + 1), True, key=lambda j: not proven(0, j))
    tail = bisect.bisect_left(range(width), True, key=lambda i: proven(i, width))
    a = max(head - 1, 0)
    return a, max(min(tail + 1, width), a + 1)


def _buffers(dtype, width):
    """The sweep's arrays of one dtype, allocated once, at the dtype's first
    use: two of ``width`` states, the widest window, between which the steps
    alternate, and a block's ``acc`` and ``tmp``."""
    block = min(_BLOCK, width)
    return [np.empty(width, dtype), np.empty(width, dtype),
            np.empty(block, dtype), np.empty(block, dtype)]


def _step_weights(measures, exact, cache):
    """A step's terms in the sweep's arithmetic, built once per distinct
    step and keyed by ``id`` as in ``lattice_embed``: (lcm, per measure its
    first (offset, weight) pair and a list of the others, largest
    per-measure sum of |weight|).  An atom's offset is its distance from
    the step's least atom, where state 0 of the step reads v_{k+1}.  Float
    mode has float64 weights, lcm 1 and sum 1.  Exact mode has integer
    weights over the lcm of their denominators."""
    key = id(measures)
    if key not in cache:
        if exact:
            fracs = [[Fraction(w) for w in ws] for _, ws in measures]
            step_lcm = math.lcm(*(w.denominator for ws in fracs for w in ws))
            weights = [[int(w * step_lcm) for w in ws] for ws in fracs]
            weight_sum = max(sum(map(abs, ws)) for ws in weights)
        else:
            weights = [[np.array(float(w)) for w in ws] for _, ws in measures]
            step_lcm = weight_sum = 1
        least = min(a for ints, _ in measures for a in ints)
        terms = []
        for (ints, _), ws in zip(measures, weights):
            pairs = [(a - least, w) for a, w in zip(ints, ws)]
            terms.append((pairs[0], pairs[1:]))
        cache[key] = step_lcm, terms, weight_sum
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
    least and greatest S_n, rounded after each operation, or proves it
    constant there; exact mode calls ``f`` on each ``s * (h / scale)`` there,
    or proves it constant there.  A proof takes interval evaluation and a
    PhiExpression in the exact subset (see ``_sweep``).  The lower direction negates the
    terminal values and the result.  Raises StateExplosion before ``f`` is
    called when the final window holds more than MAX_WINDOW_STATES states,
    which bounds the sweep's arrays.  It raises StateExplosion too past
    MAX_STATE_ATOMS float state-atoms of sweep work, kept in one tally (see
    ``_sweep``): float mode charges the states each step sweeps times its
    atoms, 1 a state past the flat ends and a fixed cost a step, after ``f`` and before
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

