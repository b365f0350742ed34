import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublin import (
    AmbiguitySet,
    DiscreteDistribution,
    ModelError,
    NoCommonLattice,
    NumericalFailure,
    NumericMode,
    StateExplosion,
    StepSequence,
    bernoulli,
    lattice_embed,
    parse_phi,
    rademacher,
    sublinear_eval_sum,
)
from sublin import limits, recursion
from sublin.limits import (
    counterexample_family,
    prop62_experiment,
    squared_counterexample_family,
)

from conftest import random_ambiguity_set
from test_phi import _EXACT_OPS, _NUMBERS, _phi_texts

F = Fraction


def brute_force_upper(seq, f):
    """Path enumeration: maximize over per-step measure choices adapted to history.

    The recursion's optimum over history-dependent choices equals a nested
    max/expectation evaluated by explicit tree walk.
    """

    def go(k, s):
        if k == len(seq.steps):
            return f(s)
        best = None
        for d in seq.steps[k].members:
            v = sum(w * go(k + 1, s + x) for x, w in d.atoms)
            best = v if best is None else max(best, v)
        return best

    return go(0, F(0) if seq.mode is NumericMode.EXACT else 0.0)


def small_exact_sequence(rng, n):
    steps = []
    for _ in range(n):
        steps.append(random_ambiguity_set(rng, max_members=2, max_atoms=3))
    return StepSequence(tuple(steps), NumericMode.EXACT)


class TestLattice:
    def test_integer_atoms(self):
        emb = lattice_embed(StepSequence.iid(AmbiguitySet([rademacher()]), 3))
        assert emb.h == 1

    def test_mixed_halves(self):
        aset = AmbiguitySet(
            [
                DiscreteDistribution([F(-1, 2), F(1, 2)], [F(1, 2), F(1, 2)]),
                DiscreteDistribution([-1, 1], [F(1, 2), F(1, 2)]),
            ]
        )
        emb = lattice_embed(StepSequence.iid(aset, 2))
        assert emb.h == F(1, 2)

    def test_irrational_rejected(self):
        aset = AmbiguitySet([DiscreteDistribution([0.0, math.sqrt(2)], [0.5, 0.5])])
        with pytest.raises(NoCommonLattice):
            lattice_embed(StepSequence.iid(aset, 2))

    def test_zero_weight_atoms_pruned(self):
        aset = AmbiguitySet([DiscreteDistribution([0, F(1, 3), 1], [F(1, 2), 0, F(1, 2)])])
        emb = lattice_embed(StepSequence.iid(aset, 1))
        assert emb.h == 1

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_repeated_step_sets_embed_like_distinct_copies(self, exact):
        num = F if exact else lambda p, q=1: p / q
        mode = NumericMode.EXACT if exact else NumericMode.FLOAT64
        a = AmbiguitySet([
            DiscreteDistribution([num(-1, 2), num(1, 3), 1], [num(1, 4), num(1, 4), num(1, 2)]),
            DiscreteDistribution([num(-1, 2), 2], [num(2, 3), num(1, 3)]),
        ])
        b = AmbiguitySet([DiscreteDistribution([num(1, 6), num(-3, 2), 0],
                                               [num(1, 2), num(1, 2), 0])])

        def copies(steps):
            return [AmbiguitySet([DiscreteDistribution(d.points, d.weights) for d in s.members])
                    for s in steps]

        c = num(1, 3)
        f = lambda s: abs(s - c)
        for shared in [StepSequence.iid(a, 5, mode), StepSequence([a, b] * 3, mode)]:
            distinct = StepSequence(copies(shared.steps), mode)
            assert len({id(s) for s in distinct.steps}) == len(distinct)
            emb = lattice_embed(shared)
            assert repr(emb) == repr(lattice_embed(distinct))
            for measures, aset in zip(emb.steps, shared.steps):  # each step embeds its own set
                assert [([float(i * emb.h) for i in ints], ws) for ints, ws in measures] == [
                    ([float(x) for x, w in d.atoms if w], tuple(w for w in d.weights if w))
                    for d in aset.members]
            assert repr(sublinear_eval_sum(shared, f)) == repr(sublinear_eval_sum(distinct, f))


class TestBruteForceEquivalence:
    def test_exact_random_models(self):
        rng = random.Random(42)
        for trial in range(40):
            n = rng.randint(1, 4)
            seq = small_exact_sequence(rng, n)
            c = rng.randint(-2, 2)
            f = lambda s, c=c: abs(s - c)
            got = sublinear_eval_sum(seq, f)
            want = brute_force_upper(seq, f)
            assert got == want, f"trial {trial}"

    def test_float_random_models(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 4)
            exact_seq = small_exact_sequence(rng, n)
            float_steps = tuple(
                AmbiguitySet(
                    [
                        DiscreteDistribution(
                            [float(x) for x in d.points], [float(w) for w in d.weights]
                        )
                        for d in a.members
                    ]
                )
                for a in exact_seq.steps
            )
            seq = StepSequence(float_steps, NumericMode.FLOAT64)
            f = lambda s: max(1.0 - abs(s), 0.0)
            got = sublinear_eval_sum(seq, f)
            want = float(brute_force_upper(exact_seq, lambda s: max(1 - abs(s), F(0))))
            assert got == pytest.approx(want, abs=1e-12)

    def test_longer_singleton_matches_convolution(self):
        # one measure: robust recursion must equal the classical expectation
        d = DiscreteDistribution([-1, 0, 2], [F(1, 4), F(1, 4), F(1, 2)])
        seq = StepSequence.iid(AmbiguitySet([d]), 6, NumericMode.EXACT)
        f = lambda s: s * s
        # classical oracle via explicit 6-fold product
        want = F(0)
        for combo in itertools.product(d.atoms, repeat=6):
            w = math.prod(c[1] for c in combo)
            want += w * f(sum(c[0] for c in combo))
        assert sublinear_eval_sum(seq, f) == want


class TestInvariants:
    def test_lower_leq_upper(self):
        rng = random.Random(5)
        for _ in range(20):
            seq = small_exact_sequence(rng, 3)
            f = lambda s: max(1 - abs(s), F(0))
            lo = sublinear_eval_sum(seq, f, direction="lower")
            hi = sublinear_eval_sum(seq, f, direction="upper")
            assert lo <= hi

    def test_constants_pass_through(self):
        seq = StepSequence.iid(counterexample_family(5), 4, NumericMode.EXACT)
        assert sublinear_eval_sum(seq, lambda s: F(7, 3)) == F(7, 3)

    def test_linear_telescopes(self):
        # for linear f the optimum decouples: value = sum of per-step envelopes
        band = AmbiguitySet([bernoulli(F(1, 3)), bernoulli(F(2, 3))])
        seq = StepSequence.iid(band, 5, NumericMode.EXACT)
        assert sublinear_eval_sum(seq, lambda s: s) == 5 * F(2, 3)
        assert sublinear_eval_sum(seq, lambda s: s, direction="lower") == 5 * F(1, 3)

    def test_step_order_matters_only_with_ambiguity(self):
        # singleton steps: classical convolution commutes, so reordering is harmless
        rng = random.Random(9)
        steps = tuple(
            AmbiguitySet([random_ambiguity_set(rng, max_members=1, max_atoms=3).members[0]])
            for _ in range(4)
        )
        seq = StepSequence(steps, NumericMode.EXACT)
        perm = StepSequence(tuple(reversed(steps)), NumericMode.EXACT)
        f = lambda s: abs(s)
        assert sublinear_eval_sum(seq, f) == sublinear_eval_sum(perm, f)

    def test_monotone_in_function(self):
        seq = StepSequence.iid(counterexample_family(4), 3)
        small = sublinear_eval_sum(seq, lambda s: min(abs(s), F(1)))
        big = sublinear_eval_sum(seq, lambda s: min(abs(s), F(2)))
        assert small <= big

    def test_exact_matches_float(self):
        fam_e = counterexample_family(3)
        fam_f = AmbiguitySet(
            [
                DiscreteDistribution([float(x) for x in d.points], [float(w) for w in d.weights])
                for d in fam_e.members
            ]
        )
        f = lambda s: max(1 - abs(F(s)) / 4, F(0))
        ff = lambda s: max(1 - abs(s) / 4, 0.0)
        ve = sublinear_eval_sum(StepSequence.iid(fam_e, 8, NumericMode.EXACT), f)
        vf = sublinear_eval_sum(StepSequence.iid(fam_f, 8), ff)
        assert vf == pytest.approx(float(ve), abs=1e-12)


class TestEventProbability:
    """Upper and lower probabilities of {S_n in A}, as the upper and lower
    expectations of A's indicator."""

    def test_conjugate_pair(self):
        seq = StepSequence.iid(counterexample_family(4), 5)
        event = lambda s: 1 if abs(s) >= 4 else 0
        hi = sublinear_eval_sum(seq, event)
        lo = sublinear_eval_sum(seq, event, direction="lower")
        assert 0 <= lo <= hi <= 1

    def test_certain_event(self):
        seq = StepSequence.iid(AmbiguitySet([rademacher()]), 3)
        for direction in ("upper", "lower"):
            assert sublinear_eval_sum(seq, lambda s: 1, direction) == 1
            assert sublinear_eval_sum(seq, lambda s: 0, direction) == 0

    def test_unknown_direction(self):
        seq = StepSequence.iid(AmbiguitySet([rademacher()]), 2)
        with pytest.raises(ModelError, match="direction must be 'upper' or 'lower'"):
            sublinear_eval_sum(seq, lambda s: 1 if s > 0 else 0, "sideways")

    def test_single_step_matches_static_envelope(self):
        fam = counterexample_family(7)
        seq = StepSequence.iid(fam, 1, NumericMode.EXACT)
        event = lambda s: 1 if abs(s) >= 7 else 0
        assert sublinear_eval_sum(seq, event) == F(1, 49)
        assert sublinear_eval_sum(seq, event, "lower") == 0  # P_1..P_6 never reach 7


@st.composite
def rational_steps(draw):
    """1-3 steps, each 1-3 laws on 1-3 integer atoms in [-3, 3] with rational weights."""
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        members = []
        for _ in range(draw(st.integers(1, 3))):
            points = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
            raw = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
            members.append(DiscreteDistribution(points, [F(w, sum(raw)) for w in raw]))
        steps.append(AmbiguitySet(members))
    return steps


def _float_steps(steps):
    """The same step sets with float64 weights."""
    return [AmbiguitySet([DiscreteDistribution(d.points, [float(w) for w in d.weights])
                          for d in a.members]) for a in steps]


class TestSweepProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=rational_steps(), c=st.integers(-2, 2))
    def test_exact_equals_brute_force_and_float_within_bound(self, steps, c):
        exact_seq = StepSequence(steps, NumericMode.EXACT)
        f = lambda s: abs(s - c)
        exact = sublinear_eval_sum(exact_seq, f)
        assert exact == brute_force_upper(exact_seq, f)

        got = sublinear_eval_sum(StepSequence(_float_steps(steps)), lambda s: abs(s - c))
        # the sweep's documented bound: n * (max_atoms + 1) * 2**-53 * max|f|
        n = len(steps)
        max_atoms = max(len(d.atoms) for a in steps for d in a.members)
        assert abs(got - exact) <= n * (max_atoms + 1) * 2.0**-53 * (3 * n + abs(c))


_TWO_COINS = AmbiguitySet([DiscreteDistribution([0, 1], [F(1, 2), F(1, 2)]),
                           DiscreteDistribution([0, 1], [F(1, 4), F(3, 4)])])


class TestScale:
    """``scale`` divides the partial sum before the terminal.  A parsed phi
    read through ``evaluate_array`` gives the value of the opaque reference
    that divides by itself: the same float ``repr``, or an equal Fraction."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=_phi_texts(_EXACT_OPS, _NUMBERS), steps=rational_steps(),
           den=st.integers(1, 3), n=st.integers(1, 9),
           scale=st.sampled_from(["1", "n", "sqrt-n"]),
           direction=st.sampled_from(["upper", "lower"]), exact=st.booleans())
    # 5 * (1/5) != 5 / 5 in float: each catches a terminal that premultiplies h / scale
    @example(text=("x", "x"), steps=[_TWO_COINS], den=1, n=5, scale="n",
             direction="upper", exact=False)
    @example(text=("x * x", "x * x"), steps=[_TWO_COINS], den=1, n=3, scale="sqrt-n",
             direction="lower", exact=False)
    def test_matches_opaque_reference(self, text, steps, den, n, scale, direction, exact):
        mode = NumericMode.EXACT if exact else NumericMode.FLOAT64
        num = F if exact else float
        aset = AmbiguitySet([DiscreteDistribution([num(F(x, den)) for x in d.points],
                                                  [num(w) for w in d.weights])
                             for d in steps[0].members])
        if scale == "sqrt-n":
            n = math.isqrt(n) ** 2 if exact else n
            c = limits._sqrt(n, mode)
        else:
            c = n if scale == "n" else 1
        seq = StepSequence.iid(aset, n, mode)
        phi = parse_phi(text[0])
        got = sublinear_eval_sum(seq, phi, direction, c)
        want = sublinear_eval_sum(seq, lambda s: phi(s / c), direction)
        assert type(got) is type(want) and repr(got) == repr(want)


def _reachable(emb):
    """Forward reachable sets as (lo, boolean array) per step, step 0 = {0}."""
    lo, mask = 0, np.array([True])
    out = [(lo, mask)]
    for measures in emb.steps:
        atoms = sorted({a for ints, _ in measures for a in ints})
        new_lo = lo + atoms[0]
        new_mask = np.zeros(len(mask) + atoms[-1] - atoms[0], dtype=bool)
        for a in atoms:
            off = lo + a - new_lo
            new_mask[off : off + len(mask)] |= mask
        lo, mask = new_lo, new_mask
        out.append((lo, mask))
    return out


def _reference_sweep(seq, emb, f):
    """The backward sweep as one unblocked pass per measure over the whole
    window: the reference that the blocked ``recursion._sweep`` must match
    bit for bit (same operations on each element, in the same order).  It
    evaluates ``f`` at the reachable states only and zeroes the others after
    every step, so it checks that their values never reach v_0(0)."""
    exact = seq.mode is NumericMode.EXACT
    reach = _reachable(emb)
    lo_n, mask_n = reach[-1]
    states = np.flatnonzero(mask_n) + lo_n
    if exact:
        terminal = [Fraction(f(s * emb.h)) for s in states.tolist()]
        denom = math.lcm(*(t.denominator for t in terminal))
        vals = [int(t * denom) for t in terminal]
    else:
        xs = states * float(emb.h)
        vals = np.fromiter((f(x) for x in xs), dtype=float, count=len(xs))
    v = np.zeros(len(mask_n), dtype=object if exact else float)
    v[mask_n] = vals
    for k in range(len(seq) - 1, -1, -1):
        lo_k, mask_k = reach[k]
        lo_next = reach[k + 1][0]
        width = len(mask_k)
        if exact:
            fracs = [[Fraction(w) for w in ws] for _, ws in emb.steps[k]]
            step_lcm = math.lcm(*(w.denominator for ws in fracs for w in ws))
            weights = [[int(w * step_lcm) for w in ws] for ws in fracs]
            denom *= step_lcm
        else:
            weights = [[float(w) for w in ws] for _, ws in emb.steps[k]]
        best = None
        for (ints, _), ws in zip(emb.steps[k], weights):
            acc = np.zeros(width, dtype=v.dtype)
            for a, w in zip(ints, ws):
                start = lo_k + a - lo_next
                acc += w * v[start : start + width]
            best = acc if best is None else np.maximum(best, acc)
        v = np.where(mask_k, best, 0)
    return Fraction(v[0], denom) if exact else float(v[0])


# terminal values with ties, both zeros and an inexact one
_TERMINALS = [-0.0, 0.0, 0.5, 1.0, -1.0, 2.5, 1 / 3]


class TestBlockedSweep:
    @pytest.mark.parametrize("block", [1, 3, 7])
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(steps=rational_steps(),
           table=st.lists(st.sampled_from(_TERMINALS), min_size=1, max_size=9))
    def test_matches_unblocked_loop_bit_for_bit(self, block, steps, table):
        for seq, conv in [(StepSequence(steps, NumericMode.EXACT), F),
                          (StepSequence(_float_steps(steps)), float)]:
            f = lambda x: conv(table[round(float(x)) % len(table)])
            emb = lattice_embed(seq)
            want = _reference_sweep(seq, emb, f)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recursion, "_BLOCK", block)
                got = recursion._sweep(seq, emb, f)
            assert repr(got) == repr(want)

    def test_prop62_value_pinned(self):
        # a 200,001-state window: seven blocks, the last one ragged
        assert prop62_experiment(100, 20)[0].hex() == "0x1.fdf435b3ce857p-1"


@st.composite
def gappy_steps(draw):
    """1-4 steps drawn from 1-2 step sets (a repeated set is one object, as
    in ``StepSequence.iid``), each 4-5 laws on atoms {0, k**2} or {-k, 0, k}
    with k in 1-4: at least ``recursion._FLAT_MIN_ATOMS`` atoms per step, on
    a lattice with gaps."""
    sets = []
    for _ in range(draw(st.integers(1, 2))):
        members = []
        for _ in range(draw(st.integers(4, 5))):
            k = draw(st.integers(1, 4))
            points = draw(st.sampled_from([[0, k * k], [-k, 0, k]]))
            raw = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
            members.append(DiscreteDistribution(points, [F(w, sum(raw)) for w in raw]))
        sets.append(AmbiguitySet(members))
    return [draw(st.sampled_from(sets)) for _ in range(draw(st.integers(1, 4)))]


# values that compare equal, for a clamped end: both zeros mixed, or one
# value, possibly inexact
_ENDS = [(-0.0, 0.0), (0.0, -0.0, -0.0), (1 / 3,), (-1.0,), (2.5,)]


# two laws on {-3, -1, 1, 3}: 8 atoms a step, and every other state of
# every window unreachable
_ODD_STEPS = AmbiguitySet([DiscreteDistribution([-3, -1, 1, 3], [F(1, 4)] * 4),
                           DiscreteDistribution([-3, -1, 1, 3], [F(k, 10) for k in (1, 2, 3, 4)])])


class TestFlatEnds:
    """Where a step has ``_FLAT_MIN_ATOMS`` atoms, the sweep gives the states
    that read only a constant end of v_{k+1} the value of the swept state
    nearest that end; ``_reference_sweep`` sweeps every state and zeroes
    the unreachable ones."""

    @pytest.mark.parametrize("block", [1, 7])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=gappy_steps(), left=st.sampled_from(_ENDS), right=st.sampled_from(_ENDS),
           cuts=st.tuples(st.integers(-20, 70), st.integers(-20, 70)),
           middle=st.lists(st.sampled_from(_TERMINALS), min_size=1, max_size=9))
    # all flat, only the left end flat, only the right end flat
    @example(steps=[squared_counterexample_family(5)] * 3, left=(1 / 3,), right=(2.5,),
             cuts=(1000, 1000), middle=[1.0])
    @example(steps=[squared_counterexample_family(5)] * 3, left=(-0.0, 0.0), right=(2.5,),
             cuts=(20, 1000), middle=[0.5, -1.0, 1 / 3])
    @example(steps=[counterexample_family(4)] * 3, left=(-1.0,), right=(0.0, -0.0, -0.0),
             cuts=(-1000, 2), middle=[0.5, -1.0, 1 / 3])
    # holes on every other state, inside both flat ends too
    @example(steps=[_ODD_STEPS] * 3, left=(1 / 3,), right=(2.5,),
             cuts=(-1, 1), middle=[0.5, -1.0, 1.5])
    def test_matches_reference_sweep(self, block, steps, left, right, cuts, middle):
        def table(x):
            i = round(float(x))
            if i < cuts[0]:
                return left[i % len(left)]
            if i > cuts[1]:
                return right[i % len(right)]
            return middle[i % len(middle)]

        # the upper value of table and of -table: only states on the
        # maximising path reach v_0(0), so a low end checks the fill less
        for seq, conv, sign in [(StepSequence(steps, NumericMode.EXACT), F, 1),
                                (StepSequence(steps, NumericMode.EXACT), F, -1),
                                (StepSequence(_float_steps(steps)), float, 1),
                                (StepSequence(_float_steps(steps)), float, -1)]:
            f = lambda x: conv(sign * table(x))
            emb = lattice_embed(seq)
            want = _reference_sweep(seq, emb, f)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recursion, "_BLOCK", block)
                got = recursion._sweep(seq, emb, f)
            assert type(got) is type(want) and repr(got) == repr(want)

    @pytest.mark.parametrize(
        "mode", [NumericMode.FLOAT64, NumericMode.EXACT], ids=["float", "exact"]
    )
    def test_gate_is_the_step_atom_count(self, mode, monkeypatch):
        calls = []
        flat_run = recursion._flat_run
        monkeypatch.setattr(recursion, "_flat_run",
                            lambda v, c: calls.append(c) or flat_run(v, c))
        # 2 atoms a step: below the gate, no end is probed and every state is swept
        sublinear_eval_sum(StepSequence.iid(AmbiguitySet([rademacher()]), 9, mode),
                           lambda s: max(s, -2))
        assert calls == []
        # 19 atoms a step over 10 laws: the ends are probed and the clamped one is filled
        seq = StepSequence.iid(squared_counterexample_family(10), 5, mode)
        f = lambda s: max(1 - s / 5, -1)
        got = sublinear_eval_sum(seq, f)
        assert calls
        assert repr(got) == repr(_reference_sweep(seq, lattice_embed(seq), f))


@st.composite
def straddling_table(draw):
    """Exact terminal values whose numerators lie near 2**62 / 2**shift, with
    their negatives, zeros and denominators 1-3: with the step lcms of
    ``rational_steps`` (up to about 2**14), some sweeps hold their
    numerators as int64 at one step and as Python ints at another."""
    near = 2**62 >> draw(st.integers(0, 16))
    entry = st.one_of(
        st.just(F(0)),
        st.builds(lambda sign, d, q: F(sign * (near + d), q),
                  st.sampled_from([-1, 1]), st.integers(-3, 3), st.integers(1, 3)))
    return draw(st.lists(entry, min_size=1, max_size=9))


class TestReducedSweep:
    """The exact sweep divides by the gcd after every step and switches
    between int64 and Python-int numerators; ``_reference_sweep`` does
    neither, so the two must agree as Fractions."""

    @pytest.mark.parametrize("block", [1, 7])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=rational_steps(), table=straddling_table())
    def test_matches_reference_sweep(self, block, steps, table):
        seq = StepSequence(steps, NumericMode.EXACT)
        f = lambda x: table[round(x) % len(table)]
        emb = lattice_embed(seq)
        want = _reference_sweep(seq, emb, f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "_BLOCK", block)
            got = recursion._sweep(seq, emb, f)
        assert isinstance(got, Fraction) and got == want

    def test_switches_between_int64_and_python_ints(self, monkeypatch):
        # a 2**14 lcm between two 1/2-weight steps: the numerators go
        # int64 -> Python ints -> int64 as the sweep runs, since the 2**14
        # in f makes the middle step's value an integer again
        fine = AmbiguitySet([DiscreteDistribution([-1, 1], [F(1, 2**14), 1 - F(1, 2**14)])])
        coin = AmbiguitySet([rademacher()])
        seq = StepSequence([coin, fine, coin], NumericMode.EXACT)
        f = lambda s: F(2**52 + 2**14 * s * s)
        seen = []
        reduce = recursion._reduce
        monkeypatch.setattr(recursion, "_reduce",
                            lambda v, denom: seen.append(v.dtype) or reduce(v, denom))
        got = sublinear_eval_sum(seq, f)
        assert seen == [np.dtype(np.int64), np.dtype(object), np.dtype(np.int64)]
        assert got == _reference_sweep(seq, lattice_embed(seq), f) == brute_force_upper(seq, f)


class TestGuards:
    @pytest.mark.parametrize(
        "mode", [NumericMode.FLOAT64, NumericMode.EXACT], ids=["float", "exact"]
    )
    def test_state_cap(self, mode, monkeypatch):
        monkeypatch.setattr(recursion, "DEFAULT_STATE_CAP", 1000)
        aset = AmbiguitySet([DiscreteDistribution([0, 10**6], [F(1, 2), F(1, 2)])])
        seq = StepSequence.iid(aset, 50, mode)
        with pytest.raises(StateExplosion, match=r"state cap \(1000 window states\)"):
            sublinear_eval_sum(seq, lambda s: s)

    @pytest.mark.parametrize(
        "mode", [NumericMode.FLOAT64, NumericMode.EXACT], ids=["float", "exact"]
    )
    def test_work_cap(self, mode, monkeypatch):
        # windows of 1, 3, 5, ... states times 2 atoms: 2 * n**2 state-atoms
        monkeypatch.setattr(recursion, "MAX_STATE_ATOMS", 1000)
        aset = AmbiguitySet([rademacher()])
        assert sublinear_eval_sum(StepSequence.iid(aset, 22, mode), lambda s: s) == 0
        with pytest.raises(StateExplosion, match="work cap"):
            sublinear_eval_sum(StepSequence.iid(aset, 23, mode), lambda s: s)

    def test_exact_work_cap(self, monkeypatch):
        # n steps times the 2 atoms of a {-1, 1} step
        monkeypatch.setattr(recursion, "EXACT_WORK_CAP", 20)
        aset = AmbiguitySet([rademacher()])
        assert sublinear_eval_sum(StepSequence.iid(aset, 10, NumericMode.EXACT), lambda s: s) == 0
        with pytest.raises(StateExplosion, match=r"n\*\|support\| <= 20"):
            sublinear_eval_sum(StepSequence.iid(aset, 11, NumericMode.EXACT), lambda s: s)
        assert sublinear_eval_sum(StepSequence.iid(aset, 11), lambda s: s) == 0

    @pytest.mark.parametrize("c", [0, F(0), -5], ids=["int", "fraction", "minus5"])
    def test_constant_terminal_over_a_long_lcm(self, c):
        # every numerator equal: the gcd is the whole denominator, which
        # passes 2**63 here, and the value is the constant itself
        seq = StepSequence.iid(counterexample_family(30), 40, NumericMode.EXACT)
        assert sublinear_eval_sum(seq, lambda s: c) == c

    def test_cancelling_int64_numerators_over_a_long_denominator(self):
        # int64 numerators that cancel to 0 over a denominator of 2**71:
        # the gcd, 2**71, fits no int64
        seq = StepSequence.iid(AmbiguitySet([rademacher()]), 1, NumericMode.EXACT)
        assert sublinear_eval_sum(seq, lambda s: F(s, 2**70)) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_overflow_is_a_numerical_failure(self):
        # weights within WEIGHT_TOL of 1 that sum past it: the largest
        # float times their sum overflows in the sweep's add
        aset = AmbiguitySet([DiscreteDistribution([-1, 1], [0.5, 0.5000000000001])])
        with pytest.raises(NumericalFailure, match="backward sweep"):
            sublinear_eval_sum(StepSequence.iid(aset, 2), lambda s: sys.float_info.max)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_terminal_overflow_is_a_numerical_failure(self):
        seq = StepSequence.iid(AmbiguitySet([rademacher()]), 2)
        # an opaque terminal gets Python floats, whose product with 1e308 is inf
        with pytest.raises(NumericalFailure, match="non-finite"):
            sublinear_eval_sum(seq, lambda s: s * 1e308)
        # a parsed one runs its array closure: the product overflows at x = +-2e200
        with pytest.raises(NumericalFailure, match="non-finite"):
            sublinear_eval_sum(seq, parse_phi("x*x"), scale=1e-200)
        # and its checked exp refuses x = +-800
        with pytest.raises(NumericalFailure, match="exp outside"):
            sublinear_eval_sum(seq, parse_phi("exp(x)"), scale=1 / 400)

    @pytest.mark.parametrize("n", [1, 3])
    def test_terminal_is_evaluated_on_the_whole_window(self, n):
        # a {-1, 1} step reaches S_n = +-1 but never 0 at odd n; 0 still
        # lies in the final window, so phi must be defined there
        seq = StepSequence.iid(AmbiguitySet([DiscreteDistribution([-1, 1], [0.5, 0.5])]), n)
        with pytest.raises(NumericalFailure, match="division by zero"):
            sublinear_eval_sum(seq, parse_phi("1/x"))

    def test_exact_rejects_float_terminal(self):
        seq = StepSequence.iid(AmbiguitySet([rademacher()]), 2, NumericMode.EXACT)
        with pytest.raises(NumericalFailure):
            sublinear_eval_sum(seq, lambda s: float(s))
