import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin import (
    AmbiguitySet,
    DiscreteDistribution,
    JointModel,
    ModelError,
    NumericalFailure,
    NumericMode,
    StepSequence,
    ambiguity_set_from_dict,
    bernoulli,
    dirac,
    lower_expectation,
    lower_probability,
    parse_phi,
    same_distribution,
    upper_expectation,
    upper_probability,
)
from sublin.limits import counterexample_family, moment_summary
from sublin.measures import WEIGHT_TOL, is_exact

from conftest import random_ambiguity_set

F = Fraction


class TestDiscreteDistribution:
    def test_merges_duplicate_points(self):
        d = DiscreteDistribution([1, 0, 1], [F(1, 4), F(1, 4), F(1, 2)])
        assert d.points == (0, 1)
        assert d.weights == (F(1, 4), F(3, 4))

    def test_points_sorted(self):
        d = DiscreteDistribution([2, -1, 0], [0.2, 0.3, 0.5])
        assert d.points == (-1, 0, 2)

    def test_rejects_bad_weights(self):
        with pytest.raises(ModelError):
            DiscreteDistribution([0, 1], [F(1, 2), F(1, 4)])
        with pytest.raises(ModelError):
            DiscreteDistribution([0, 1], [F(3, 2), F(-1, 2)])
        with pytest.raises(ModelError):
            DiscreteDistribution([0, 1], [0.5, 0.5 + 1e-6])

    @pytest.mark.parametrize("weights,ok", [
        ([F(1, 2), F(1, 4), F(1, 4)], True),
        ([0.5, 0.25, 0.25 + 1e-13], True),
        ([1 + 1e-13, -1e-13, 0.0], True),
        ([F(1, 2), F(1, 4), F(1, 8)], False),
        ([F(3, 2), F(-1, 2), 0], False),
        ([1.5, -0.5, 0.0], False),
        ([0.5, 0.5, 1e-6], False),
        ([math.nan, 1.0, 0.0], False),  # nan compares False with the sign and the total
    ])
    def test_one_weight_rule_for_laws_and_joint_tables(self, weights, ok):
        builders = [lambda: DiscreteDistribution([0, 1, 2], weights),
                    lambda: JointModel(["X"], [[0, 1, 2]], [weights])]
        for build in builders:
            if ok:
                build()
            else:
                with pytest.raises(ModelError):
                    build()

    def test_float_tolerance(self):
        DiscreteDistribution([0, 1, 2], [0.1, 0.2, 0.7])  # fine

    def test_zero_weight_atoms_kept(self):
        d = DiscreteDistribution([0, 1], [1, 0])
        assert d.points == (0, 1)

    def test_map_merges_images(self):
        d = DiscreteDistribution([-1, 0, 1], [F(1, 4), F(1, 2), F(1, 4)])
        sq = d.map(lambda x: x * x)
        assert sq.atoms == ((0, F(1, 2)), (1, F(1, 2)))


def _reference_law(points, weights):
    """The atoms that the `Fraction`-summing constructor built, verbatim: its
    weight check, then ``merged.get(x, 0) + w`` per atom."""
    if len(points) != len(weights) or not points:
        raise ModelError("points and weights must be nonempty and equal length")
    for w in weights:
        if not (is_exact(w) or math.isfinite(w)):
            raise ModelError(f"non-finite weight {w!r}")
        if w < 0 if is_exact(w) else w < -WEIGHT_TOL:
            raise ModelError(f"negative weight {w!r}")
    try:
        total = sum(weights)
    except OverflowError as e:
        raise ModelError("weights sum beyond the float range, not 1") from e
    if all(is_exact(w) for w in weights):
        if total != 1:
            raise ModelError(f"weights sum to {total}, not 1" if total.denominator < 10**50
                             else "weights do not sum to 1")
    elif abs(total - 1.0) > WEIGHT_TOL:
        raise ModelError(f"weights sum to {total!r}, not 1")
    merged = {}
    for x, w in zip(points, weights):
        merged[x] = merged.get(x, 0) + w
    return tuple(sorted(merged.items(), key=lambda kv: kv[0]))


_WEIGHT = st.one_of(
    st.builds(F, st.integers(0, 2), st.integers(3, 9)),
    st.sampled_from([0, 0, False, False, 1, True]),
    st.sampled_from([0.1, 0.25, 1 / 3, 0.0, -0.0, -1e-13]),
    st.sampled_from([F(-1, 7), -0.25, math.nan, math.inf, 10**400, F(1, 3**110)]),
)
# how far the last weight misses a total of 1
_MISS = st.sampled_from([0, 0, 0, F(1, 7), F(-1, 7), 1e-13, -1e-13, 1e-11, F(1, 3**111)])


@st.composite
def _laws(draw):
    """Points with repeats (1, 1.0 and F(1) are one key) and weights mixing
    int, Fraction, float and bool, whose last weight makes the total 1 up to
    a miss, in its own type or as a float or a bool."""
    n = draw(st.integers(1, 5))
    points = draw(st.lists(st.sampled_from([0, 1, 2, -1, F(1, 2), 0.5, 1.0, F(1)]),
                           min_size=n, max_size=n))
    weights = draw(st.lists(_WEIGHT, min_size=n - 1, max_size=n - 1))
    try:
        last = 1 - sum(weights) + draw(_MISS)
    except OverflowError:  # 10**400 met a float
        last = 0.5
    kind = draw(st.sampled_from(["own", "float", "bool"]))
    if kind == "float" and abs(last) < 1e300:
        last = float(last)
    elif kind == "bool" and last in (0, 1):
        last = bool(last)
    return points, weights + [last]


def _built_law(build, points, weights):
    try:
        return build(points, weights)
    except Exception as exc:  # the exception type and message are the outcome compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_laws())
def test_law_construction_matches_the_fraction_sums(law):
    got = _built_law(lambda p, w: DiscreteDistribution(p, w).atoms, *law)
    want = _built_law(_reference_law, *law)
    assert got == want
    if isinstance(want, tuple) and want and not isinstance(want[0], type):
        assert repr(got) == repr(want)  # repr tells int from Fraction, -0.0 from 0.0
        assert [tuple(map(type, a)) for a in got] == [tuple(map(type, a)) for a in want]


class TestEnvelopes:
    def test_dirac_identity(self):
        assert upper_expectation(AmbiguitySet([dirac(0)]), lambda x: x).value == 0
        assert lower_expectation(AmbiguitySet([dirac(0)]), lambda x: x).value == 0

    def test_example36_marginal(self):
        # marginals of X under the two joint measures: Bern(3/4), Bern(1/2)
        marg = AmbiguitySet([bernoulli(F(3, 4)), bernoulli(F(1, 2))])
        res = upper_expectation(marg, lambda x: x)
        assert res.value == F(3, 4)
        assert res.argmax == 0

    def test_counterexample_second_moment(self):
        fam = counterexample_family(10)
        assert upper_expectation(fam, lambda x: x * x).value == 1
        assert lower_expectation(fam, lambda x: x * x).value == 1

    def test_lower_band_mean(self):
        band = AmbiguitySet([bernoulli(0.4), bernoulli(0.6)])
        assert lower_expectation(band, lambda x: x).value == pytest.approx(0.4)

    def test_nan_raises(self):
        with pytest.raises(NumericalFailure):
            upper_expectation(AmbiguitySet([dirac(0.0)]), lambda x: math.nan)

    def test_singleton_is_classical(self):
        d = DiscreteDistribution([-1, 2], [F(1, 3), F(2, 3)])
        v = upper_expectation(AmbiguitySet([d]), lambda x: x).value
        assert v == d.expectation(lambda x: x) == 1


class TestProbabilities:
    def test_whole_line(self):
        band = AmbiguitySet([bernoulli(0.4), bernoulli(0.6)])
        assert upper_probability(band, lambda x: True).value == 1
        assert lower_probability(band, lambda x: True).value == 1

    def test_band_point_event(self):
        band = AmbiguitySet([bernoulli(0.4), bernoulli(0.6)])
        assert upper_probability(band, lambda x: x == 1).value == pytest.approx(0.6)
        assert lower_probability(band, lambda x: x == 1).value == pytest.approx(0.4)

    def test_counterexample_tail(self):
        fam = counterexample_family(10)
        for m in range(1, 11):
            assert upper_probability(fam, lambda x: abs(x) >= m).value == F(1, m * m)

    def test_probability_takes_the_weights_type(self):
        # V(A) is the upper expectation of the indicator of A
        for half in (F(1, 2), 0.5):
            coin = AmbiguitySet([DiscreteDistribution([0, 1, 2], [half, half, 0 * half])])
            never = upper_probability(coin, lambda x: x == 2).value
            assert never == 0 and type(never) is type(half)
            sure = lower_probability(coin, lambda x: True).value
            assert sure == 1 and type(sure) is type(half)

    def test_conjugacy_exact_random(self):
        rng = random.Random(7)
        for _ in range(50):
            aset = random_ambiguity_set(rng)
            cut = rng.randint(-3, 3)
            event = lambda x, cut=cut: x >= cut
            V = upper_probability(aset, event).value
            v = lower_probability(aset, lambda x: not event(x)).value
            assert V + v == 1


class TestSublinearity:
    """The four envelope properties on random test pairs, exact in rationals."""

    def _pair(self, rng):
        aset = random_ambiguity_set(rng)
        table_f = {x: F(rng.randint(-9, 9), rng.randint(1, 5)) for x in aset.union_support()}
        table_g = {x: F(rng.randint(-9, 9), rng.randint(1, 5)) for x in aset.union_support()}
        return aset, table_f.__getitem__, table_g.__getitem__

    def test_monotone_constants_subadditive_homogeneous(self):
        rng = random.Random(11)
        for _ in range(100):
            aset, f, g = self._pair(rng)
            Ef = upper_expectation(aset, f).value
            Eg = upper_expectation(aset, g).value
            # monotonicity via f vs f + |g|
            dominated = lambda x: f(x) - abs(g(x))
            assert upper_expectation(aset, dominated).value <= Ef
            # constants
            c = F(rng.randint(-5, 5), rng.randint(1, 3))
            assert upper_expectation(aset, lambda x: c).value == c
            # sub-additivity
            assert upper_expectation(aset, lambda x: f(x) + g(x)).value <= Ef + Eg
            # positive homogeneity
            lam = F(rng.randint(0, 6), rng.randint(1, 3))
            assert upper_expectation(aset, lambda x: lam * f(x)).value == lam * Ef


class TestSameDistribution:
    def test_reflexive(self):
        a = AmbiguitySet([dirac(0)])
        assert same_distribution(a, a)

    def test_hull_midpoint_added(self):
        a = AmbiguitySet([dirac(0), dirac(1)])
        b = AmbiguitySet([dirac(0), dirac(1), bernoulli(F(1, 2))])
        assert same_distribution(a, b)

    def test_strict_subset_differs(self):
        a = AmbiguitySet([bernoulli(F(1, 2))])
        b = AmbiguitySet([dirac(0), dirac(1)])
        assert not same_distribution(a, b)

    def test_rational_sets_compared_exactly_by_default(self):
        a = AmbiguitySet([bernoulli(F(1, 2))])
        b = AmbiguitySet([bernoulli(F(1, 2) + F(1, 10**12))])
        assert not same_distribution(a, b)
        assert same_distribution(a, b, tol=1e-9)
        assert not same_distribution(a, b, tol=0)

    def test_equivalence_relation_on_random_sets(self):
        rng = random.Random(3)
        sets = [random_ambiguity_set(rng) for _ in range(12)]
        # symmetry + transitivity within the sample
        rel = {}
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                rel[i, j] = same_distribution(a, b)
        for i in range(len(sets)):
            assert rel[i, i]
            for j in range(len(sets)):
                assert rel[i, j] == rel[j, i]
                for k in range(len(sets)):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]


class TestModelFile:
    def test_rational_strings(self):
        doc = {"measures": [{"atoms": [0, 1], "probs": ["9/16", "7/16"]}]}
        aset = ambiguity_set_from_dict(doc, NumericMode.EXACT)
        assert aset.members[0].weights == (F(9, 16), F(7, 16))

    def test_schema_rejects_garbage(self):
        with pytest.raises(ModelError):
            ambiguity_set_from_dict({"measures": []})
        with pytest.raises(ModelError):
            ambiguity_set_from_dict({"measures": [{"atoms": [0]}]})

    def test_mismatched_lengths(self):
        with pytest.raises(ModelError):
            ambiguity_set_from_dict({"measures": [{"atoms": [0, 1], "probs": [1]}]})


@pytest.mark.parametrize("build,message", [
    (lambda: ambiguity_set_from_dict(
        json.loads('{"measures": [{"atoms": [Infinity], "probs": [1]}]}')), "non-finite number inf"),
    (lambda: AmbiguitySet([]), "ambiguity set must be nonempty"),
    (lambda: AmbiguitySet([dirac(0), {0: 1}]), "members must be DiscreteDistribution"),
    (lambda: DiscreteDistribution(["1"], [1]), "not a number: '1'"),
    (lambda: DiscreteDistribution([0, True], [F(1, 2), F(1, 2)]), "not a number: True"),
    (lambda: upper_expectation(AmbiguitySet([DiscreteDistribution(["1"], [1])]),
                               parse_phi("x*x")), "not a number: '1'"),
], ids=["infinite-atom", "empty-set", "not-a-law", "string-atom", "bool-atom",
        "envelope-of-a-string-atom"])
def test_refusals(build, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        build()


def test_a_non_finite_atom_is_a_number():
    # the law builds; the layers that need a finite atom refuse it
    aset = AmbiguitySet([DiscreteDistribution([0.0, math.inf], [0.5, 0.5])])
    with pytest.raises(NumericalFailure, match="^a law has a non-finite atom or weight$"):
        moment_summary(StepSequence.iid(aset, 1), 1)
