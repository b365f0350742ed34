import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin import (
    ModelError,
    AmbiguitySet,
    DiscreteDistribution,
    GridConfig,
    ModelTooLarge,
    NumericalFailure,
    NumericMode,
    StepSequence,
    UsageError,
    bernoulli,
    clt_experiment,
    counterexample_family,
    gaussian_quadrature,
    lln_bounds,
    lln_experiment,
    load_ambiguity_set,
    lower_expectation,
    moment_summary,
    parse_phi,
    prop62_experiment,
    prop63_experiment,
    squared_counterexample_family,
    sublinear_eval_sum,
    upper_expectation,
    upper_probability,
)
from sublin.limits import ExperimentRow, ExperimentTable, _fmt, default_diagnostic_schedule
from sublin.measures import is_exact

F = Fraction
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestCounterexampleFamily:
    @pytest.mark.parametrize("K", [2, 5, 17])
    def test_standardized_moments(self, K):
        fam = counterexample_family(K)
        assert len(fam.members) == K
        assert upper_expectation(fam, lambda x: x).value == 0
        assert lower_expectation(fam, lambda x: x).value == 0
        assert upper_expectation(fam, lambda x: x * x).value == 1
        assert lower_expectation(fam, lambda x: x * x).value == 1

    def test_member_k_shape(self):
        fam = counterexample_family(4)
        # member for k: mass 1 - 1/k^2 at 0, 1/(2k^2) at each of +-k
        for m in fam.members:
            atoms = dict(m.atoms)
            k = max(abs(x) for x in atoms)
            assert atoms[0] == 1 - F(1, k * k)
            assert atoms[k] == atoms[-k] == F(1, 2 * k * k)

    def test_tail_probability_shrinks_pointwise(self):
        fam = counterexample_family(10)
        vals = [
            upper_expectation(fam, lambda x, m=m: 1 if abs(x) >= m else 0).value
            for m in range(1, 11)
        ]
        assert vals == [F(1, m * m) for m in range(1, 11)]

    def test_squared_family(self):
        sq = squared_counterexample_family(5)
        # atoms are 0 and k^2 with the same weights
        for m in sq.members:
            atoms = dict(m.atoms)
            assert set(atoms) <= {0} | {k * k for k in range(1, 6)}
        assert upper_expectation(sq, lambda y: y).value == 1

    def test_small_K_rejected(self):
        with pytest.raises(UsageError):
            counterexample_family(0)
        # K = 1 is allowed: the single fair +-1 coin
        fam = counterexample_family(1)
        assert len(fam.members) == 1


class TestMomentSummary:
    def test_iid_band(self, bernoulli_band_exact):
        seq = StepSequence.iid(bernoulli_band_exact, 4, NumericMode.EXACT)
        s = moment_summary(seq, 4)
        assert s.mu_bar == F(3, 5)
        assert s.mu_lo == F(2, 5)
        assert s.sigma2_bar >= s.sigma2_lo > 0

    def test_counterexample_tails(self):
        # K at least as large as the horizon so the tails never cut off
        K = 100
        seq = StepSequence.iid(counterexample_family(K), 100, NumericMode.EXACT)
        s = moment_summary(seq, 100)
        for n, v in s.tail_abs:
            assert v == F(1, n)  # n * sup_k P_k(|X| >= n) = n / n^2
        tail_sq = dict(s.tail_sq)
        for n in (16, 100):
            if n in tail_sq:  # perfect squares: n * (1 / n) = 1 exactly
                assert tail_sq[n] == 1
        # first-moment truncation decays, second-moment truncation does not
        assert s.h1_decaying
        assert not s.h2_decaying

    def test_schedule_default(self):
        sched = default_diagnostic_schedule(100)
        assert sched[0] >= 1 and sched[-1] == 100
        assert all(a < b for a, b in zip(sched, sched[1:]))

    @pytest.mark.parametrize("schedule", [[], [0], [-2, 3], [4, 2], [3, 3]],
                             ids=["empty", "zero", "negative", "decreasing", "repeated"])
    def test_bad_schedule_refused(self, schedule):
        seq = StepSequence.iid(counterexample_family(3), 1)
        with pytest.raises(UsageError, match="strictly increasing positive"):
            moment_summary(seq, 5, schedule)

    def test_int_weights_stay_exact(self):
        # a Dirac law with int weights sums to ints; exact mode still divides exactly
        aset = AmbiguitySet([DiscreteDistribution([0, 3], [0, 1]),
                             DiscreteDistribution([1, 2], [F(1, 2), F(1, 2)])])
        s = moment_summary(StepSequence.iid(aset, 1, NumericMode.EXACT), 5)
        assert dict(s.cesaro)[4] == F(9, 4) and type(s.mu_bar) is F
        assert all(type(v) is F for _, v in s.cesaro)
        assert all(type(v) is F for _, lo, hi in s.truncated_means for v in (lo, hi))
        # float mode keeps float division
        assert dict(moment_summary(StepSequence.iid(aset, 1), 5).cesaro)[4] == 2.25

    def test_field_types_follow_the_numbers(self):
        # a rational summary is all Fractions, in either mode, and takes a
        # float law exactly in exact mode; any other summary is all floats
        ints, floats = AmbiguitySet([DiscreteDistribution([0, 3], [0, 1])]), AmbiguitySet(
            [DiscreteDistribution([-0.1, 0.1], [0.5, 0.5])])
        fields = lambda s: [v for f in TestMomentSummaryAgainstReference.FIELDS
                            for v in _flat(getattr(s, f))]
        for seq in (StepSequence.iid(ints, 1), StepSequence.iid(floats, 1, NumericMode.EXACT)):
            assert all(type(v) is F for v in fields(moment_summary(seq, 5)))
        assert moment_summary(StepSequence.iid(floats, 1, NumericMode.EXACT), 5).sigma2_bar \
            == F(0.1) ** 2
        for seq in (StepSequence.iid(floats, 1), StepSequence([ints, floats])):
            assert all(type(v) is float for v in fields(moment_summary(seq, 5)))

    @pytest.mark.parametrize("mode", list(NumericMode))
    def test_non_finite_atom(self, mode):
        aset = AmbiguitySet([DiscreteDistribution([0, math.inf], [0.5, 0.5])])
        with pytest.raises(NumericalFailure):
            moment_summary(StepSequence.iid(aset, 1, mode), 3)


def _reference_summary(seq, n_max, schedule):
    """moment_summary as one envelope call per member set, step and n: the
    per-atom definition of every field (exact mode divides with Fraction)."""
    exact = seq.mode is NumericMode.EXACT

    def average(total, n):
        return F(total, n) if exact and is_exact(total) else total / n

    steps = seq.steps
    sq_hi = [upper_expectation(steps[i], lambda x: x * x).value
             for i in range(min(n_max, len(steps)))]
    sq_lo = [lower_expectation(steps[i], lambda x: x * x).value
             for i in range(min(n_max, len(steps)))]
    truncated, tail_abs, tail_sq, cesaro = [], [], [], []
    for n in schedule:
        hi_sum = lo_sum = ces_sum = v_abs = v_sq = 0
        for j in range(min(n, len(steps))):
            mult = 1 if j < len(steps) - 1 or n <= len(steps) else n - (len(steps) - 1)
            a = steps[j]
            hi_sum += mult * upper_expectation(a, lambda x: x if abs(x) < n else 0 * x).value
            lo_sum += mult * lower_expectation(a, lambda x: x if abs(x) < n else 0 * x).value
            ces_sum += mult * upper_expectation(
                a, lambda x: x * x if abs(x) <= n else 0 * x).value
            v_abs = max(v_abs, upper_probability(a, lambda x: abs(x) >= n).value)
            v_sq = max(v_sq, upper_probability(a, lambda x: x * x >= n).value)
        truncated.append((n, average(lo_sum, n), average(hi_sum, n)))
        tail_abs.append((n, n * v_abs))
        tail_sq.append((n, n * v_sq))
        cesaro.append((n, average(ces_sum, n * n)))
    return {"mu_bar": truncated[-1][2], "mu_lo": truncated[-1][1],
            "sigma2_bar": max(sq_hi), "sigma2_lo": min(sq_lo),
            "truncated_means": tuple(truncated), "tail_abs": tuple(tail_abs),
            "tail_sq": tuple(tail_sq), "cesaro": tuple(cesaro)}


def _flat(value):
    return [w for v in value for w in v[1:]] if isinstance(value, tuple) else [value]


_ATOMS = st.integers(-6, 6) | st.builds(F, st.integers(-12, 12), st.integers(1, 3))


@st.composite
def _law(draw):
    """A law on 1-4 atoms (int or Fraction, a pair +-k sometimes), with
    zero weights and, where a weight is 0 or 1, sometimes an int weight."""
    points = draw(st.lists(_ATOMS, min_size=1, max_size=4))
    if draw(st.booleans()):
        k = draw(_ATOMS)
        points += [k, -k]
    raw = draw(st.lists(st.integers(0, 4), min_size=len(points), max_size=len(points)))
    if not any(raw):
        raw[0] = 1
    weights = [F(r, sum(raw)) for r in raw]
    weights = [int(w) if w.denominator == 1 and draw(st.booleans()) else w for w in weights]
    return DiscreteDistribution(points, weights)


@st.composite
def _moment_case(draw):
    """(steps, n_max, schedule): 1-6 steps drawn from 1-3 distinct sets of
    1-4 laws, a horizon up to 40 and a schedule below and above max |x|."""
    sets = [AmbiguitySet(draw(st.lists(_law(), min_size=1, max_size=4)))
            for _ in range(draw(st.integers(1, 3)))]
    steps = [sets[i] for i in draw(st.lists(st.integers(0, len(sets) - 1),
                                            min_size=1, max_size=6))]
    n_max = draw(st.integers(1, 40))
    schedule = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=8)))
    return steps, n_max, schedule


class TestMomentSummaryAgainstReference:
    FIELDS = ("mu_bar", "mu_lo", "sigma2_bar", "sigma2_lo", "truncated_means",
              "tail_abs", "tail_sq", "cesaro")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_moment_case())
    def test_exact_equal_in_value_and_type(self, case):
        steps, n_max, schedule = case
        seq = StepSequence(steps, NumericMode.EXACT)
        got = moment_summary(seq, n_max, schedule)
        want = _reference_summary(seq, n_max, schedule)
        for name in self.FIELDS:
            value = getattr(got, name)
            assert value == want[name], name
            assert all(type(v) is F for v in _flat(value)), name

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_moment_case())
    def test_float_within_1e_12(self, case):
        # prefix sums add in another order than the per-atom sums
        steps, n_max, schedule = case
        floats = {id(a): AmbiguitySet([DiscreteDistribution(
            [float(x) for x in m.points], [float(w) for w in m.weights]) for m in a.members])
            for a in steps}
        seq = StepSequence([floats[id(a)] for a in steps])
        got = moment_summary(seq, n_max, schedule)
        want = _reference_summary(seq, n_max, schedule)
        for name in self.FIELDS:
            for g, w in zip(_flat(getattr(got, name)), _flat(want[name]), strict=True):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12), name

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_moment_case())
    def test_float_fields_are_the_exact_ones_rounded(self, case):
        steps, n_max, schedule = case
        floats = {id(a): AmbiguitySet([DiscreteDistribution(
            [float(x) for x in m.points], [float(w) for w in m.weights]) for m in a.members])
            for a in steps}
        laws = [floats[id(a)] for a in steps]
        got = moment_summary(StepSequence(laws), n_max, schedule)
        want = moment_summary(StepSequence(laws, NumericMode.EXACT), n_max, schedule)
        for name in self.FIELDS:
            for g, w in zip(_flat(getattr(got, name)), _flat(getattr(want, name)), strict=True):
                assert type(g) is float and g == float(w), name

    def test_float_law_rounded_once(self):
        # summing float products gave mu_lo = -0.024999999999999967 (the
        # second law's mean), 4 ulps from the exact value of its numbers
        aset = AmbiguitySet([DiscreteDistribution([0.1, -0.3, 2.5], [0.6, 0.3, 0.1]),
                             DiscreteDistribution([0.2, -0.7], [0.75, 0.25])])
        summary = moment_summary(StepSequence.iid(aset, 1), 20)
        exact = F(0.2) * F(0.75) + F(-0.7) * F(0.25)
        assert summary.mu_lo == float(exact) == -0.024999999999999981


class TestLLN:
    def test_band_linear_phi_exact(self, bernoulli_band_exact):
        table = lln_experiment(
            bernoulli_band_exact, lambda x: x, [4, 16, 64], NumericMode.EXACT
        )
        for row in table.rows:
            assert row.value == F(3, 5)
            assert row.prediction == pytest.approx(0.6, abs=1e-9)
            assert abs(row.gap) < 1e-9

    def test_band_hat_converges(self, bernoulli_band):
        phi = lambda x: max(1.0 - 10.0 * abs(x - 0.6), 0.0)
        table = lln_experiment(bernoulli_band, phi, [16, 64, 256])
        gaps = [abs(row.gap) for row in table.rows]
        assert gaps[0] > gaps[-1]
        assert table.rows[-1].prediction == pytest.approx(1.0)

    def test_rows_monotone_schedule_required(self):
        with pytest.raises(ModelError):
            ExperimentTable([ExperimentRow(8, 0.0, 0.0), ExperimentRow(4, 0.0, 0.0)], {})

    def test_lln_bounds_interval(self):
        lo, hi = lln_bounds(lambda x: x * x, -1, 2)
        assert lo == pytest.approx(0.0, abs=1e-5)
        assert hi == pytest.approx(4.0, abs=1e-5)

    def test_lln_bounds_point(self):
        lo, hi = lln_bounds(lambda x: 3 - x, 1, 1)
        assert lo == hi == 2

    def test_prediction_finds_a_narrow_spike(self):
        # a spike of half-width 1e-6 at 0.50003, zero elsewhere on the mean
        # interval [2/5, 3/5]; a grid of spacing 1e-7 has points on it
        band = load_ambiguity_set(CONFIGS / "bernoulli-band.json")
        phi = parse_phi("max(1-abs(x-0.50003)*1000000,0)")
        table = lln_experiment(band, phi, [16])
        assert table.rows[0].prediction == pytest.approx(1.0)
        assert table.metadata["grid_spacing"] == (0.6 - 0.4) / 2_000_000

    def test_weak_lln_band(self, bernoulli_band):
        # the lower probability of S_n/n within eps of the mean interval
        # [2/5, 3/5] tends to 1
        n, eps = 200, 0.1
        seq = StepSequence.iid(bernoulli_band, n)
        inside = lambda s: 1 if 0.4 - eps <= s / n <= 0.6 + eps else 0
        lower = sublinear_eval_sum(seq, inside, "lower")
        assert 0.99 < lower <= sublinear_eval_sum(seq, inside) <= 1

    def test_weak_lln_fails_for_counterexample(self):
        # heavy ambiguity: mass escapes any fixed neighborhood of zero mean
        K = n = 30
        seq = StepSequence.iid(counterexample_family(K), n, NumericMode.EXACT)
        inside = lambda s: 1 if abs(s / n) <= F(1, 2) else 0
        lower = sublinear_eval_sum(seq, inside, "lower")
        assert lower < 1  # strictly below certainty at finite n
        assert lower <= sublinear_eval_sum(seq, inside) <= 1

    def test_exact_ints_print_exactly(self):
        # 10**17 + 1 is no float: an exact int prints in full, as a Fraction does
        big = 10**17 + 1
        aset = AmbiguitySet([DiscreteDistribution([big, 0], [1, 0])])
        table = lln_experiment(aset, parse_phi("x"), [1], NumericMode.EXACT)
        assert table.metadata["mu"] == [str(big), str(big)]
        assert table.to_dict()["rows"][0]["value"] == str(big)
        assert _fmt(-big) == str(-big) and _fmt(F(big, 3)) == f"{big}/3"
        assert _fmt(True) == "1" and _fmt(0.1) == "0.10000000000000001"
        with pytest.raises(ModelTooLarge):
            _fmt(10**5000)

    def test_table_serialization(self, bernoulli_band):
        table = lln_experiment(bernoulli_band, lambda x: x, [4, 8])
        doc = table.to_dict()
        assert [r["n"] for r in doc["rows"]] == [4, 8]
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0].startswith("n,")
        assert table.to_csv() == csv_text  # deterministic


class TestCLT:
    def test_band_against_pde(self, two_variance_rademacher):
        phi = lambda x: max(1.0 - abs(x), 0.0)
        table = clt_experiment(
            two_variance_rademacher,
            phi,
            [64, 256],
            grid=__import__("sublin").GridConfig(dx=0.02, cfl=0.4),
        )
        assert abs(table.rows[-1].gap) < abs(table.rows[0].gap) + 1e-6
        assert abs(table.rows[-1].gap) < 0.05

    def test_requires_mean_zero(self, bernoulli_band):
        with pytest.raises(NumericalFailure):
            clt_experiment(bernoulli_band, lambda x: x, [4])

    def test_classical_special_case(self):
        # single fair coin: CLT limit is the standard normal value
        aset = AmbiguitySet([bernoulli(0.5).map(lambda x: 2.0 * x - 1.0)])
        phi = lambda x: max(1.0 - abs(x), 0.0)
        table = clt_experiment(aset, phi, [400])
        want = gaussian_quadrature(phi, 1.0)
        assert table.rows[-1].prediction == pytest.approx(want, abs=2e-3)
        assert table.rows[-1].value == pytest.approx(want, abs=0.05)

    def test_truncation_inside_the_support_changes_nothing(self):
        # |x| <= 1 <= sqrt(n): the clip keeps every atom, so every row keeps its bits
        aset = load_ambiguity_set(str(CONFIGS / "rademacher.json"))
        phi, grid, ns = parse_phi("max(1-abs(x),0)"), GridConfig(dx=0.05), [1, 4, 16, 25]
        plain = clt_experiment(aset, phi, ns, grid=grid)
        clipped = clt_experiment(aset, phi, ns, grid=grid, truncate_sqrt_n=True)
        assert [(r.n, r.value.hex(), r.prediction.hex()) for r in clipped] == \
            [(r.n, r.value.hex(), r.prediction.hex()) for r in plain]
        assert clipped.metadata["truncate_sqrt_n"] and not plain.metadata["truncate_sqrt_n"]

    def test_truncation_clips_the_heavy_atoms(self):
        # P_k's atoms +-k reach past sqrt(25) = 5 for k > 5: the exact value is
        # the DP over the family with those atoms moved to +-5
        aset, phi, grid = counterexample_family(10), parse_phi("max(1-abs(x),0)"), GridConfig(dx=0.05)
        mode = NumericMode.EXACT
        clipped = AmbiguitySet([DiscreteDistribution(
            [-min(k, 5), 0, min(k, 5)], [F(1, 2 * k * k), 1 - F(1, k * k), F(1, 2 * k * k)])
            for k in range(1, 11)])
        want = sublinear_eval_sum(StepSequence.iid(clipped, 25, mode), lambda s: phi(s / 5))
        got = clt_experiment(aset, phi, [25], grid=grid, truncate_sqrt_n=True, mode=mode)
        plain = clt_experiment(aset, phi, [25], grid=grid, mode=mode)
        assert got.rows[0].value == want and type(got.rows[0].value) is F
        assert plain.rows[0].value != want


class TestProp62:
    def test_acceptance_point(self):
        value, bound = prop62_experiment(100, 20, clamp=2.0)
        assert bound <= value <= 1.0
        assert 0.996 <= value <= 1.0

    def test_monotone_in_K(self):
        vals = [prop62_experiment(K, 20, clamp=2.0)[0] for K in (10, 30, 100)]
        assert vals == sorted(vals)

    def test_exact_mode_agrees(self):
        vf, _ = prop62_experiment(10, 8)
        ve, _ = prop62_experiment(10, 8, mode=NumericMode.EXACT)
        assert vf == pytest.approx(float(ve), abs=1e-12)


class TestProp63:
    def test_one_step_exact(self):
        value, _ = prop63_experiment(2, 1, mode=NumericMode.EXACT)
        assert value == F(3, 4)

    def test_stays_near_one(self):
        for K in (25, 100, 400):
            value, bound = prop63_experiment(K, 25)
            assert bound - 1e-12 <= value <= 1.0
            assert value > 0.9

    def test_increasing_in_K(self):
        vals = [prop63_experiment(K, 25)[0] for K in (25, 100, 400)]
        assert vals == sorted(vals)

    def test_unclamped_matches_raw_phi(self):
        # without the bounded modification the one-step value drops to 1/2
        value, _ = prop63_experiment(2, 1, clamp=None, mode=NumericMode.EXACT)
        assert value == F(1, 2)

    def test_exact_requires_square_n(self):
        with pytest.raises(UsageError):
            prop63_experiment(4, 3, mode=NumericMode.EXACT)
