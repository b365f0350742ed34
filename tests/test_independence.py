import random
from fractions import Fraction

import pytest

from sublin import (
    JointModel,
    ModelError,
    ModelTooLarge,
    NullHistoryError,
    NumericMode,
    check_peng_independence,
    check_pseudo_independence,
    conditional_expectation,
    enlarge_vertices,
    joint_model_from_dict,
)
from sublin.independence import (
    DEFAULT_ENUM_CAP,
    _step_polytope_vertices,
    joint_value,
    nested_value,
    positive_histories,
)
from sublin.linprog import in_hull

from conftest import random_product_model

F = Fraction


class TestJointModel:
    def test_shape_and_laws(self, example36):
        assert example36.shape == (2, 2)
        assert example36.marginal_law(0, 1) == (F(1, 4), F(3, 4))
        assert example36.marginal_law(1, 1) == (F(1, 2), F(1, 2))
        assert example36.marginal_law(0, 2) == (F(1, 4), F(3, 4))

    def test_conditional_laws(self, example36):
        # P1: P(Y=1 | X=1) = (9/16)/(12/16) = 3/4, P(Y=1 | X=0) = (3/16)/(4/16) = 3/4
        assert example36.conditional_law(0, 2, (1,)) == (F(1, 4), F(3, 4))
        assert example36.conditional_law(0, 2, (0,)) == (F(1, 4), F(3, 4))
        assert example36.conditional_law(1, 2, (0,)) == (F(1, 2), F(1, 2))

    def test_table_must_normalize(self):
        with pytest.raises(ModelError):
            JointModel(["X", "Y"], [[0, 1], [0, 1]], [[F(1, 2), F(1, 2), F(1, 2), F(1, 2)]])

    def test_null_history_rejected(self):
        m = JointModel(["X", "Y"], [[0, 1], [0, 1]], [[F(1, 2), F(1, 2), 0, 0]])
        with pytest.raises(NullHistoryError):
            m.conditional_law(0, 2, (1,))

    def test_from_dict_rational_strings(self):
        doc = {
            "variables": ["X", "Y"],
            "supports": [[0, 1], [0, 1]],
            "measures": [{"table": [["1/16", "3/16"], ["3/16", "9/16"]]}],
        }
        m = joint_model_from_dict(doc, NumericMode.EXACT)
        assert m.tables[0][3] == F(9, 16)

    def test_from_dict_rejects_bad_shape(self):
        with pytest.raises(ModelError):
            joint_model_from_dict(
                {
                    "variables": ["X", "Y"],
                    "supports": [[0, 1], [0, 1]],
                    "measures": [{"table": [[0.5, 0.5]]}],
                }
            )


class TestConditionalExpectation:
    def test_two_measure_example(self, example36):
        f = lambda y: y
        assert conditional_expectation(example36, 0, f, (1,)) == F(3, 4)
        assert conditional_expectation(example36, 0, f, (0,)) == F(3, 4)
        assert conditional_expectation(example36, 1, f, (0,)) == F(1, 2)
        assert conditional_expectation(example36, 1, f, (1,)) == F(1, 2)

    def test_empty_history_is_marginal(self, example36):
        assert conditional_expectation(example36, 0, lambda x: x, ()) == F(3, 4)

    def test_value_not_in_support(self, example36):
        with pytest.raises(ModelError):
            conditional_expectation(example36, 0, lambda y: y, (2,))


class TestPseudoIndependence:
    def test_example_is_pseudo_independent(self, example36):
        rep = check_pseudo_independence(example36, 2)
        assert rep.verdict
        assert bool(rep)
        assert rep.gap == 0

    def test_product_models_always_pass(self):
        rng = random.Random(21)
        for _ in range(30):
            m = random_product_model(rng)
            assert check_pseudo_independence(m, 2).verdict

    def test_correlated_model_fails_with_witness(self):
        # single measure, perfectly correlated bits: cond. law of Y depends on X
        m = JointModel(["X", "Y"], [[0, 1], [0, 1]], [[F(1, 2), 0, 0, F(1, 2)]])
        rep = check_pseudo_independence(m, 2)
        assert not rep.verdict
        assert rep.gap > 0
        assert rep.witness["history"] in ((0,), (1,))

    def test_mixture_inside_hull_passes(self):
        # conditional laws differ per history but both equal some marginal law
        m = JointModel(
            ["X", "Y"],
            [[0, 1], [0, 1]],
            [
                [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
                [F(1, 8), F(3, 8), F(1, 8), F(3, 8)],
            ],
        )
        assert check_pseudo_independence(m, 2).verdict


class TestPengIndependence:
    def test_joint_vs_nested_values(self, example36, phi_star):
        assert joint_value(example36, 2, phi_star) == F(5, 8)
        assert nested_value(example36, 2, phi_star) == F(11, 16)

    def test_probe_finds_the_gap(self, example36):
        rep = check_peng_independence(example36, 2, mode="probe")
        assert not rep.verdict
        assert rep.gap == F(1, 16)
        assert rep.witness["joint"] == F(5, 8)
        assert rep.witness["nested"] == F(11, 16)

    def test_exact_mode_agrees(self, example36):
        assert not check_peng_independence(example36, 2, mode="exact").verdict

    def test_singleton_product_models_pass_both_modes(self):
        # one product measure: classical independence, both checks must agree
        rng = random.Random(22)
        for _ in range(15):
            m = random_product_model(rng, max_measures=1)
            assert check_peng_independence(m, 2, mode="probe").verdict
            assert check_peng_independence(m, 2, mode="exact").verdict

    def test_multi_measure_product_can_fail(self, example36):
        # several product measures are pseudo-independent yet may fail the
        # stronger check; the running two-measure example is the witness
        assert check_pseudo_independence(example36, 2).verdict
        assert not check_peng_independence(example36, 2, mode="probe").verdict

    def test_nested_dominates_joint_on_probes(self, example36):
        # the one-level nested value always dominates the joint value
        rng = random.Random(23)
        for _ in range(25):
            m = random_product_model(rng)
            probe = lambda v: abs(v[0] - v[1])
            assert nested_value(m, 2, probe) >= joint_value(m, 2, probe)

    def test_bad_mode(self, example36):
        with pytest.raises(ModelError):
            check_peng_independence(example36, 2, mode="nope")


class TestEnlargement:
    def test_example_enlargement(self, example36, phi_star):
        big = enlarge_vertices(example36)
        assert len(big.tables) == 8
        target = (F(1, 8), F(1, 8), F(3, 16), F(9, 16))
        assert target in {tuple(t) for t in big.tables}
        # original members survive
        for t in example36.tables:
            assert tuple(t) in {tuple(t2) for t2 in big.tables}
        # enlargement closes the gap and passes the strict check
        assert joint_value(big, 2, phi_star) == F(11, 16)
        assert check_peng_independence(big, 2, mode="exact").verdict

    def test_enlargement_preserves_marginals_hull(self, example36):
        big = enlarge_vertices(example36)
        orig1 = {example36.marginal_law(ti, 1) for ti in range(len(example36.tables))}
        orig2 = {example36.marginal_law(ti, 2) for ti in range(len(example36.tables))}
        for ti in range(len(big.tables)):
            assert big.marginal_law(ti, 1) in orig1
            # per history, the conditional law of the second variable is one of
            # the original marginal vertices; the unconditional marginal is a
            # mixture of those, hence inside their hull
            for hist in positive_histories(big, ti, 2):
                assert big.conditional_law(ti, 2, hist) in orig2
            marg = big.marginal_law(ti, 2)
            assert in_hull(marg, list(orig2))

    def test_nested_equals_joint_on_enlargement(self):
        rng = random.Random(25)
        for _ in range(10):
            m = random_product_model(rng, max_measures=2)
            big = enlarge_vertices(m)
            probe = lambda v: 1 if v[0] == v[1] else 0
            assert joint_value(big, 2, probe) == nested_value(big, 2, probe)
            assert nested_value(big, 2, probe) == nested_value(m, 2, probe)

    def test_cap(self, example36):
        with pytest.raises(ModelTooLarge):
            enlarge_vertices(example36, cap=3)

    def test_step_polytope_cap(self, example36):
        # the 2x2 grid fits cap=4; the step polytope needs 2 prefix vertices
        # times 2**2 marginal choices = 8 products
        with pytest.raises(ModelTooLarge, match="step polytope"):
            check_peng_independence(example36, 2, mode="exact", cap=4)

    def test_two_variable_step_polytope_is_the_enlargement(self):
        # with two variables both enumerations assemble marginal-1 vertices
        # with one marginal-2 vertex per positive history
        rng = random.Random(26)
        models = [random_product_model(rng) for _ in range(10)]
        for _ in range(10):
            sx, sy = rng.randint(2, 3), rng.randint(2, 3)
            tables = []
            for _ in range(rng.randint(1, 3)):
                raw = [rng.choice([0, 0, 1, 2, 5]) for _ in range(sx * sy - 1)] + [1]
                tables.append([F(w, sum(raw)) for w in raw])
            models.append(JointModel(["X", "Y"], [range(sx), range(sy)], tables))
        for m in models:
            poly = _step_polytope_vertices(m, 2, DEFAULT_ENUM_CAP)
            assert [tuple(v) for v in poly] == list(enlarge_vertices(m).tables)


class TestPositiveHistories:
    def test_counts(self, example36):
        assert positive_histories(example36, 0, 1) == [()]
        assert len(positive_histories(example36, 0, 2)) == 2

    def test_null_histories_skipped(self):
        m = JointModel(["X", "Y"], [[0, 1], [0, 1]], [[F(1, 2), F(1, 2), 0, 0]])
        assert positive_histories(m, 0, 2) == [(0,)]
        # pseudo-independence must then only look at history X=0
        assert check_pseudo_independence(m, 2).verdict
