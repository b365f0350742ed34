import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin import (
    IndependenceReport,
    JointModel,
    ModelError,
    ModelTooLarge,
    NullHistoryError,
    NumericMode,
    check_peng_independence,
    check_pseudo_independence,
    enlarge_vertices,
    joint_model_from_dict,
)
import sublin.independence as independence
from sublin.independence import joint_value, nested_value, positive_histories
from sublin.linprog import hull_gap, hull_vertices, in_hull
from sublin.measures import _tolerance

from conftest import random_product_model

F = Fraction


def _reference_peng_exact(model, n):
    """The exact Peng check by enumeration: list every vertex of the step-n
    rectangular polytope, then test each joint against the polytope and each
    vertex against the hull of the joints."""
    effective = _tolerance(model.exact())
    prefixes = [model.prefix_law(ti, n - 1) for ti in range(len(model.tables))]
    marginals = [model.marginal_law(ti, n) for ti in range(len(model.tables))]
    cond_vertices = [marginals[i] for i in hull_vertices(marginals, effective)]
    width = len(model.supports[n - 1])
    poly, seen = [], set()
    for base in (prefixes[i] for i in hull_vertices(prefixes, effective)):
        positive = sum(1 for w in base if w != 0)
        for choice in itertools.product(cond_vertices, repeat=positive):
            conds = iter(choice)
            vec = []
            for w in base:
                vec.extend([w * c for c in next(conds)] if w != 0 else [0] * width)
            key = tuple(F(x) for x in vec)
            if key not in seen:
                seen.add(key)
                poly.append(vec)
    joints = [model.prefix_law(ti, n) for ti in range(len(model.tables))]
    for ti, j in enumerate(joints):
        gap, direction = hull_gap(j, poly)
        if gap > effective:
            return IndependenceReport(
                False, {"measure": ti, "side": "joint-outside", "direction": direction}, gap)
    for vi, v in enumerate(poly):
        gap, direction = hull_gap(v, joints)
        if gap > effective:
            return IndependenceReport(
                False, {"vertex": vi, "side": "polytope-outside", "direction": direction}, gap)
    return IndependenceReport(True)


def _normalized(raw):
    return [F(w, sum(raw)) for w in raw]


def _product(laws):
    """The product of ``laws`` as a flat row-major table."""
    table = [F(1)]
    for law in laws:
        table = [a * b for a in table for b in law]
    return table


@st.composite
def small_models(draw, max_tables=2):
    """Two-variable models up to 3x3 and (2,2,2) models of one to
    ``max_tables`` tables, all products of random laws or all general tables,
    with zero cells, in exact or float weights; and a step past the first."""
    shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)]))
    weights = lambda size: st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
    product = draw(st.booleans())
    tables = []
    for _ in range(draw(st.integers(1, max_tables))):
        if product:
            tables.append(_product([_normalized(draw(weights(size))) for size in shape]))
        else:
            tables.append(_normalized(draw(weights(math.prod(shape)))))
    if not draw(st.booleans()):
        tables = [[float(w) for w in t] for t in tables]
    model = JointModel([f"X{k}" for k in range(len(shape))], [range(s) for s in shape], tables)
    return model, draw(st.integers(2, len(shape)))


def _walk(model, n):
    """Every vertex the exact check walks, in order, with pseudo-independence
    and every membership test forced to pass."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(independence, "check_pseudo_independence", lambda *a: IndependenceReport(True))
        mp.setattr(independence, "hull_gap", lambda v, hull: seen.append(v) or (0, None))
        assert check_peng_independence(model, n, mode="exact").verdict
    return seen


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
        # Y's law (P(Y=0), P(Y=1)) given X = 0 or X = 1, under each measure
        for x in (0, 1):
            assert example36.conditional_law(0, 2, (x,)) == (F(1, 4), F(3, 4))
            assert example36.conditional_law(1, 2, (x,)) == (F(1, 2), F(1, 2))

    def test_empty_history_is_marginal(self, example36):
        assert example36.conditional_law(0, 1, ()) == (F(1, 4), F(3, 4))


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

    def test_probe_family_is_pinned(self):
        # all-equal, singles by (variable, value), then pairs by (k1, k2, v1, v2)
        m = JointModel(["X", "Y", "Z"], [[0, 1], [0, 1], [1, 2]], [[F(1, 8)] * 8])
        names = [
            "all-equal",
            "hat(X=0)", "hat(X=1)", "hat(Y=0)", "hat(Y=1)", "hat(Z=1)", "hat(Z=2)",
            "hat(X=0)*hat(Y=0)", "hat(X=0)*hat(Y=1)", "hat(X=1)*hat(Y=0)", "hat(X=1)*hat(Y=1)",
            "hat(X=0)*hat(Z=1)", "hat(X=0)*hat(Z=2)", "hat(X=1)*hat(Z=1)", "hat(X=1)*hat(Z=2)",
            "hat(Y=0)*hat(Z=1)", "hat(Y=0)*hat(Z=2)", "hat(Y=1)*hat(Z=1)", "hat(Y=1)*hat(Z=2)",
        ]
        probes = independence.default_probes(m, 3)
        assert [name for name, _ in probes] == names
        assert [name for name, _ in independence.default_probes(m, 2)] == [
            name for name in names if "Z" not in name]
        for name, phi in probes:
            cells = [("XYZ".index(v), int(t)) for v, t in re.findall(r"hat\((\w)=(\d)\)", name)]
            for values in itertools.product(*m.supports):
                want = (all(values[k] == t for k, t in cells) if cells
                        else len(set(values)) == 1)
                got = phi(values)
                assert type(got) is int and got == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_models())
    def test_exact_matches_enumeration(self, case):
        model, n = case
        lps = [0]
        real_pseudo, real_gap = independence.check_pseudo_independence, independence.hull_gap

        def pseudo(*args):
            report = real_pseudo(*args)
            lps[0] = 0
            return report

        def counted_gap(*args):
            lps[0] += 1
            return real_gap(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(independence, "check_pseudo_independence", pseudo)
            mp.setattr(independence, "hull_gap", counted_gap)
            got = check_peng_independence(model, n, mode="exact")
        want = _reference_peng_exact(model, n)
        assert got.verdict is want.verdict
        if not want.verdict:
            assert got.witness["side"] == want.witness["side"]
        if not want.verdict and want.witness["side"] == "polytope-outside":
            assert got.witness == want.witness
            assert got.gap == want.gap
        if model.exact():
            # a vertex of the polytope inside the hull of the joints is a joint
            assert lps[0] <= len(set(model.tables)) + 1

    def test_joint_outside_returns_the_pseudo_witness(self):
        m = JointModel(["X", "Y"], [[0, 1], [0, 1]], [[F(1, 2), 0, 0, F(1, 2)]])
        pseudo = check_pseudo_independence(m, 2)
        rep = check_peng_independence(m, 2, mode="exact")
        assert not rep.verdict and rep.gap == pseudo.gap
        assert rep.witness == {**pseudo.witness, "side": "joint-outside"}


def _random_model(seed, variables, size, n_tables, product):
    """Seeded cells 1-9 over ``variables`` supports of ``size`` points, each
    table a product of per-variable laws or a general table."""
    rng = random.Random(seed)
    cells = lambda k: _normalized([rng.randint(1, 9) for _ in range(k)])
    tables = [_product([cells(size) for _ in range(variables)]) if product
              else cells(size**variables) for _ in range(n_tables)]
    return JointModel([f"X{k}" for k in range(variables)], [range(size)] * variables, tables)


class TestLargeModels:
    """Three variables on three points, where the step polytope has 2 * 2**9
    to 3 * 3**9 vertices: too many to enumerate and test one by one."""

    def test_general_tables_decide_on_the_joint_side(self):
        m = _random_model(1, 3, 3, 2, product=False)
        start = time.perf_counter()
        rep = check_peng_independence(m, 3, mode="exact")
        assert time.perf_counter() - start < 10.0
        assert not rep.verdict and rep.witness["side"] == "joint-outside"

    def test_product_tables_decide_on_the_polytope_side(self):
        m = _random_model(2, 3, 3, 3, product=True)
        start = time.perf_counter()
        rep = check_peng_independence(m, 3, mode="exact")
        assert time.perf_counter() - start < 10.0
        assert not rep.verdict and rep.witness["side"] == "polytope-outside"
        assert rep.witness["vertex"] == 1


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

    def test_cap(self, example36, monkeypatch):
        # the enlargement has 8 vertices, the products of the last step
        monkeypatch.setattr(independence, "DEFAULT_ENUM_CAP", 8)
        assert len(enlarge_vertices(example36).tables) == 8
        monkeypatch.setattr(independence, "DEFAULT_ENUM_CAP", 7)
        with pytest.raises(ModelTooLarge, match="enlargement"):
            enlarge_vertices(example36)
        monkeypatch.setattr(independence, "DEFAULT_ENUM_CAP", 3)
        with pytest.raises(ModelTooLarge):
            enlarge_vertices(example36)

    def test_step_polytope_walk_fits_cap(self, example36, monkeypatch):
        # the step polytope has 2 prefix vertices times 2**2 marginal choices
        # = 8 vertices, but the walk stops at the second, which no joint is
        monkeypatch.setattr(independence, "DEFAULT_ENUM_CAP", 4)
        rep = check_peng_independence(example36, 2, mode="exact")
        assert not rep.verdict
        assert rep.gap == F(3, 10)
        assert rep.witness["vertex"] == 1
        assert rep.witness["side"] == "polytope-outside"

    def test_support_grid_cap(self, example36, monkeypatch):
        monkeypatch.setattr(independence, "DEFAULT_ENUM_CAP", 3)
        with pytest.raises(ModelTooLarge, match="support grid of size 4"):
            check_peng_independence(example36, 2, mode="exact")

    def test_float_twin_marginals_give_one_vertex(self):
        # X's laws (0.3, 0.7) and (0.30000000000000004, 0.7) are an ulp apart:
        # the enlargement keeps the first and drops the second
        laws = [(0.3, 0.7), (0.30000000000000004, 0.7), (0.5, 0.5)]
        m = JointModel(["X", "Y"], [[0, 1], [0, 1]],
                       [[wx * wy for wx in law for wy in (0.5, 0.5)] for law in laws])
        first, second = m.marginal_law(0, 1), m.marginal_law(1, 1)
        assert first != second and max(abs(a - b) for a, b in zip(first, second)) < 1e-15
        big = enlarge_vertices(m)
        kept = {big.marginal_law(ti, 1) for ti in range(len(big.tables))}
        assert len(big.tables) == 2 and first in kept and second not in kept
        assert check_peng_independence(m, 2, mode="exact").verdict

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=small_models(max_tables=3))
    def test_enlargement_tables_are_pairwise_distinct(self, case):
        # a product's row sums give its base and its quotients its choice of
        # vertices, so no two (base, choice) pairs give the same table
        model, _ = case
        tables = enlarge_vertices(model).tables
        assert len({tuple(F(w) for w in t) for t in tables}) == len(tables)

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
            assert [tuple(v) for v in _walk(m, 2)] == list(enlarge_vertices(m).tables)


class TestPositiveHistories:
    def test_counts(self, example36):
        assert positive_histories(example36, 0, 1) == [()]
        assert len(positive_histories(example36, 0, 2)) == 2

    def test_null_histories_skipped(self):
        m = JointModel(["X", "Y"], [[0, 1], [0, 1]], [[F(1, 2), F(1, 2), 0, 0]])
        assert positive_histories(m, 0, 2) == [(0,)]
        # pseudo-independence must then only look at history X=0
        assert check_pseudo_independence(m, 2).verdict
