import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublin import NumericalFailure, UsageError, limits, lln_bounds, parse_phi
from sublin.phi import evaluate_array

F = Fraction


class TestParsing:
    @pytest.mark.parametrize(
        "src,x,expected",
        [
            ("x", 3, 3),
            ("x + 1", 3, 4),
            ("2*x - 1", 3, 5),
            ("-x", 3, -3),
            ("x*x", -4, 16),
            ("abs(x)", -4, 4),
            ("min(x, 0)", 3, 0),
            ("max(x, 0, -x)", -3, 3),
            ("clamp(x, -1, 1)", 5, 1),
            ("clamp(x, -1, 1)", -5, -1),
            ("clamp(x, -1, 1)", 0.25, 0.25),
            ("1 - abs(x)", 0.5, 0.5),
            ("(x + 1) * (x - 1)", 3, 8),
            ("9/16", 0, 0.5625),
            ("x/4", 8, 2),
            ("pow(x, 2)", -3, 9),
            ("01", 0, 1),
            ("021/32", 0, 0.65625),
            (" x", 3, 3),
            ("x\n+ 1", 3, 4),
        ],
    )
    def test_values(self, src, x, expected):
        assert parse_phi(src)(x) == pytest.approx(expected)

    def test_exact_rationals(self):
        phi = parse_phi("9/16 - x")
        assert phi(F(1, 16), exact=True) == F(1, 2)

    def test_precedence(self):
        assert parse_phi("1 + 2 * 3")(0) == 7
        assert parse_phi("(1 + 2) * 3")(0) == 9
        assert parse_phi("-x*x")(2) == -4

    def test_sqrt_exp(self):
        assert parse_phi("sqrt(x)")(4) == pytest.approx(2.0)
        assert parse_phi("exp(x)")(1) == pytest.approx(math.e)

    @pytest.mark.parametrize(
        "src",
        ["", "x +", "min(x)", "clamp(x, 1)", "abs(x, 1)", "foo(x)", "x y", "((x)", "1..2", "x ** 2",
         # Python-only constructs, and a fullwidth x that Python would read as x
         "True", "None", "1e5", "0x1f", "1_0", "1j", "5.", "+x", "x // 2", "x.real", "(x, 1)",
         "max(*x)", "not x", "x and 1", "x if x else 1", "abs(x,)", "(x)(1)", "\uff58", "x # c",
         # numbers past Python's 4300-digit int-string limit
         pytest.param("1" * 5000, id="long-int"),
         pytest.param("0." + "1" * 5000, id="long-decimal"),
         # constants past the float range, as written and as folded
         pytest.param("x*1" + "0" * 310, id="huge-constant"),
         pytest.param("x*1" + "0" * 4000 + "*1" + "0" * 4000, id="huge-folded-constant")],
    )
    def test_rejects(self, src):
        with pytest.raises(UsageError):
            parse_phi(src)


class TestExactCapability:
    def test_piecewise_linear_exact(self):
        phi = parse_phi("max(1 - abs(x), 0)")
        phi.require_exact()
        assert phi(F(1, 3), exact=True) == F(2, 3)

    def test_constant_division_folds(self):
        phi = parse_phi("x - 9/16")
        phi.require_exact()
        assert phi(F(9, 16), exact=True) == 0

    def test_division_by_a_constant_is_exact(self):
        phi = parse_phi("x/4")
        phi.require_exact()
        assert phi(F(1, 3), exact=True) == F(1, 12)
        assert phi(0.3) == 0.3 / 4
        with pytest.raises(UsageError):
            parse_phi("x/(2-2)").require_exact()

    def test_variable_division_not_exact(self):
        phi = parse_phi("1/x")
        with pytest.raises(UsageError):
            phi.require_exact()
        assert isinstance(phi(F(1, 3)), float)

    def test_transcendental_not_exact(self):
        for text in ("exp(x)", "sqrt(x)"):
            with pytest.raises(UsageError):
                parse_phi(text).require_exact()
        phi = parse_phi("clamp(x*x, 0, 2)")
        phi.require_exact()
        assert phi(F(3, 2)) == F(2) and isinstance(phi(F(1, 2)), F)

    def test_exact_on_rationals(self):
        # an expression in the exact subset evaluates rationals exactly by default
        phi = parse_phi("max(1 - abs(x - 1/3), 0)")
        assert phi(F(1, 2)) == F(5, 6) and isinstance(phi(F(1, 2)), F)
        assert phi(1) == F(1, 3) and isinstance(phi(1), F)
        assert isinstance(phi(0.5), float)
        assert evaluate_array(phi, np.array([0.5])).tolist() == [phi(0.5)]
        assert isinstance(parse_phi("exp(x)")(1), float)  # outside the subset: float
        with pytest.raises(UsageError):
            parse_phi("exp(x)").require_exact()


class TestRoundTrip:
    def test_deep_negation_parses_and_evaluates(self):
        assert parse_phi("-" * 400 + "x")(2.0) == 2.0


def _phi_texts(ops, leaf_numbers):
    """Random phi-grammar texts paired with the same expression as Python
    source over Fractions (``F(p, q)`` literals), built from ``ops``."""
    leaves = st.just(("x", "x")) | leaf_numbers

    def extend(sub):
        parts = []
        for op in "+-*/":
            if op in ops:
                parts.append(st.tuples(sub, sub).map(
                    lambda t, op=op: (f"({t[0][0]} {op} {t[1][0]})", f"({t[0][1]} {op} {t[1][1]})")))
        if "neg" in ops:
            parts.append(sub.map(lambda a: (f"-({a[0]})", f"-({a[1]})")))
        for name in ("abs", "sqrt"):
            if name in ops:
                parts.append(sub.map(lambda a, name=name: (f"{name}({a[0]})", f"{name}({a[1]})")))
        for name, lo, hi in (("min", 2, 4), ("max", 2, 4), ("clamp", 3, 3)):
            if name in ops:
                parts.append(st.lists(sub, min_size=lo, max_size=hi).map(
                    lambda args, name=name: (f"{name}({', '.join(a[0] for a in args)})",
                                             f"{name}({', '.join(a[1] for a in args)})")))
        return st.one_of(parts)

    return st.recursive(leaves, extend, max_leaves=10)


_NUMBERS = st.tuples(st.integers(0, 9), st.integers(1, 4)).map(
    lambda t: (f"({t[0]}/{t[1]})", f"F({t[0]}, {t[1]})"))
_FLOAT_OPS = {"+", "-", "*", "/", "neg", "abs", "sqrt", "min", "max", "clamp"}
_EXACT_OPS = {"+", "-", "*", "neg", "abs", "min", "max", "clamp"}
_POINTS = st.lists(
    st.one_of(st.floats(-4, 4, allow_nan=False), st.sampled_from([0.0, -0.0, 0.5, -1.0])),
    min_size=1, max_size=16)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _scalar_or_failure(phi, points):
    """The scalar closure at every point, or None when it raises
    NumericalFailure or yields a non-finite value (either of which the
    array path must turn into NumericalFailure)."""
    try:
        want = [phi(x) for x in points]
    except NumericalFailure:
        return None
    return want if all(math.isfinite(w) for w in want) else None


class TestCompiledClosures:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=_phi_texts(_FLOAT_OPS, _NUMBERS), points=_POINTS)
    def test_array_equals_scalar_bit_for_bit(self, text, points):
        phi = parse_phi(text[0])
        want = _scalar_or_failure(phi, points)
        if want is None:
            with pytest.raises(NumericalFailure):
                evaluate_array(phi, np.array(points))
        else:
            assert _bits(evaluate_array(phi, np.array(points))) == _bits(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=_phi_texts(_EXACT_OPS, _NUMBERS), b=_phi_texts(_EXACT_OPS, _NUMBERS),
           fn=st.sampled_from(["exp", "pow"]), points=_POINTS)
    def test_array_exp_pow_within_one_ulp(self, a, b, fn, points):
        phi = parse_phi(f"exp({a[0]})" if fn == "exp" else f"pow({a[0]}, {b[0]})")
        want = _scalar_or_failure(phi, points)
        if want is None:
            with pytest.raises(NumericalFailure):
                evaluate_array(phi, np.array(points))
        else:
            got = evaluate_array(phi, np.array(points))
            want = np.array(want)
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=_phi_texts(_EXACT_OPS, _NUMBERS),
           points=st.lists(st.fractions(-4, 4, max_denominator=12), min_size=1, max_size=8))
    def test_exact_matches_fraction_arithmetic(self, text, points):
        phi = parse_phi(text[0])
        clamp = lambda a, lo, hi: min(max(a, lo), hi)
        for q in points:
            want = eval(text[1], {"F": F, "clamp": clamp, "x": q})
            got = phi(q, exact=True)
            assert got == want and isinstance(got, (int, F))

    # masked failures: the non-finite value would vanish under min/max
    @pytest.mark.parametrize("text,x", [("1/x", 0.0), ("min(1, 1/x)", 0.0), ("sqrt(x)", -1.0),
                                        ("max(0, sqrt(x - 1))", 0.5), ("min(1, exp(x))", 1000.0),
                                        ("max(0, pow(x, 1/2))", -1.0),
                                        ("min(1, pow(x, -1))", 0.0), ("min(1, pow(x, 400))", 10.0)])
    def test_domain_errors_raise_on_both_float_paths(self, text, x):
        phi = parse_phi(text)
        with pytest.raises(NumericalFailure):
            phi(x)
        with pytest.raises(NumericalFailure):
            evaluate_array(phi, np.array([1.0, x]))

    @pytest.mark.parametrize("text", ["min(x, -x)", "max(x, -x)", "max(-x, x, 0)",
                                      "clamp(0, x, -x)", "min(x, 0)*0"])
    def test_signed_zero_ties_keep_the_first_operand(self, text):
        # Python's min/max keep the earlier of two equal operands, so
        # min(0.0, -0.0) is 0.0; np.minimum would give -0.0
        phi = parse_phi(text)
        points = [0.0, -0.0]
        assert _bits(evaluate_array(phi, np.array(points))) == _bits([phi(x) for x in points])

    @pytest.mark.parametrize(
        "text", ["max(1-abs(x-1/2),0)", "x*x - x", "clamp(3*x-1, 0, 1/2)", "-abs(x)", "9/16",
                 "sqrt(x*x + 1)", "min(x + 3/4, 0)*0", "-(min(x + 3/4, 0)*0)",
                 "min(x - 1/4, 0)*0"])
    def test_lln_bounds_matches_the_pointwise_loop(self, text, monkeypatch):
        # 2**17 + 1 points: three chunks, the midpoint is exactly 0; the
        # zero-valued cases tie 0.0 with -0.0 within and across chunks, where
        # min()/max() over the points keep the first
        phi = parse_phi(text)
        count = 2**17 + 1
        monkeypatch.setattr(limits, "LLN_GRID_POINTS", count)
        vals = [phi(-1.0 + 2.0 * i / (count - 1)) for i in range(count)]
        want = (min(vals), max(vals))
        for f in (phi, lambda x: phi(x)):
            assert _bits(lln_bounds(f, -1, 1)) == _bits(want)


def test_unknown_name_refused():
    with pytest.raises(UsageError, match="^unknown name 'y'$"):
        parse_phi("y")
