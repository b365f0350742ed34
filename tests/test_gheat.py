import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublin import (
    AmbiguitySet,
    DiscreteDistribution,
    GParams,
    GridConfig,
    ModelError,
    ModelTooLarge,
    NumericalFailure,
    NumericMode,
    StepSequence,
    g_normal_expectation,
    gaussian_quadrature,
    parse_phi,
    solve_g_heat,
    sublinear_eval_sum,
)
from sublin.gheat import CFL, _linear_steps, default_domain
from sublin.phi import evaluate_array

from test_phi import _EXACT_OPS, _NUMBERS, _phi_texts

F = Fraction

COARSE = GridConfig(dx=0.05)


class TestGFunction:
    def test_validation(self):
        with pytest.raises(ModelError):
            GParams(1.0, 0.5)
        with pytest.raises(ModelError):
            GParams(-0.1, 1.0)
        with pytest.raises(ModelError):
            GParams(0.0, math.inf)
        with pytest.raises(ModelError, match="finite sigma_hi"):
            GParams(0.5, 1e200)  # sigma_hi**2 overflows
        with pytest.raises(ModelError, match="finite sigma_hi"):
            GParams(0, 10**200)  # an int square that no float holds


class TestQuadratureOracle:
    """Closed-form classical values pin down the integration backend."""

    def test_mean_zero(self):
        assert gaussian_quadrature(lambda x: x, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment(self):
        assert gaussian_quadrature(lambda x: x * x, 1.3) == pytest.approx(1.69, abs=1e-9)

    def test_abs_moment(self):
        # E|Z| = sigma * sqrt(2/pi)
        want = 1.0 * math.sqrt(2 / math.pi)
        assert gaussian_quadrature(abs, 1.0) == pytest.approx(want, abs=1e-9)

    def test_one_minus_abs(self):
        want = 1 - math.sqrt(2 / math.pi)
        assert gaussian_quadrature(lambda x: 1 - abs(x), 1.0) == pytest.approx(want, abs=1e-9)

    def test_degenerate_sigma(self):
        assert gaussian_quadrature(lambda x: x * x + 3, 0.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 1e308])
    def test_refuses_what_gparams_refuses(self, sigma):
        # each once returned nan or -inf; 1e308**2 overflows
        with pytest.raises(ModelError, match="finite sigma"):
            GParams(sigma, sigma)
        with pytest.raises(ModelError, match="finite sigma"):
            gaussian_quadrature(parse_phi("1-abs(x)"), sigma)


class TestSolver:
    def test_classical_limit_matches_quadrature(self):
        p = GParams(1.0, 1.0)
        for phi in [lambda x: max(1 - abs(x), 0.0), lambda x: 1 - abs(x)]:
            pde = g_normal_expectation(phi, p, COARSE)
            quad = gaussian_quadrature(phi, 1.0)
            assert pde == pytest.approx(quad, abs=1e-3)

    def test_scaled_classical(self):
        p = GParams(0.7, 0.7)
        phi = lambda x: max(1 - abs(x), 0.0)
        assert g_normal_expectation(phi, p, COARSE) == pytest.approx(
            gaussian_quadrature(phi, 0.7), abs=1e-3
        )

    def test_convex_payoff_uses_upper_variance(self):
        # for convex phi the worst case is the largest variance
        p = GParams(0.5, 1.0)
        phi = lambda x: x * x
        assert g_normal_expectation(phi, p, COARSE) == pytest.approx(1.0, abs=2e-2)

    def test_concave_payoff_uses_lower_variance(self):
        p = GParams(0.5, 1.0)
        phi = lambda x: -(x * x)
        assert g_normal_expectation(phi, p, COARSE) == pytest.approx(-0.25, abs=2e-2)

    def test_between_classical_envelopes(self):
        p = GParams(0.5, 1.0)
        phi = lambda x: max(1 - abs(x), 0.0)
        v = g_normal_expectation(phi, p, COARSE)
        lo = min(gaussian_quadrature(phi, s) for s in (0.5, 1.0))
        hi = max(gaussian_quadrature(phi, s) for s in (0.5, 1.0))
        assert lo - 1e-3 <= v <= hi + 1e-3 or v >= hi - 1e-3  # sublinear value >= both

    def test_comparison_principle(self):
        # phi <= psi pointwise implies u_phi(T,0) <= u_psi(T,0)
        p = GParams(0.4, 1.1)
        phi = lambda x: max(1 - abs(x), 0.0)
        psi = lambda x: 1.0 / (1.0 + x * x)
        assert all(phi(x) <= psi(x) + 1e-15 for x in np.linspace(-8, 8, 401))
        assert g_normal_expectation(phi, p, COARSE) <= g_normal_expectation(psi, p, COARSE) + 1e-12

    def test_constants_preserved(self):
        p = GParams(0.5, 1.0)
        assert g_normal_expectation(lambda x: 2.5, p, COARSE) == pytest.approx(2.5, abs=1e-10)

    def test_degenerate_band_is_identity(self):
        p = GParams(0.0, 0.0)
        phi = lambda x: max(1 - abs(x), 0.0)
        assert g_normal_expectation(phi, p, COARSE) == pytest.approx(1.0, abs=1e-12)

    def test_grid_without_an_interior_point(self):
        # round(L/dx) < 1 leaves the one point x = 0: a solve that would step
        # is refused, a degenerate one still returns phi (L = 8 here)
        phi = lambda x: 1 - abs(x)
        for config in (GridConfig(dx=100.0), GridConfig(dx=17.0)):
            with pytest.raises(ModelError, match="no interior point"):
                solve_g_heat(phi, GParams(0.5, 1.0), config=config)
            assert solve_g_heat(phi, GParams(0.0, 0.0), config=config).values.tolist() == [1]
            assert solve_g_heat(phi, GParams(0.5, 1.0), T=0.0, config=config).values.tolist() == [1]
        # round(L/dx) = 1: one interior point, stepped
        grid = solve_g_heat(phi, GParams(0.5, 1.0), config=GridConfig(dx=8.0))
        assert len(grid.xs) == 3 and grid.values[1] < 1

    def test_grid_function_interface(self):
        p = GParams(0.5, 1.0)
        u = solve_g_heat(lambda x: max(1 - abs(x), 0.0), p, config=COARSE)
        assert u.value_at(0.0) == pytest.approx(g_normal_expectation(lambda x: max(1 - abs(x), 0.0), p, COARSE))
        # symmetry of the data and the operator
        assert u.value_at(1.3) == pytest.approx(u.value_at(-1.3), abs=1e-10)

    def test_monotone_in_upper_sigma(self):
        phi = lambda x: max(1 - abs(x), 0.0)
        # the robust value of this hat decreases as ambiguity grows upward
        v1 = g_normal_expectation(phi, GParams(0.5, 0.8), COARSE)
        v2 = g_normal_expectation(phi, GParams(0.5, 1.2), COARSE)
        # larger ambiguity band: sublinear expectation can only increase
        assert v2 >= v1 - 1e-12

    def test_dx_validation(self):
        with pytest.raises(ModelError):
            GridConfig(dx=0.0)
        with pytest.raises(ModelError):
            GridConfig(dx=math.nan)
        for dx in (math.inf, 1e300):
            with pytest.raises(ModelError):
                GridConfig(dx=dx)


def _reference_heat(phi, params, T, config):
    """The scheme as one allocating full-array update per step: the
    reference that solve_g_heat's in-place stepping must match byte for
    byte (same operations in the same order)."""
    n_half = int(round(default_domain(params) / config.dx))
    xs = np.arange(-n_half, n_half + 1) * config.dx
    u = evaluate_array(phi, xs)
    sig2_hi = params.sigma_hi**2
    sig2_lo = params.sigma_lo**2
    if T == 0 or sig2_hi == 0:
        return u
    dt = CFL * config.dx**2 / sig2_hi
    n_steps = max(1, int(math.ceil(T / dt)))
    dt = T / n_steps
    lam = dt / config.dx**2
    for _ in range(n_steps):
        d2 = np.empty_like(u)
        d2[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        d2[0] = 0.0
        d2[-1] = 0.0
        u = u + ((lam * 0.5 * sig2_hi) * np.maximum(d2, 0.0)
                 + (lam * 0.5 * sig2_lo) * np.minimum(d2, 0.0))
    return u


_KINKS = st.integers(-8, 8).map(lambda i: f"{i / 4}")
_HATS = _KINKS.map(lambda k: f"max(1 - abs(x - {k}), 0)")
_HEAT_PHIS = st.one_of(
    _HATS,
    _KINKS.map(lambda k: f"1 - abs(x - {k})"),  # tent
    st.sampled_from(["x*x", "max(x, 0)", "0*x"]),  # 0*x is -0.0 at -L
)


class TestInPlaceStepping:
    # data that step: hats are mixed data, and 0*x steps but at sigma_lo = 0,
    # where the closed form's identity gives the loop's bytes; convex and
    # concave data may take the closed form, and TestSplitClosedForm draws them
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(phi=st.one_of(_HATS, st.just("0*x")), sigma_hi=st.floats(0.1, 1.0),
           band=st.sampled_from(["zero", "inside"]),
           dx=st.one_of(st.floats(0.02, 0.2), st.sampled_from([8.0, 17.0])),
           T=st.sampled_from([0.0, 0.05, 0.3]))
    # one step from a -0.0 at x = 0 between two negatives, where sigma_lo = 0
    # makes max(sigma_hi^2 d2, 0 * d2) the -0.0 that would keep the point
    # -0.0 but for the add of 0.0 before the steps; and 25,000 steps of the band
    @example(phi="-x*x", sigma_hi=0.8, band="zero", dx=0.2, T=0.02)
    @example(phi="max(1 - abs(x), 0)", sigma_hi=1.0, band="inside", dx=0.01, T=1.0)
    def test_matches_reference_loop_byte_for_byte(self, phi, sigma_hi, band, dx, T):
        sigma_lo = {"zero": 0.0, "inside": 0.4 * sigma_hi}[band]
        params = GParams(sigma_lo, sigma_hi)
        config = GridConfig(dx=dx)
        if dx == 17.0 and T > 0:  # a solve that would step a grid of one point
            with pytest.raises(ModelError, match="no interior point"):
                solve_g_heat(parse_phi(phi), params, T=T, config=config)
            return
        got = solve_g_heat(parse_phi(phi), params, T=T, config=config)
        want = _reference_heat(parse_phi(phi), params, T, config)
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phi", ["max(1 - abs(x), 0)", "0*x", "x*x", "max(x, 0)"])
    def test_linear_step_above_unit_sigma(self, phi):
        # sigma = 1.5 to T = 0.5: the half-width 12, 481 points, 1,125 steps;
        # the closed form is held to the exact scheme, not to _reference_heat
        _assert_within_the_bound_of_the_exact_scheme(phi, F(9, 4), F(1, 20), 1125)


def _exact_split_scheme(u0, p_lo, p_hi, n):
    """n steps of u_j += max(p_hi d2, p_lo d2), d2 = u_{j+1} - 2 u_j +
    u_{j-1}, on the interior of u0, its ends fixed, in exact arithmetic: the
    reference for the split solve.  Steps integer numerators over a common
    denominator."""
    den = max(F(x).denominator for x in u0)
    u = [int(F(x) * den) for x in u0]
    b = math.lcm(p_lo.denominator, p_hi.denominator)
    a_lo, a_hi = int(p_lo * b), int(p_hi * b)
    for _ in range(n):
        d2 = [u[j - 1] - 2 * u[j] + u[j + 1] for j in range(1, len(u) - 1)]
        u = [b * u[0]] + [b * x + (a_hi if d >= 0 else a_lo) * d
                          for x, d in zip(u[1:-1], d2)] + [b * u[-1]]
    return [F(x, den * b**n) for x in u]


def _exact_scheme(u0, p, n):
    """n steps of u_j += p (u_{j+1} - 2 u_j + u_{j-1}) on the interior of
    u0, its ends fixed, in exact arithmetic: the reference for the linear
    solve."""
    return _exact_split_scheme(u0, p, p, n)


def _linear_bound(points, top):
    """solve_g_heat's rounding bound for sigma_lo == sigma_hi on a grid of
    `points` values whose initial data reach `top` in absolute value."""
    eps, eta = F(1, 2**53), F(1, 2**1074)
    return F((32 * math.log2(2 * points) + 64) * math.sqrt(points)) * (top * eps + eta)


def _assert_within_the_bound_of_the_exact_scheme(phi, sig2, dx, steps):
    """Every grid value of solve_g_heat at sigma_lo = sigma_hi = sqrt(sig2),
    run to the T of `steps` CFL steps, lies within _linear_bound of
    _exact_scheme."""
    T = steps * F(str(CFL)) * dx * dx / sig2
    params = GParams(math.sqrt(sig2), math.sqrt(sig2))
    config = GridConfig(dx=float(dx))
    u0 = solve_g_heat(parse_phi(phi), params, T=0.0, config=config).values
    got = solve_g_heat(parse_phi(phi), params, T=float(T), config=config)
    # rounding may add a step to the solver's count
    n = round(float(T) / got.dt)
    assert steps <= n <= steps + 1
    want = _exact_scheme(u0.tolist(), T / n / (2 * dx * dx) * sig2, n)
    bound = _linear_bound(len(u0), max(abs(F(x)) for x in u0.tolist()))
    assert max(abs(F(g) - w) for g, w in zip(got.values.tolist(), want)) <= bound


class TestLinearClosedForm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(phi=_HEAT_PHIS, sig2=st.fractions(F(1, 20), 1, max_denominator=20),
           dx=st.fractions(F(1, 20), 8, max_denominator=40), steps=st.integers(1, 40))
    # one step of x*x, whose largest values sit at the ends, far from x = 0
    @example(phi="x*x", sig2=F(1), dx=F(1, 20), steps=1)
    # an all-zero start with -0.0 at every x < 0, and a start of subnormals,
    # where roundings underflow
    @example(phi="0*x", sig2=F(9, 100), dx=F(1, 20), steps=27)
    @example(phi=f"min(x, 0)*0.{'0' * 323}5", sig2=F(9, 100), dx=F(1, 2), steps=30)
    # the README gnormal grid, where sigma^2 is exactly 1.0, at 100 steps
    @example(phi="1-abs(x)", sig2=F(1), dx=F(1, 100), steps=100)
    # more steps than half-width cells: x = 0 reads the fixed ends
    @example(phi="max(x, 0)", sig2=F(1), dx=F(2), steps=9)
    def test_within_the_bound_of_the_exact_scheme(self, phi, sig2, dx, steps):
        # grids of 3 to 321 points; the exact scheme includes the fixed ends
        _assert_within_the_bound_of_the_exact_scheme(phi, sig2, dx, steps)


_CURVES = st.tuples(st.sampled_from(["+", "-"]),
                    st.sampled_from(["abs(x - {})", "x*x", "max(x - {}, 0)"]), _KINKS)
# sums of one to three curves: convex when every sign is +, concave when every
# sign is -, mixed data otherwise
_CURVED_PHIS = st.lists(_CURVES, min_size=1, max_size=3).map(
    lambda terms: "0" + "".join(f" {sign} {term.format(k)}" for sign, term, k in terms))


class TestSplitClosedForm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(phi=_CURVED_PHIS, sig2_hi=st.fractions(F(1, 20), 1, max_denominator=20),
           band=st.fractions(0, F(3, 4), max_denominator=4),
           dx=st.fractions(F(1, 4), 4, max_denominator=8), steps=st.integers(1, 40))
    # concave data at sigma_lo, and convex data at sigma_hi, past the half-width;
    # at sigma_lo = 0 concave steps are the identity
    @example(phi="1-abs(x)", sig2_hi=F(1), band=F(1, 4), dx=F(1, 4), steps=100)
    @example(phi="x*x", sig2_hi=F(1), band=F(1, 4), dx=F(1, 2), steps=40)
    @example(phi="-x*x", sig2_hi=F(1), band=F(0), dx=F(1, 2), steps=40)
    @example(phi="max(x, 0)", sig2_hi=F(1), band=F(0), dx=F(1, 2), steps=40)
    # fewer steps than half-width cells: the stepped bound is the tighter one
    @example(phi="1-abs(x)", sig2_hi=F(1), band=F(1, 4), dx=F(1, 4), steps=20)
    def test_within_the_bound_of_the_path_taken(self, phi, sig2_hi, band, dx, steps):
        # grids of 5 to 65 points, and steps on either side of their half-width
        sig2 = (band * sig2_hi, sig2_hi)
        T = steps * F(str(CFL)) * dx * dx / sig2_hi
        params = GParams(math.sqrt(sig2[0]), math.sqrt(sig2[1]))
        config = GridConfig(dx=float(dx))
        got = solve_g_heat(parse_phi(phi), params, T=float(T), config=config)
        u0 = solve_g_heat(parse_phi(phi), params, T=0.0, config=config).values + 0.0
        # rounding may add a step to the solver's count
        n, mid = round(float(T) / got.dt), len(u0) // 2
        assert steps <= n <= steps + 1
        p_lo, p_hi = (T / n / (2 * dx * dx) * s for s in sig2)
        want = _exact_split_scheme(u0.tolist(), p_lo, p_hi, n)
        error = max(abs(F(g) - w) for g, w in zip(got.values.tolist(), want))
        top = max(abs(F(x)) for x in u0.tolist())
        cone = max(abs(F(x)) for x in u0[max(mid - n, 0):mid + n + 1].tolist())
        # the path taken is one whose bytes the solve has: the stepping loop,
        # within 29 U eps a step (U over the 2n + 1 points nearest x = 0 for
        # u(T, 0)), or n linear steps at sigma_lo or sigma_hi, within the
        # closed form's bound plus the offending part of w0 a step; where two
        # paths give the same bytes, both bounds hold
        w0 = [F(a) - 2 * F(b) + F(c) for a, b, c in zip(u0[2:], u0[1:-1], u0[:-2])]
        half_lam = got.dt / config.dx**2 * 0.5
        paths = [(_reference_heat(parse_phi(phi), params, float(T), config),
                  29 * n * top / 2**53, 29 * n * cone / 2**53)]
        for s, excess in ((params.sigma_lo, max(w0)), (params.sigma_hi, -min(w0))):
            linear = u0.copy()
            if s:
                _linear_steps(linear, n, half_lam * s**2)
            bound = ((_linear_bound(len(u0), top) if s else 0)
                     + n * (p_hi - p_lo) * max(excess, 0))
            paths.append((linear, bound, bound))
        taken = [bounds for values, *bounds in paths if values.tobytes() == got.values.tobytes()]
        assert taken
        everywhere, at_zero = (min(b) for b in zip(*taken))
        assert error <= everywhere and abs(F(got.value_at(0.0)) - want[mid]) <= at_zero
        # a closed form is taken only within the stepping loop's bound at x = 0
        assert at_zero <= 29 * n * cone / 2**53

    def test_concave_data_at_zero_sigma_lo_come_back_exactly(self):
        # n steps at sigma_lo = 0 are the identity: no transform runs
        assert g_normal_expectation(parse_phi("1-abs(x)"), GParams(0.0, 1.0)) == 1.0


_EXACT_KINKS = st.tuples(st.fractions(-1, 1, max_denominator=4),
                         st.fractions(F(1, 4), 4, max_denominator=4)).flatmap(
    lambda t: st.sampled_from([f"max(1 - abs(x - ({t[0]})), 0)", f"1 - abs(x - ({t[0]}))",
                               f"clamp({t[1]}*x, 0, 1)", f"min(abs(x - ({t[0]})), {t[1]}/2)"]))


class TestExactSchemeOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(phi=st.one_of(_EXACT_KINKS, _phi_texts(_EXACT_OPS, _NUMBERS).map(lambda t: t[0])),
           sig2_hi=st.fractions(F(1, 20), 1, max_denominator=20),
           band=st.fractions(0, 1, max_denominator=4),
           dx=st.fractions(F(1, 20), F(1, 4), max_denominator=40),
           steps=st.integers(1, 30))
    # 100 steps against a half-width of 160 cells
    @example(phi="min(abs(x-1/3),1/2)", sig2_hi=F(1), band=F(1, 4), dx=F(1, 20), steps=100)
    def test_solver_is_the_exact_dp_up_to_rounding(self, phi, sig2_hi, band, dx, steps):
        # fewer steps than half-width cells: u(T, 0) never reads the boundary, and
        # one step is the robust DP step over the laws (p, 1 - 2p, p) on {-dx, 0, dx}
        phi = parse_phi(phi)
        sig2 = (band * sig2_hi, sig2_hi)
        T = steps * F(str(CFL)) * dx * dx / sig2_hi
        params = GParams(math.sqrt(sig2[0]), math.sqrt(sig2[1]))
        config = GridConfig(dx=float(dx))
        got = solve_g_heat(phi, params, T=float(T), config=config)
        u0 = solve_g_heat(phi, params, T=0.0, config=config).values
        # rounding may add a step to the solver's count
        n, mid = round(float(T) / got.dt), len(u0) // 2
        assert steps <= n < mid
        laws = [DiscreteDistribution([-dx, 0, dx], [p, 1 - 2 * p, p])
                for p in (T / n / (2 * dx * dx) * s for s in sig2)]
        want = sublinear_eval_sum(StepSequence.iid(AmbiguitySet(laws), n, NumericMode.EXACT), phi)
        # solve_g_heat's rounding bounds: over the cone of points that reach
        # x = 0 for a split band, over the whole grid for the closed form
        cone = range(mid - n, mid + n + 1)
        start_error = max(abs(F(u0[j]) - phi((j - mid) * dx)) for j in cone)
        if band == 1:
            bound = _linear_bound(len(u0), max(abs(F(x)) for x in u0.tolist()))
        else:
            bound = 29 * n * max(abs(F(u0[j])) for j in cone) / 2**53
        assert abs(F(got.value_at(0.0)) - want) <= start_error + bound


class TestTimeArgument:
    @pytest.mark.parametrize("T", [-0.5, math.nan], ids=["negative", "nan"])
    def test_refused_before_phi_is_evaluated(self, T):
        def phi(x):
            raise AssertionError("phi evaluated for an invalid T")

        with pytest.raises(ModelError, match="T >= 0"):
            solve_g_heat(phi, GParams(0.5, 1.0), T=T, config=GridConfig(dx=0.1))


class TestWorkCap:
    @pytest.mark.parametrize("params,T,config", [
        (GParams(1.0, 1.0), 1.0, GridConfig(dx=1e-5)),
        (GParams(0.5, 1.0), 1.0, GridConfig(dx=1e-4)),
        (GParams(0.5, 1.0), 1.0, GridConfig(dx=5e-324)),  # L/dx is inf
        (GParams(0.0, 0.0), 1.0, GridConfig(dx=1e-9)),  # no steps, still too many points
        (GParams(0.5, 1.0), 0.0, GridConfig(dx=1e-9)),
        (GParams(0.0, 1e6), 1.0, GridConfig()),  # the default domain grows with sigma_hi
    ], ids=["small-dx", "split-band", "infinite-domain", "degenerate-band", "T0", "huge-sigma"])
    def test_refused_before_the_grid_is_built(self, params, T, config):
        def phi(x):
            raise AssertionError("phi evaluated on a grid past the cap")

        with pytest.raises(ModelTooLarge, match="point-steps"):
            solve_g_heat(phi, params, T=T, config=config)

    @pytest.mark.parametrize("params,T", [
        (GParams(0.0, 0.0), 1.0),
        (GParams(0.5, 1.0), 0.0),
        (GParams(0.5, 1.0), 1e-9),  # one step
    ], ids=["degenerate-band", "T0", "one-step"])
    def test_points_past_the_array_bound_are_refused_before_phi(self, params, T, monkeypatch):
        # each grid is far below MAX_POINT_STEPS; on the half-width L = 8,
        # dx=0.016 gives 1,001 points and so does dx=16/999, where L/dx = 499.5
        # rounds to 500 though 2 L/dx + 1 is 1,000; dx=8/499 gives 999
        monkeypatch.setattr("sublin.gheat.MAX_WINDOW_STATES", 1000)

        def phi(x):
            raise AssertionError("phi evaluated on a grid past the bound")

        for dx in (0.016, 16 / 999):
            with pytest.raises(ModelTooLarge, match="1001 points exceeds the bound of 1000"):
                solve_g_heat(phi, params, T=T, config=GridConfig(dx=dx))
        grid = solve_g_heat(lambda x: 0 * x, params, T=T, config=GridConfig(dx=8 / 499))
        assert len(grid.xs) == 999


class TestOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma_lo", [0.0, 0.5], ids=["zero", "split"])
    def test_overflow_is_a_numerical_failure(self, sigma_lo):
        # 1.7e308 next to 0, mixed data that step: the first second difference
        # overflows to inf, then inf - inf (and 0 * inf when sigma_lo = 0)
        phi = parse_phi(f"{17 * 10**307}*min(abs(x),1)")
        with pytest.raises(NumericalFailure, match="non-finite values during time stepping"):
            solve_g_heat(phi, GParams(sigma_lo, 1.0), T=1.0, config=GridConfig(dx=0.5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_solve_near_the_float_limit_is_the_exact_scheme(self):
        # the same data at sigma = 1: the closed form works on the grid over
        # a power of two, so its sine sums stay finite (T = 1 is 10 steps)
        _assert_within_the_bound_of_the_exact_scheme(f"{17 * 10**307}*min(abs(x),1)",
                                                     F(1), F(1, 2), 10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi,stepped", [
        (f"-{10**306}*abs(x)", -3.989377922262877e305),
        (f"{10**305}*x*x", 9.999999999969356e304),
    ], ids=["concave", "convex"])
    def test_split_solve_of_large_curved_data(self, phi, stepped):
        # the stepping loop's values, which the closed form at sigma_lo
        # (concave) or sigma_hi (convex) replaces; both are within 29 n U eps
        # of the exact split scheme, for U the largest |u(0, x)|; U is scaled
        # by eps first, since n * U alone passes the float limit
        config = GridConfig(dx=0.005)
        u0 = solve_g_heat(parse_phi(phi), GParams(0.5, 1.0), T=0.0, config=config).values
        grid = solve_g_heat(parse_phi(phi), GParams(0.5, 1.0), config=config)
        n = round(1 / grid.dt)
        bound = 2 * 29 * n * (float(np.max(np.abs(u0))) * 2.0**-53)
        assert np.isfinite(bound)
        assert abs(grid.value_at(0.0) - stepped) <= bound


def test_value_off_the_grid_refused():
    grid = solve_g_heat(parse_phi("x"), GParams(1.0, 1.0), T=0.0, config=GridConfig(dx=1.0))
    assert (grid.xs[0], grid.xs[-1]) == (-8.0, 8.0)
    with pytest.raises(ModelError, match=r"^x=8\.5 outside the grid domain$"):
        grid.value_at(8.5)
