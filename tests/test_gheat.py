import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublin import (
    GParams,
    GridConfig,
    ModelError,
    ModelTooLarge,
    NumericalFailure,
    g_normal_expectation,
    gaussian_quadrature,
    parse_phi,
    solve_g_heat,
)
from sublin.gheat import default_domain
from sublin.phi import evaluate_array

COARSE = GridConfig(dx=0.05, cfl=0.4)


class TestGFunction:
    def test_validation(self):
        with pytest.raises(ModelError):
            GParams(1.0, 0.5)
        with pytest.raises(ModelError):
            GParams(-0.1, 1.0)
        with pytest.raises(ModelError):
            GParams(0.0, math.inf)


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
        # is refused, a degenerate one still returns phi
        phi = lambda x: 1 - abs(x)
        for config in (GridConfig(dx=100.0), GridConfig(domain=0.0), GridConfig(domain=0.005)):
            with pytest.raises(ModelError, match="no interior point"):
                solve_g_heat(phi, GParams(0.5, 1.0), config=config)
            assert solve_g_heat(phi, GParams(0.0, 0.0), config=config).values.tolist() == [1]
            assert solve_g_heat(phi, GParams(0.5, 1.0), T=0.0, config=config).values.tolist() == [1]
        # round(L/dx) = 1: one interior point, stepped
        grid = solve_g_heat(phi, GParams(0.5, 1.0), config=GridConfig(domain=0.01))
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

    def test_cfl_validation(self):
        with pytest.raises(ModelError):
            GridConfig(dx=0.05, cfl=1.5)
        with pytest.raises(ModelError):
            GridConfig(dx=0.0)
        with pytest.raises(ModelError):
            GridConfig(dx=math.nan)
        for dx in (math.inf, 1e300):
            with pytest.raises(ModelError):
                GridConfig(dx=dx)
        with pytest.raises(ModelError):
            GridConfig(domain=-1.0)


def _reference_heat(phi, params, T, config):
    """The scheme as one allocating full-array update per step: the
    reference that solve_g_heat's in-place stepping must match byte for
    byte (same operations in the same order)."""
    L = config.domain if config.domain is not None else default_domain(params)
    n_half = int(round(L / config.dx))
    xs = np.arange(-n_half, n_half + 1) * config.dx
    u = evaluate_array(phi, xs)
    sig2_hi = params.sigma_hi**2
    sig2_lo = params.sigma_lo**2
    if T == 0 or sig2_hi == 0:
        return u
    dt = config.cfl * config.dx**2 / sig2_hi
    n_steps = max(1, int(math.ceil(T / dt)))
    dt = T / n_steps
    lam = dt / config.dx**2
    for _ in range(n_steps):
        d2 = np.empty_like(u)
        d2[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        d2[0] = 0.0
        d2[-1] = 0.0
        u = u + lam * 0.5 * (sig2_hi * np.maximum(d2, 0.0) + sig2_lo * np.minimum(d2, 0.0))
    return u


_KINKS = st.integers(-8, 8).map(lambda i: f"{i / 4}")
_HEAT_PHIS = st.one_of(
    _KINKS.map(lambda k: f"max(1 - abs(x - {k}), 0)"),  # hat
    _KINKS.map(lambda k: f"1 - abs(x - {k})"),  # tent
    st.sampled_from(["x*x", "max(x, 0)", "0*x"]),  # 0*x is -0.0 at -L
)


class TestInPlaceStepping:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(phi=_HEAT_PHIS, sigma_hi=st.floats(0.1, 1.0), band=st.sampled_from(["zero", "inside", "equal"]),
           dx=st.floats(0.02, 0.2), cfl=st.floats(0.05, 1.0), T=st.sampled_from([0.0, 0.05, 0.3]),
           domain=st.sampled_from([None, 0.0, 1.0, 3.0]))
    # the linear step: the README gnormal grid, where sigma^2 is exactly 1.0,
    # an all-zero start with -0.0 at every x < 0, and a start of -0.0 between
    # a 0.0 and the least subnormal, where sigma^2 * d2 underflows to -0.0 and
    # only the added 0.0 makes the point +0.0, as the max/min split does
    @example(phi="1-abs(x)", sigma_hi=1.0, band="equal", dx=0.01, cfl=0.4, T=1.0, domain=None)
    @example(phi="0*x", sigma_hi=0.3, band="equal", dx=0.05, cfl=0.4, T=0.3, domain=None)
    @example(phi=f"min(x, 0)*0.{'0' * 323}5", sigma_hi=0.3, band="equal", dx=0.5, cfl=0.4, T=0.05,
             domain=None)
    def test_matches_reference_loop_byte_for_byte(self, phi, sigma_hi, band, dx, cfl, T, domain):
        sigma_lo = {"zero": 0.0, "inside": 0.4 * sigma_hi, "equal": sigma_hi}[band]
        params = GParams(sigma_lo, sigma_hi)
        config = GridConfig(dx=dx, cfl=cfl, domain=domain)
        if domain == 0.0 and T > 0:  # a solve that would step a grid of one point
            with pytest.raises(ModelError, match="no interior point"):
                solve_g_heat(parse_phi(phi), params, T=T, config=config)
            return
        got = solve_g_heat(parse_phi(phi), params, T=T, config=config)
        want = _reference_heat(parse_phi(phi), params, T, config)
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phi", ["max(1 - abs(x), 0)", "0*x", "x*x", "max(x, 0)"])
    def test_linear_step_above_unit_sigma(self, phi):
        params, config = GParams(1.5, 1.5), GridConfig(dx=0.05, domain=4.0)
        got = solve_g_heat(parse_phi(phi), params, T=0.5, config=config)
        want = _reference_heat(parse_phi(phi), params, 0.5, config)
        assert got.values.tobytes() == want.tobytes()


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
        (GParams(0.5, 1.0), 1.0, GridConfig(domain=1e12)),
        (GParams(0.5, 1.0), 1.0, GridConfig(domain=math.inf)),
        (GParams(0.0, 0.0), 1.0, GridConfig(domain=1e12)),  # no steps, still too many points
        (GParams(0.5, 1.0), 0.0, GridConfig(domain=1e12)),
        (GParams(0.0, 1e6), 1.0, GridConfig()),  # the default domain grows with sigma_hi
    ], ids=["small-dx", "huge-domain", "infinite-domain", "degenerate-band", "T0", "huge-sigma"])
    def test_refused_before_the_grid_is_built(self, params, T, config):
        def phi(x):
            raise AssertionError("phi evaluated on a grid past the cap")

        with pytest.raises(ModelTooLarge, match="point-steps"):
            solve_g_heat(phi, params, T=T, config=config)


class TestOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma_lo", [0.5, 1.0], ids=["split", "linear"])
    def test_overflow_is_a_numerical_failure(self, sigma_lo):
        # 1.7e308 next to 0: the first second difference overflows to inf, then inf - inf
        phi = parse_phi(f"{17 * 10**307}*min(abs(x),1)")
        with pytest.raises(NumericalFailure, match="non-finite values during time stepping"):
            solve_g_heat(phi, GParams(sigma_lo, 1.0), T=1.0, config=GridConfig(dx=0.5))
