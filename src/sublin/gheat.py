"""G-normal expectations via a monotone explicit scheme for the G-heat
equation, plus an independent Gaussian quadrature oracle for the
classical (sigma_lo == sigma_hi) limit.

The scheme

    u_{m+1,j} = u_{m,j} + dt * G((u_{m,j+1} - 2 u_{m,j} + u_{m,j-1}) / dx^2)

is monotone when ``dt <= CFL * dx^2 / sigma_hi^2`` with ``CFL <= 1`` and
therefore converges to the viscosity solution.  The solver steps at the fixed
CFL number 0.4 on the grid from -L to L, L = ``default_domain(params)``, so
dx is its one setting.  The equation is translation-invariant: u(T, x) for x
past L is u(T, 0) from the initial data phi(. + x).  The boundary
forces the second difference to zero at +-L (linear extrapolation), which
is the right condition for Lipschitz, asymptotically affine initial data.

When sigma_lo == sigma_hi the scheme is one constant tridiagonal map with
fixed ends, and its n steps are taken at once in closed form: the line
through the two end values is a fixed point, and the deviation from it is
diagonal in the discrete sine basis, where n steps multiply mode k by
mu_k**n.  A DST-I each way, a real FFT of the odd extension, costs
O(P log P) on P grid points, where stepping costs n P.  Its rounding bound
reads the whole grid (see ``solve_g_heat``).

When sigma_lo < sigma_hi the n steps of concave data are within a bound of n
linear steps at sigma_lo, and those of convex data of n at sigma_hi (the
G-normal law's classical values for such phi).  The solver takes that
closed form when the bound, with the closed form's own, is within the
stepping loop's rounding bound, and steps mixed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import MAX_WINDOW_STATES, ModelError, ModelTooLarge, NumericalFailure
from .phi import evaluate_array

# grid points x time steps of one solve, its time budget: 3x the largest
# shipped solve (3,201 points x 100,000 steps at dx=0.005)
MAX_POINT_STEPS = 10**9

# the CFL number of every time step, dt = CFL * dx^2 / sigma_hi^2; the
# scheme is monotone for CFL <= 1
CFL = 0.4


def _finite_square(sigma: float) -> bool:
    """Whether sigma**2 is a finite float."""
    try:
        return math.isfinite(sigma * sigma)
    except OverflowError:  # an int square past the float range
        return False


@dataclass(frozen=True)
class GParams:
    """Volatility band (sigma_lo, sigma_hi) of N(0, [lo^2, hi^2])."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        # sigma_hi**2 sets the time step, so it must be a finite float
        if not (0 <= self.sigma_lo <= self.sigma_hi and _finite_square(self.sigma_hi)):
            raise ModelError(
                f"need 0 <= sigma_lo <= sigma_hi with a finite sigma_hi**2, got "
                f"({self.sigma_lo}, {self.sigma_hi})"
            )


@dataclass(frozen=True)
class GridConfig:
    """The G-heat grid's spacing dx, its one accuracy setting."""

    dx: float = 0.01

    def __post_init__(self):
        # dx*dx sets the time step, so its square must be a finite float too
        if not (self.dx > 0 and math.isfinite(self.dx * self.dx)):
            raise ModelError(f"need dx > 0 with a finite square, got {self.dx}")


@dataclass(frozen=True)
class GridFunction:
    """Final-time slice of the solved grid function."""

    xs: np.ndarray
    values: np.ndarray
    t: float
    dt: float

    def value_at(self, x: float) -> float:
        if not (self.xs[0] <= x <= self.xs[-1]):
            raise ModelError(f"x={x} outside the grid domain")
        return float(np.interp(x, self.xs, self.values))


def default_domain(params: GParams) -> float:
    """The G-heat grid's half-width L."""
    return 8.0 * max(params.sigma_hi, 1.0)


def solve_g_heat(
    phi: Callable,
    params: GParams,
    T: float = 1.0,
    config: GridConfig = GridConfig(),
) -> GridFunction:
    """Evolve the G-heat equation from initial data phi up to time T.

    The end points +-L stay fixed, since their second difference is zero;
    the interior is stepped in place by dt / (2 dx^2) * 2 G(d2), with
    2 G(d2) = max(sigma_hi^2 d2, sigma_lo^2 d2), since sigma_hi^2 >=
    sigma_lo^2 >= 0 and rounding is monotone.  Every zero of the grid is
    made +0.0 once, before the first step, so the bits are those of
    sigma_hi^2 d2+ - sigma_lo^2 d2-.  In the linear case sigma_lo ==
    sigma_hi (the classical heat equation) the n steps u_j += p (u_{j+1} -
    2 u_j + u_{j-1}), p = dt sigma^2 / (2 dx^2), are solved in closed form:
    subtract the line through the two ends, apply a DST-I to the m = P - 2
    interior deviations, multiply mode k by mu_k**n = exp(n log1p(-4 p
    sin^2(k pi / (2 (m + 1))))), transform back, scale by 2 / (m + 1) and
    add the line back.  So are a split band's steps on concave data, at
    p = p_lo, or convex data, at p = p_hi, up to a bound (below).
    The grid has P = 2 round(L/dx) + 1 points, L = default_domain(params), and
    the time step is dt <= CFL dx^2 / sigma_hi^2.
    Raises ModelError unless T >= 0 or when the solve would step (T > 0
    and sigma_hi > 0) on a grid with no interior point (round(L/dx) < 1),
    and ModelTooLarge, before phi is called or any grid is built, when
    points x max(steps, 1) exceeds MAX_POINT_STEPS, the time budget, or the
    points alone exceed MAX_WINDOW_STATES, which bounds the grid's arrays
    (a grid that never steps, when T == 0 or sigma_hi == 0, included).
    Raises NumericalFailure when a value comes out non-finite, which can
    happen once |u| passes about 4e307, where the split step's sums may
    leave the float range.  The closed form works on u over a power of two
    where its sine sums, below 4 P^2 max|u|, could pass that range, so it
    stays finite on finite data below about 1e308.

    Rounding when sigma_lo < sigma_hi: with p_s = dt / (2 dx^2) * s^2 <=
    CFL / 2 = 0.2, a step sets u_j to the max over s in {sigma_lo,
    sigma_hi} of p_s u_{j-1} + (1 - 2 p_s) u_j
    + p_s u_{j+1}: one step of the robust DP over the laws (p_s, 1 - 2 p_s,
    p_s) on {-dx, 0, dx}.  While the n steps are fewer than round(L/dx),
    u(T, 0) reads no boundary point, so the exact DP gives the scheme's
    exact value there.  The step is monotone and its weights sum to 1, so
    it passes on inherited errors without growing them, and each step adds
    at most 29 U eps to first order, for eps = 2**-53 and U the largest
    |u(0, x)| at the 2n + 1 grid points nearest x = 0: 3.5 U eps from the
    second difference d2 (7 U eps, weighed by p_s <= 1/2); 24 U eps from
    the relative error of p_s d2, |d2| <= 4 U, which is at most 12 eps: 6
    from dt / dx^2 when T and dx are rationals rounded to floats, 4 from
    sigma^2 when sigma is the float root of a rounded rational, 2 from the
    two products; and U eps from the final add.  So ``value_at(0)`` is
    within 29 n U eps of the exact DP from the same float initial data,
    and within that plus the initial data's own error of the exact DP from
    phi itself.

    Convex or concave data when sigma_lo < sigma_hi: the interior second
    differences w evolve by a monotone scheme, since p_hi <= 0.2, whose
    boundary values are 0, since the ends are fixed; so max(w, 0) and
    max(-w, 0) never grow.  A split step differs from a linear step at p_lo
    by (p_hi - p_lo) max(w, 0) at each point, and from one at p_hi by (p_hi
    - p_lo) max(-w, 0), and a linear step does not grow a difference.  So
    in exact arithmetic n split steps are within n (p_hi - p_lo) max(w0, 0)
    of n linear steps at p_lo, and within n (p_hi - p_lo) max(-w0, 0) of n
    at p_hi, w0 being the first second differences.  The solver computes w0
    once, by the first step's operations, so within 7 U eps for U the
    largest |u(0, x)| over the grid, and takes the closed form at p_lo when
    B + n (p_hi - p_lo) (max(w0, 0) + 7 U eps) <= 29 n U_c eps, for B the
    closed form's bound below (0 when p_lo = 0, where the n steps are the
    identity and no transform runs) and U_c the U of the stepped bound;
    else at p_hi by the same test with max(-w0, 0); else it steps.  So
    ``value_at(0)`` keeps the stepped bound on every path.  A w0 or a bound
    that is not finite fails the test.  Short horizons on wide grids step,
    because the stepped bound, over 2n + 1 points, is the tighter one.

    Rounding when sigma_lo == sigma_hi: the closed form reads every grid
    point, so U is the largest |u(0, x)| over the whole grid of P points.
    To first order every grid value is within (32 log2(2P) + 64) sqrt(P)
    (U eps + eta), eta = 2**-1074, of the exact scheme (the same n steps
    with fixed ends and exact p, from the same float initial data).  The
    line errs by 3 U eps and the deviations by 2 U eps more, which the
    exact map passes on without growing them (its weights are >= 0 and sum
    to at most 1); the line again, the scale 2 / (m + 1) on values up to
    2 U and the final add cost 8 U eps.  Each mu_k**n is within 24 eps of
    the exact one, since n (1 - mu) mu**(n - 1) <= 1 for mu in [0.2, 1]: 21
    eps from the relative error of 4 p sin^2 (6 from dt / dx^2 and 4 from
    sigma^2 as above, 9 from sin^2, 2 from the products) and 3 from log1p,
    the product with n and exp, each within an ulp.  With an FFT whose
    2-norm relative error is at most 8 log2(2P) eps (about 7 log2 for a
    radix-2 FFT, Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 24.2; numpy's measures under 1.5 log2 at these lengths), the two
    transforms and the product with mu_k**n err by at most (16 log2(2P) +
    25) eps |u - line|_2 <= (16 log2(2P) + 25) eps 2 sqrt(P) U in 2-norm,
    and so in every value.  A rounding that underflows errs by eta / 2
    absolutely, in place of a relative eps; the term in eta allows for that
    at the same count.  The scaling by 2**-s for large |u| is exact but for
    values below 2**(s - 1022), whose error, under 2**s eta, is far below U
    eps once s > 0.  Measured errors are far smaller: under 7 (U eps + eta)
    on grids of up to 3,201 points.  The bound holds as well at p_lo or p_hi
    when the split scheme takes the closed form.
    """
    if not T >= 0:  # also catches nan
        raise ModelError(f"need T >= 0, got {T}")
    L = default_domain(params)
    sig2_hi = params.sigma_hi**2
    sig2_lo = params.sigma_lo**2

    degenerate = T == 0 or sig2_hi == 0  # G == 0, identity evolution
    half = L / config.dx
    points = 2 * half + 1
    steps = 0.0
    if not degenerate:
        dt = CFL * config.dx**2 / sig2_hi
        steps = T / dt if dt else math.inf
    # "not <=" also catches inf and nan
    if not points * max(steps, 1.0) <= MAX_POINT_STEPS:
        raise ModelTooLarge(
            f"G-heat solve of {points:.3g} points x {max(steps, 1.0):.3g} steps exceeds "
            f"the cap of {MAX_POINT_STEPS:.0e} point-steps; use a larger dx"
        )
    n_half = int(round(half))
    if 2 * n_half + 1 > MAX_WINDOW_STATES:
        raise ModelTooLarge(
            f"G-heat grid of {2 * n_half + 1} points exceeds the bound of {MAX_WINDOW_STATES} "
            "points; use a larger dx"
        )
    if not degenerate and n_half < 1:
        raise ModelError(f"a G-heat grid of half-width {L} at dx={config.dx} has no interior "
                         "point to step; use a smaller dx")
    xs = np.arange(-n_half, n_half + 1) * config.dx
    u = evaluate_array(phi, xs)
    if degenerate:
        return GridFunction(xs, u, T, dt=0.0)

    n_steps = max(1, int(math.ceil(steps)))
    dt = T / n_steps
    lam = dt / config.dx**2
    half_lam = lam * 0.5
    # max(sig2_hi*d2, sig2_lo*d2) is the value of sig2_hi*max(d2,0) +
    # sig2_lo*min(d2,0), whose steps leave no -0.0 in u (x + y is -0.0 only
    # when x and y are); a zero's sign then changes no mid + addend, so one
    # add of 0.0 here gives the split form's bits
    u += 0.0
    # overflow to inf, inf - inf and 0 * inf are left to the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        if sig2_lo == sig2_hi:
            _linear_steps(u, n_steps, half_lam * sig2_hi)
        elif not _split_in_closed_form(u, n_steps, half_lam * sig2_lo, half_lam * sig2_hi,
                                       n_half):
            left, mid, right = u[:-2], u[1:-1], u[2:]
            d2, up = np.empty_like(mid), np.empty_like(mid)
            # 0-d arrays, made once: no step converts a Python float
            hi, lo, h = np.array(sig2_hi), np.array(sig2_lo), np.array(half_lam)
            for _ in range(n_steps):
                np.add(mid, mid, out=d2)
                np.subtract(right, d2, out=d2)
                np.add(d2, left, out=d2)
                np.multiply(hi, d2, out=up)
                np.multiply(lo, d2, out=d2)
                np.maximum(up, d2, out=up)
                np.multiply(h, up, out=up)
                np.add(mid, up, out=mid)
    if not np.all(np.isfinite(u)):
        raise NumericalFailure("non-finite values during time stepping")
    return GridFunction(xs, u, T, dt=dt)


def _split_in_closed_form(u: np.ndarray, n: int, p_lo: float, p_hi: float, n_half: int) -> bool:
    """Take the n split steps of u in place as n linear steps at p_lo or
    p_hi when their bound is within the split scheme's own, 29 n eps times
    the largest |u| at the 2n + 1 points nearest x = 0; return whether it
    did (see ``solve_g_heat``)."""
    eps, eta = 2.0**-53, 2.0**-1074
    # the first step's d2, by the same operations
    w0 = (u[2:] - 2 * u[1:-1]) + u[:-2]
    size = np.abs(u)
    u_eps = float(np.max(size)) * eps
    budget = 29 * n * (float(np.max(size[max(n_half - n, 0):n_half + n + 1])) * eps)
    P = len(u)
    for p, excess in ((p_lo, np.max(w0)), (p_hi, -np.min(w0))):
        # n steps at p = 0 are the identity, with no transform to round
        linear = (32 * math.log2(2 * P) + 64) * math.sqrt(P) * (u_eps + eta) if p else 0.0
        bound = linear + n * (p_hi - p_lo) * (float(np.maximum(excess, 0.0)) + 7 * u_eps)
        if math.isfinite(bound) and bound <= budget:
            if p:
                _linear_steps(u, n, p)
            return True
    return False


def _dst1(v: np.ndarray) -> np.ndarray:
    """The DST-I of v, sum_j v_j sin(j k pi / (m + 1)) for k = 1..m, as one
    real FFT of its odd extension (0, v, 0, -reversed v)."""
    m = len(v)
    z = np.zeros(2 * (m + 1))
    z[1:m + 1] = v
    z[m + 2:] = -v[::-1]
    return -0.5 * np.fft.rfft(z).imag[1:m + 1]


def _linear_steps(u: np.ndarray, n: int, p: float) -> None:
    """n steps of u_j += p (u_{j+1} - 2 u_j + u_{j-1}) on u's interior, its
    ends fixed, in place and in closed form (see ``solve_g_heat``)."""
    m = len(u) - 2
    k = np.arange(1, m + 1)
    # the transforms' sums stay below 4 m^2 max|u|: where that could pass the
    # float range, work on u / 2**s, which is exact barring underflow
    s = max(0, math.frexp(float(np.max(np.abs(u))))[1] + 2 * m.bit_length() - 1019)
    v = np.ldexp(u, -s)
    # a weighted mean of the ends, which overflows only where they do
    line = v[0] * ((m + 1 - k) / (m + 1)) + v[-1] * (k / (m + 1))
    # mu_k**n as exp(n log mu_k), so that mu_k's rounding does not grow n-fold
    decay = np.exp(n * np.log1p(-4 * p * np.sin(k * (math.pi / (2 * (m + 1)))) ** 2))
    w = _dst1(_dst1(v[1:-1] - line) * decay) * (2 / (m + 1)) + line
    u[1:-1] = np.ldexp(w, s)


def g_normal_expectation(
    phi: Callable, params: GParams, config: GridConfig = GridConfig()
) -> float:
    """Upper expectation of phi(xi) for xi ~ N(0, [lo^2, hi^2]): u(1, 0)."""
    grid = solve_g_heat(phi, params, T=1.0, config=config)
    return grid.value_at(0.0)


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_quadrature(phi: Callable, sigma: float) -> float:
    """Classical E[phi(sigma Z)], Z standard normal; the PDE oracle.

    Adaptive quadrature over z in [-10, 10]; accurate to well below 1e-10
    for Lipschitz phi.  Raises ModelError unless sigma >= 0 and sigma**2
    is a finite float, as GParams requires of sigma_hi.
    """
    if not (sigma >= 0 and _finite_square(sigma)):  # "not >=" also catches nan
        raise ModelError(f"need sigma >= 0 with a finite sigma**2, got {sigma}")
    if sigma == 0:
        return float(phi(0.0))
    value, _ = integrate.quad(
        lambda z: phi(sigma * z) * _INV_SQRT_2PI * math.exp(-0.5 * z * z),
        -10.0,
        10.0,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return value
