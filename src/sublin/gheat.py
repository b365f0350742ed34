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


@dataclass(frozen=True)
class GParams:
    """Volatility band (sigma_lo, sigma_hi) of N(0, [lo^2, hi^2])."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        # sigma_hi**2 sets the time step, so it must be a finite float
        try:
            finite_square = math.isfinite(self.sigma_hi * self.sigma_hi)
        except OverflowError:  # an int square past the float range
            finite_square = False
        if not (0 <= self.sigma_lo <= self.sigma_hi and finite_square):
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
    sigma_hi (the classical heat equation) 2 G(d2) is the one product
    sigma^2 d2, with the same bits.
    The grid has 2 round(L/dx) + 1 points, L = default_domain(params), and
    the time step is dt <= CFL dx^2 / sigma_hi^2.
    Raises ModelError unless T >= 0 or when the solve would step (T > 0
    and sigma_hi > 0) on a grid with no interior point (round(L/dx) < 1),
    and ModelTooLarge, before phi is called or any grid is built, when
    points x max(steps, 1) exceeds MAX_POINT_STEPS, the time budget, or the
    points alone exceed MAX_WINDOW_STATES, which bounds the grid's arrays
    (a grid that never steps, when T == 0 or sigma_hi == 0, included).

    Rounding: with p_s = dt / (2 dx^2) * s^2 <= CFL / 2 = 0.2, a step sets u_j to
    the max over s in {sigma_lo, sigma_hi} of p_s u_{j-1} + (1 - 2 p_s) u_j
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
    # max(sig2_hi*d2, sig2_lo*d2) (sig2_hi*d2 when linear) is the value of
    # sig2_hi*max(d2,0) + sig2_lo*min(d2,0), whose steps leave no -0.0 in u
    # (x + y is -0.0 only when x and y are); a zero's sign then changes no
    # mid + addend, so one add of 0.0 here gives the split form's bits
    u += 0.0
    left, mid, right = u[:-2], u[1:-1], u[2:]
    linear = sig2_lo == sig2_hi
    d2, up = np.empty_like(mid), np.empty_like(mid)
    # overflow to inf, inf - inf and 0 * inf are left to the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            np.multiply(2.0, mid, out=d2)
            np.subtract(right, d2, out=d2)
            np.add(d2, left, out=d2)
            np.multiply(sig2_hi, d2, out=up)
            if not linear:
                np.multiply(sig2_lo, d2, out=d2)
                np.maximum(up, d2, out=up)
            np.multiply(half_lam, up, out=up)
            np.add(mid, up, out=mid)
    if not np.all(np.isfinite(u)):
        raise NumericalFailure("non-finite values during time stepping")
    return GridFunction(xs, u, T, dt=dt)


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
    for Lipschitz phi.
    """
    if sigma < 0:
        raise ModelError("sigma must be >= 0")
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
