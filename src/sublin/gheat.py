"""G-normal expectations via a monotone explicit scheme for the G-heat
equation, plus an independent Gaussian quadrature oracle for the
classical (sigma_lo == sigma_hi) limit.

The scheme

    u_{m+1,j} = u_{m,j} + dt * G((u_{m,j+1} - 2 u_{m,j} + u_{m,j-1}) / dx^2)

is monotone when ``dt <= cfl * dx^2 / sigma_hi^2`` with ``cfl <= 1`` and
therefore converges to the viscosity solution.  The boundary forces the
second difference to zero at +-L (linear extrapolation), which is the
right condition for Lipschitz, asymptotically affine initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .errors import ModelError, ModelTooLarge, NumericalFailure
from .phi import evaluate_array

# grid points x time steps of one solve: 3x the largest shipped solve
# (3,201 points x 100,000 steps at dx=0.005)
MAX_POINT_STEPS = 10**9


@dataclass(frozen=True)
class GParams:
    """Volatility band (sigma_lo, sigma_hi) of N(0, [lo^2, hi^2])."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        if not (0 <= self.sigma_lo <= self.sigma_hi < math.inf):
            raise ModelError(
                f"need 0 <= sigma_lo <= sigma_hi < inf, got "
                f"({self.sigma_lo}, {self.sigma_hi})"
            )


@dataclass(frozen=True)
class GridConfig:
    dx: float = 0.01
    cfl: float = 0.4
    domain: Optional[float] = None  # half-width L; default set from params

    def __post_init__(self):
        # dx*dx sets the time step, so its square must be a finite float too
        if not (self.dx > 0 and math.isfinite(self.dx * self.dx)):
            raise ModelError(f"need dx > 0 with a finite square, got {self.dx}")
        if self.domain is not None and not self.domain >= 0:
            raise ModelError(f"domain must be >= 0, got {self.domain}")
        if not 0 < self.cfl <= 1:
            raise ModelError(f"cfl must be in (0, 1], got {self.cfl}")


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
    return 8.0 * max(params.sigma_hi, 1.0)


def solve_g_heat(
    phi: Callable,
    params: GParams,
    T: float = 1.0,
    config: GridConfig = GridConfig(),
) -> GridFunction:
    """Evolve the G-heat equation from initial data phi up to time T.

    The end points +-L stay fixed, since their second difference is zero;
    the interior is stepped in place.  In the linear case sigma_lo ==
    sigma_hi (the classical heat equation) a step multiplies the second
    difference by sigma^2 instead of splitting it at 0, with the same bits.
    Raises ModelError unless T >= 0 or when the solve would step (T > 0
    and sigma_hi > 0) on a grid with no interior point (round(L/dx) < 1),
    and ModelTooLarge, before any grid is built, when points x max(steps, 1)
    exceeds MAX_POINT_STEPS.
    """
    if not T >= 0:  # also catches nan
        raise ModelError(f"need T >= 0, got {T}")
    L = config.domain if config.domain is not None else default_domain(params)
    sig2_hi = params.sigma_hi**2
    sig2_lo = params.sigma_lo**2

    degenerate = T == 0 or sig2_hi == 0  # G == 0, identity evolution
    half = L / config.dx
    points = 2 * half + 1
    steps = 0.0
    if not degenerate:
        dt = config.cfl * config.dx**2 / sig2_hi
        steps = T / dt if dt else math.inf
    # "not <=" also catches inf and nan
    if not points * max(steps, 1.0) <= MAX_POINT_STEPS:
        raise ModelTooLarge(
            f"G-heat solve of {points:.3g} points x {max(steps, 1.0):.3g} steps exceeds "
            f"the cap of {MAX_POINT_STEPS:.0e} point-steps; use a larger dx or a smaller domain"
        )
    n_half = int(round(half))
    if not degenerate and n_half < 1:
        raise ModelError(f"a G-heat grid of half-width {L} at dx={config.dx} has no interior "
                         "point to step; use a smaller dx or a larger domain")
    xs = np.arange(-n_half, n_half + 1) * config.dx
    u = evaluate_array(phi, xs)
    if degenerate:
        return GridFunction(xs, u, T, dt=0.0)

    n_steps = max(1, int(math.ceil(steps)))
    dt = T / n_steps
    lam = dt / config.dx**2
    half_lam = lam * 0.5
    # u at the ends moves by G(0) * dt == +0.0, which only turns -0.0 into +0.0
    u[[0, -1]] += 0.0
    left, mid, right = u[:-2], u[1:-1], u[2:]
    # with sig2_lo == sig2_hi, sig2*max(d2,0) + sig2*min(d2,0) is
    # sig2*d2 + 0.0 (one term is +0.0, and adding it turns only -0.0 into
    # +0.0), except at d2 == -0.0; that needs mid == +0.0, which stays +0.0
    linear = sig2_lo == sig2_hi
    d2, up, down = np.empty_like(mid), np.empty_like(mid), np.empty_like(mid)
    # overflow to inf and inf - inf are left to the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            np.multiply(2.0, mid, out=d2)
            np.subtract(right, d2, out=d2)
            np.add(d2, left, out=d2)
            if linear:
                np.multiply(sig2_hi, d2, out=up)
                np.add(up, 0.0, out=up)
            else:
                np.maximum(d2, 0.0, out=up)
                np.multiply(sig2_hi, up, out=up)
                np.minimum(d2, 0.0, out=down)
                np.multiply(sig2_lo, down, out=down)
                np.add(up, down, out=up)
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
