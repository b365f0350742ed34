"""Robust law of large numbers and central limit behavior by dynamic program.

The backward recursion evaluates E[phi(S_n / n)] (or / sqrt(n)) exactly over
all history-dependent measure selections.  For a Bernoulli band the running
average concentrates on the mean interval [mu_lo, mu_bar]; for a centered
two-variance model the normalized sum approaches the G-normal distribution
computed by the nonlinear heat equation.
"""

from sublin import (
    AmbiguitySet,
    GridConfig,
    bernoulli,
    clt_experiment,
    lln_experiment,
    parse_phi,
    rademacher,
)


def main():
    band = AmbiguitySet([bernoulli(0.4), bernoulli(0.6)], "bernoulli-band")
    hat = parse_phi("max(1-abs(x-1/2),0)")

    print("LLN: E[phi(S_n/n)] for phi a hat centered at 1/2")
    table = lln_experiment(band, hat, [16, 64, 256, 1024])
    for row in table:
        print(f"  n={row.n:5d} value={row.value:.6f} limit={row.prediction:.6f}")

    print()
    print("CLT: E[phi(S_n/sqrt(n))] against the G-heat PDE, sigma in {0.5, 1}")
    steps = AmbiguitySet([rademacher(0.5), rademacher(1.0)])
    table = clt_experiment(
        steps, parse_phi("max(1-abs(x),0)"), [25, 100, 400],
        grid=GridConfig(dx=0.02),
    )
    for row in table:
        print(f"  n={row.n:5d} value={row.value:.6f} pde={row.prediction:.6f} "
              f"gap={row.gap:+.6f}")


if __name__ == "__main__":
    main()
