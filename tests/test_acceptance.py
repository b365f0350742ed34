"""End-to-end acceptance checks.

Each test exercises one headline behavior at a pinned tolerance and prints a
single pass/fail line (run pytest with -s to see them inline).
"""

import contextlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sublin import (
    AmbiguitySet,
    DiscreteDistribution,
    GParams,
    GridConfig,
    NumericMode,
    StepSequence,
    check_peng_independence,
    check_pseudo_independence,
    enlarge_vertices,
    g_normal_expectation,
    gaussian_quadrature,
    load_ambiguity_set,
    lower_probability,
    moment_summary,
    parse_phi,
    prop62_experiment,
    prop63_experiment,
    sublinear_eval_sum,
    upper_expectation,
    upper_probability,
)
from sublin.independence import joint_value, nested_value
from sublin.limits import counterexample_family

from conftest import random_ambiguity_set, random_distribution

F = Fraction
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextlib.contextmanager
def criterion(num, label):
    ok = False
    start = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num} [{label}]: {status} ({elapsed:.2f}s)")


def test_criterion_1_exact_joint_and_enlargement(example36, phi_star):
    with criterion(1, "exact joint/nested values and enlargement"):
        start = time.perf_counter()
        assert joint_value(example36, 2, phi_star) == F(5, 8)
        assert nested_value(example36, 2, phi_star) == F(11, 16)
        big = enlarge_vertices(example36)
        target = (F(1, 8), F(1, 8), F(3, 16), F(9, 16))
        assert target in {tuple(t) for t in big.tables}
        assert joint_value(big, 2, phi_star) == F(11, 16)
        assert check_peng_independence(big, 2, mode="exact").verdict
        assert time.perf_counter() - start < 1.0


def test_criterion_2_pseudo_vs_strict_independence(example36):
    with criterion(2, "pseudo-independent but not independent"):
        assert check_pseudo_independence(example36, 2).verdict
        rep = check_peng_independence(example36, 2, mode="probe")
        assert not rep.verdict
        assert rep.gap == F(1, 16)


def test_criterion_3_lln_convergence(bernoulli_band, bernoulli_band_exact):
    with criterion(3, "LLN convergence on the Bernoulli band"):
        start = time.perf_counter()
        phi = lambda x: max(1.0 - abs(x - 0.5), 0.0)
        values = []
        for n in [2**k for k in range(4, 11)]:
            seq = StepSequence.iid(bernoulli_band, n)
            values.append(sublinear_eval_sum(seq, lambda s, n=n: phi(s / n)))
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) <= 5e-2
        for n in [2**k for k in range(4, 11)]:
            seq = StepSequence.iid(bernoulli_band_exact, n, NumericMode.EXACT)
            assert sublinear_eval_sum(seq, lambda s, n=n: F(s, n)) == F(3, 5)
        assert time.perf_counter() - start < 10.0


def test_criterion_4_clt_cross_oracle(two_variance_rademacher):
    with criterion(4, "CLT value against the PDE and quadrature oracles"):
        start = time.perf_counter()
        phi = lambda x: 1.0 - abs(x)
        n = 400
        root = math.sqrt(n)
        seq = StepSequence.iid(two_variance_rademacher, n)
        dp = sublinear_eval_sum(seq, lambda s: phi(s / root))
        pde = g_normal_expectation(phi, GParams(0.5, 1.0), GridConfig(dx=0.01))
        assert abs(dp - pde) <= 2e-2
        classical_pde = g_normal_expectation(phi, GParams(1.0, 1.0), GridConfig(dx=0.01))
        classical_quad = gaussian_quadrature(phi, 1.0)
        assert abs(classical_pde - classical_quad) <= 1e-3
        assert time.perf_counter() - start < 10.0


def test_criterion_5_lln_counterexample():
    with criterion(5, "LLN failure family value near 1"):
        start = time.perf_counter()
        value, bound = prop62_experiment(100, 20, clamp=2.0)
        assert 0.996 <= value <= 1.0
        assert bound - 1e-12 <= value
        vals = [prop62_experiment(K, 20, clamp=2.0)[0] for K in (10, 30, 100)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert time.perf_counter() - start < 10.0


def test_criterion_6_clt_counterexample():
    with criterion(6, "CLT failure family value near 1"):
        vals = [prop63_experiment(K, 25)[0] for K in (25, 100, 400)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.9
        classical = 1 - math.sqrt(2 / math.pi)
        assert vals[-1] > classical + 0.5
        one_step, _ = prop63_experiment(2, 1, mode=NumericMode.EXACT)
        assert one_step == F(3, 4)


def test_criterion_7_tail_diagnostics():
    with criterion(7, "first-moment tail decays, second-moment tail does not"):
        start = time.perf_counter()
        # K as large as the horizon so the finite family realizes every tail
        K = 10000
        fam = counterexample_family(K)
        seq = StepSequence.iid(fam, 1, NumericMode.EXACT)
        schedule = sorted({10, 16, 100, 400, 2500, 10000} | set(range(10, 101, 10)))
        s = moment_summary(seq, 10000, schedule=schedule)
        tail_abs = dict(s.tail_abs)
        tail_sq = dict(s.tail_sq)
        # n * V(|X| >= n) = 1/n exactly: the first-moment condition holds
        for n, v in s.tail_abs:
            assert v == F(1, n)
        assert s.h1_decaying
        # n * V(X^2 >= n) = 1 exactly at perfect squares and stays order one
        # (suprema per decade in [0.9, 1.1]); the second-moment condition fails
        for n in (16, 100, 400, 2500, 10000):
            assert tail_sq[n] == 1
        for decade in ((10, 100), (100, 1000), (1000, 10000)):
            sup = max(v for n, v in s.tail_sq if decade[0] <= n <= decade[1])
            assert F(9, 10) <= sup <= F(11, 10)
        assert not s.h2_decaying
        assert time.perf_counter() - start < 10.0


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites, zero violations"):
        rng = random.Random(2024)

        # sublinearity (monotonicity, constants, sub-additivity, homogeneity)
        for _ in range(200):
            aset = random_ambiguity_set(rng)
            support = aset.union_support()
            tf = {x: F(rng.randint(-9, 9), rng.randint(1, 5)) for x in support}
            tg = {x: F(rng.randint(-9, 9), rng.randint(1, 5)) for x in support}
            f, g = tf.__getitem__, tg.__getitem__
            Ef = upper_expectation(aset, f).value
            Eg = upper_expectation(aset, g).value
            assert upper_expectation(aset, lambda x: f(x) - abs(g(x))).value <= Ef
            c = F(rng.randint(-5, 5), rng.randint(1, 3))
            assert upper_expectation(aset, lambda x: f(x) + c).value == Ef + c
            assert upper_expectation(aset, lambda x: f(x) + g(x)).value <= Ef + Eg
            lam = F(rng.randint(0, 6), rng.randint(1, 3))
            assert upper_expectation(aset, lambda x: lam * f(x)).value == lam * Ef

        # conjugacy V(A) + v(complement) = 1
        for _ in range(200):
            aset = random_ambiguity_set(rng)
            cut = rng.randint(-3, 3)
            V = upper_probability(aset, lambda x: x >= cut).value
            v = lower_probability(aset, lambda x: x < cut).value
            assert V + v == 1

        # recursion monotonicity and constants
        for _ in range(200):
            steps = tuple(
                random_ambiguity_set(rng, max_members=2, max_atoms=3)
                for _ in range(rng.randint(1, 3))
            )
            seq = StepSequence(steps, NumericMode.EXACT)
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            assert sublinear_eval_sum(seq, lambda s: c) == c
            lo = sublinear_eval_sum(seq, lambda s: min(abs(s), F(1)))
            hi = sublinear_eval_sum(seq, lambda s: min(abs(s), F(2)))
            assert lo <= hi

        # brute-force path enumeration on singleton models, n <= 12
        for _ in range(200):
            d = random_distribution(rng, max_atoms=2, span=2)
            n = rng.randint(1, 12)
            df = DiscreteDistribution(
                [float(x) for x in d.points], [float(w) for w in d.weights]
            )
            seq = StepSequence.iid(AmbiguitySet([df]), n)
            f = lambda s: max(1.0 - abs(s) / n, 0.0)
            got = sublinear_eval_sum(seq, f)
            want = 0.0
            atoms = [(float(x), float(w)) for x, w in d.atoms]
            stack = [(0, 0.0, 1.0)]
            while stack:
                k, s, w = stack.pop()
                if k == n:
                    want += w * f(s)
                else:
                    for x, wx in atoms:
                        stack.append((k + 1, s + x, w * wx))
            assert abs(got - want) <= 1e-12

        # PDE comparison principle on coarse grids
        grid = GridConfig(dx=0.2)
        for _ in range(200):
            lo = rng.uniform(0.2, 0.8)
            params = GParams(lo, lo + rng.uniform(0.0, 0.6))
            a = rng.uniform(0.2, 2.0)
            phi = lambda x, a=a: max(1.0 - a * abs(x), 0.0)
            shift = rng.uniform(0.0, 0.5)
            psi = lambda x, a=a, c=shift: max(1.0 - a * abs(x), 0.0) + c
            u = g_normal_expectation(phi, params, grid)
            v = g_normal_expectation(psi, params, grid)
            assert u <= v + 1e-10


def test_criterion_9_exact_lln_on_the_band():
    with criterion(9, "exact E[(S_n/n)^2] on the Bernoulli band at n=2000"):
        start = time.perf_counter()
        # max over p in {2/5, 3/5} of p(1-p)/n + p^2, as `sublin eval --exact` computes it
        n = 2000
        band = load_ambiguity_set(str(CONFIGS / "bernoulli-band.json"), NumericMode.EXACT)
        phi = parse_phi("x*x")
        seq = StepSequence.iid(band, n, NumericMode.EXACT)
        assert sublinear_eval_sum(seq, lambda s: phi(s / n)) == F(9003, 25000)
        assert time.perf_counter() - start < 2.0


def test_criterion_10_lln_counterexample_at_n50():
    with criterion(10, "LLN failure family at K=100, n=50"):
        start = time.perf_counter()
        # the clamp makes v_k one constant over nearly every state: the
        # sweep fills those from the window's flat ends
        assert prop62_experiment(100, 50)[0].hex() == "0x1.fae47c7325b9bp-1"
        assert time.perf_counter() - start < 1.5
