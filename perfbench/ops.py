"""Workload definitions: inputs built from the seed, the operations of one
pass, and the reference check of every operation's output.

Three workloads, all closed loop with one client (the next operation starts
only after the previous one returned):

* ``readme`` - the ten ``sublin`` commands of the README's "Command line"
  section, verbatim, each in a fresh interpreter;
* ``float`` - in-process float64 solves (counterexample DPs, the CLT table,
  G-heat solves);
* ``exact`` - in-process exact-rational solves (lattice DP, envelopes, hull
  LPs, independence checks) on models whose shapes are fixed and whose
  values come from the seed, so that every seed does the same work.

A check returns None when the output is right and a one-line reason when it
is not.  Exact results are compared bit for bit with pinned or analytically
known Fractions; float results within the tolerances stated next to each
check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# Float outputs against the float64 values recorded when the benchmark was
# defined.  Summation-order changes move them by ~1e-15; a wrong kernel by
# far more.
PINNED_FLOAT_TOL = 1e-9
# Documented oracle tolerances (README / acceptance criterion 4).
CLT_PDE_TOL = 2e-2
PDE_QUADRATURE_TOL = 1e-3
FLOAT_EXACT_TOL = 1e-12

# exact-pass sizes: moment_summary near a third of the pass, and enough
# independence and hull checks that linprog is a layer of its own
MOMENTS_K = 2000
JOINT_PAIRS = 6
HULL_PAIRS = 4

# ---------------------------------------------------------------- readme

# (name, full argv, tiny argv); the full argv is the README line verbatim.
README_COMMANDS = (
    ("eval",
     ["eval", "--model", "configs/bernoulli-band.json", "--phi", "x", "--n", "10",
      "--normalize", "n", "--exact"],
     ["eval", "--model", "configs/bernoulli-band.json", "--phi", "x", "--n", "3",
      "--normalize", "n", "--exact"]),
    ("lln",
     ["lln", "--model", "configs/bernoulli-band.json", "--phi", "max(1-abs(x-1/2),0)"],
     ["lln", "--model", "configs/rademacher.json", "--phi", "max(1-abs(x-1/2),0)",
      "--n-schedule", "4,8"]),
    ("clt",
     ["clt", "--model", "configs/rademacher.json", "--phi", "max(1-abs(x),0)"],
     ["clt", "--model", "configs/rademacher.json", "--phi", "max(1-abs(x),0)",
      "--n-schedule", "25", "--dx", "0.05"]),
    ("gnormal",
     ["gnormal", "--sigma-lo", "1", "--sigma-hi", "1", "--phi", "1-abs(x)"],
     ["gnormal", "--sigma-lo", "1", "--sigma-hi", "1", "--phi", "1-abs(x)", "--dx", "0.05"]),
    ("counterexample-clt",
     ["counterexample", "--which", "clt", "--K", "100", "--n", "25"],
     ["counterexample", "--which", "clt", "--K", "10", "--n", "9"]),
    ("counterexample-lln",
     ["counterexample", "--which", "lln", "--K", "100", "--n", "20"],
     ["counterexample", "--which", "lln", "--K", "10", "--n", "5"]),
    ("check-pseudo",
     ["check-independence", "--config", "configs/example36.json", "--mode", "pseudo"],
     None),
    ("check-peng-probe",
     ["check-independence", "--config", "configs/example36.json", "--mode", "peng-probe",
      "--exact"],
     None),
    ("diagnose",
     ["diagnose", "--counterexample-K", "100", "--n-max", "1000", "--exact"],
     ["diagnose", "--counterexample-K", "10", "--n-max", "100", "--exact"]),
    ("enlarge",
     ["enlarge", "--config", "configs/example36.json", "--exact"],
     None),
)
README_NAMES = tuple(name for name, _, _ in README_COMMANDS)


def readme_argv(index, size):
    _, full, tiny = README_COMMANDS[index]
    return full if size == "full" or tiny is None else tiny


def _tokens(text):
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def _same_token(got, want):
    """Equal text, or the same key with float values within PINNED_FLOAT_TOL.
    Integers and fractions (no '.' or exponent) must match character for
    character: those are exact results."""
    if got == want:
        return True
    gk, _, gv = got.rpartition("=")
    wk, _, wv = want.rpartition("=")
    try:
        close = abs(float(gv) - float(wv)) <= PINNED_FLOAT_TOL
    except ValueError:
        return False
    return gk == wk and close and any(c in gv + wv for c in ".e")


def check_readme(name, size, exit_code, stdout):
    """Compare a command's stdout with the pinned output token by token,
    then apply the command's own oracle."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    got_lines = stdout.splitlines()
    want_lines = REFERENCE["readme"][size][name].splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} output lines, expected {len(want_lines)}"
    for got, want in zip(got_lines, want_lines):
        if len(got.split()) != len(want.split()) or not all(
                map(_same_token, got.split(), want.split())):
            return f"{got!r} differs from the pinned {want!r}"
    last = _tokens(got_lines[-1]) if got_lines else {}
    if name == "gnormal":
        vals = _tokens(stdout)
        if abs(float(vals["value"]) - float(vals["quadrature"])) > PDE_QUADRATURE_TOL:
            return f"PDE value and quadrature oracle differ by more than {PDE_QUADRATURE_TOL:g}"
    if name == "clt" and abs(float(last["gap"])) > CLT_PDE_TOL:
        return f"CLT gap {last['gap']} exceeds {CLT_PDE_TOL:g}"
    if name.startswith("counterexample"):
        if not float(last["lower-bound"]) - 1e-12 <= float(last["value"]) <= 1.0:
            return "value outside [lower-bound, 1]"
    return None


# ------------------------------------------------------- seeded generators

def _composition(rng, parts, total):
    """``parts`` positive integers summing to ``total``, as Fractions of it."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [F(s, total) for s in sizes]


def _distinct_laws(rng, count, parts, total, general_position=False):
    while True:
        laws = [_composition(rng, parts, total) for _ in range(count)]
        if len({tuple(p) for p in laws}) < count:
            continue
        if general_position:
            (a0, a1, _), (b0, b1, _), (c0, c1, _) = laws
            if (b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0) == 0:
                continue
        return laws


def _fmt(q):
    return f"{q.numerator}/{q.denominator}"


def _joint_doc(tables, shape):
    return {
        "variables": ["X", "Y"],
        "supports": [list(range(shape[0])), list(range(shape[1]))],
        "measures": [
            {"table": [[_fmt(t[i * shape[1] + j]) for j in range(shape[1])]
                       for i in range(shape[0])]}
            for t in tables
        ],
    }


def _product(p, q):
    return [a * b for a in p for b in q]


def joint_docs(rng, pairs):
    """2-variable product models of shape (3, 2) with 3 tables each.

    ``common-q`` tables p_t (x) q share the law of Y, so Y is independent of X
    in Peng's sense; ``common-p`` tables p (x) q_t share the law of X while Y's
    law varies, so the rectangular polytope has non-product vertices and the
    verdict is false.  Both are pseudo-independent (every conditional law is a
    marginal).  Weights have the fixed denominators 16 and 8, so the LP
    arithmetic has the same size for every seed.
    """
    docs = []
    for _ in range(pairs):
        ps = _distinct_laws(rng, 3, 3, 16, general_position=True)
        q = _composition(rng, 2, 8)
        docs.append(("common-q", _joint_doc([_product(p, q) for p in ps], (3, 2)), True))
        p = _composition(rng, 3, 16)
        qs = _distinct_laws(rng, 3, 2, 8)
        docs.append(("common-p", _joint_doc([_product(p, q) for q in qs], (3, 2)), False))
    return docs


def hull_pair_docs(rng, pairs):
    """Pairs of 3-member ambiguity sets on support {0,1,2,3}.

    ``same`` adds a mixture of the members (the hull is unchanged); ``differ``
    adds a point mass, which lies outside the hull of full-support laws.
    """

    def doc(laws):
        return {"measures": [{"atoms": [0, 1, 2, 3], "probs": [_fmt(w) for w in law]}
                             for law in laws]}

    out = []
    for _ in range(pairs):
        laws = _distinct_laws(rng, 3, 4, 16)
        lam = _composition(rng, 3, 4)
        mix = [sum(l * law[i] for l, law in zip(lam, laws)) for i in range(4)]
        with_mix = laws + [mix]
        rng.shuffle(with_mix)
        corner = rng.randrange(4)
        dirac = [F(int(i == corner)) for i in range(4)]
        out.append(("same", doc(laws), doc(with_mix), True))
        out.append(("differ", doc(laws), doc(laws + [dirac]), False))
    return out


# ------------------------------------------------------- in-process passes

class Op:
    """One operation: ``run()`` returns the program's output and
    ``check(output)`` returns None or the reason the output is wrong."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _pinned_pair(key, size, tol=None):
    """Check a (value, bound) pair against the pinned one: bit for bit when
    ``tol`` is None, else within ``tol``; the value must lie in [bound, 1]."""
    want = [F(v) for v in REFERENCE[key][size]]

    def check(out):
        value, bound = out
        if tol is None:
            if (F(value), F(bound)) != tuple(want) or not isinstance(value, F):
                return f"{key}: value differs from the pinned Fraction"
        elif abs(value - float(want[0])) > tol or abs(bound - float(want[1])) > tol:
            return f"{key}: {value!r} differs from pinned {float(want[0])!r} by more than {tol:g}"
        if not bound - (tol or 0) <= value <= 1:
            return f"{key}: value {value!r} outside [bound, 1]"
        return None

    return check


def _minus(c):
    """Phi-grammar text for ``- c``."""
    return f"-{_fmt(c)}" if c >= 0 else f"+{_fmt(-c)}"


def float_ops(S, seed, size):
    """The float64 pass.  The seed moves the kink of both test functions."""
    rng = random.Random(seed)
    c = F(rng.randint(-2, 2), 8)
    band = S.load_ambiguity_set(str(HERE.parent / "configs" / "rademacher.json"))
    hat = S.parse_phi(f"max(1-abs(x{_minus(c)}),0)")
    tent = S.parse_phi(f"1-abs(x{_minus(c)})")  # concave
    full = size == "full"
    grid = S.GridConfig(dx=0.005 if full else 0.05)
    clt_grid = S.GridConfig(dx=0.01 if full else 0.05)
    schedule = [25, 100, 400, 1600] if full else [25]
    k62, n62 = (100, 20) if full else (10, 5)
    k63, n63 = (400, 25) if full else (10, 9)
    # sizes at which the exact values are pinned
    kx62, nx62 = (10, 20) if full else (2, 3)
    kx63, nx63 = (10, 49) if full else (2, 1)

    def check_clt(table):
        row = table.rows[-1]
        if abs(row.value - row.prediction) > CLT_PDE_TOL:
            return f"CLT value {row.value!r} vs PDE {row.prediction!r} exceeds {CLT_PDE_TOL:g}"
        return None

    def check_oracle(out):
        pde, quad = out
        if abs(pde - quad) > PDE_QUADRATURE_TOL:
            return f"PDE {pde!r} vs quadrature {quad!r} exceeds {PDE_QUADRATURE_TOL:g}"
        return None

    def check_vs_exact(key):
        exact = float(F(REFERENCE[key][size][0]))

        def check(out):
            if abs(out[0] - exact) > FLOAT_EXACT_TOL:
                return f"float {out[0]!r} vs exact {exact!r} exceeds {FLOAT_EXACT_TOL:g}"
            return None

        return check

    return [
        Op("prop62", lambda: S.prop62_experiment(k62, n62),
           _pinned_pair("prop62-float", size, PINNED_FLOAT_TOL)),
        Op("prop63", lambda: S.prop63_experiment(k63, n63),
           _pinned_pair("prop63-float", size, PINNED_FLOAT_TOL)),
        Op("prop62-vs-exact", lambda: S.prop62_experiment(kx62, nx62),
           check_vs_exact("prop62-exact")),
        Op("prop63-vs-exact", lambda: S.prop63_experiment(kx63, nx63),
           check_vs_exact("prop63-exact")),
        Op("clt", lambda: S.clt_experiment(band, hat, schedule, grid=clt_grid), check_clt),
        # for concave phi the G-normal value is the classical one at sigma_lo
        Op("gnormal-band",
           lambda: (S.g_normal_expectation(tent, S.GParams(0.5, 1.0), grid),
                    S.gaussian_quadrature(tent, 0.5)), check_oracle),
        Op("gnormal-classical",
           lambda: (S.g_normal_expectation(tent, S.GParams(1.0, 1.0), grid),
                    S.gaussian_quadrature(tent, 1.0)), check_oracle),
    ]


ACCEPTANCE7_SCHEDULE = sorted({10, 16, 100, 400, 2500, 10000} | set(range(10, 101, 10)))


def _check_tails(K):
    """n V(|X| >= n) = 1/n for n <= K and 0 beyond; n V(X^2 >= n) = 1 at
    perfect squares n <= K^2 (acceptance criterion 7)."""

    def check(summary):
        for n, v in summary.tail_abs:
            if v != (F(1, n) if n <= K else 0):
                return f"n V(|X|>=n) at n={n} is {v}, expected {F(1, n) if n <= K else 0}"
        for n, v in summary.tail_sq:
            if math.isqrt(n) ** 2 == n and n <= K * K and v != 1:
                return f"n V(X^2>=n) at n={n} is {v}, expected 1"
        return None

    return check


def _check_report(verdict, gap=None):
    def check(report):
        if report.verdict is not verdict:
            return f"verdict {report.verdict}, expected {verdict}"
        if gap is not None and (not isinstance(report.gap, (int, F)) or report.gap != F(gap)):
            return f"gap {report.gap}, expected {gap}"
        return None

    return check


def exact_ops(S, seed, size):
    """The exact-rational pass.  Shapes are fixed; the seed draws values."""
    rng = random.Random(seed)
    exact = S.NumericMode.EXACT
    full = size == "full"
    n_band = 1000 if full else 20
    # odd numerators over 64 keep every step's denominator at 64
    lo, hi = sorted(rng.sample(range(1, 64, 2), 2))
    p_lo, p_hi = F(lo, 64), F(hi, 64)
    band = S.ambiguity_set_from_dict(
        {"measures": [{"atoms": [0, 1], "probs": [_fmt(1 - p), _fmt(p)]} for p in (p_lo, p_hi)]},
        exact)
    square = S.parse_phi("x*x")
    # x^2 is increasing on the reachable sums, so the robust value is the
    # classical one at p_hi: E[(S_n/n)^2] = p(1-p)/n + p^2
    band_value = p_hi * (1 - p_hi) / n_band + p_hi * p_hi
    kx, nx = (10, 49) if full else (2, 1)
    K = MOMENTS_K if full else 20
    schedule = ACCEPTANCE7_SCHEDULE if full else [1, 2, 4, 9, 10, 16, 20, 25, 30]
    ex36 = S.load_joint_model(str(HERE.parent / "configs" / "example36.json"), exact)
    joints = [(kind, S.joint_model_from_dict(doc, exact), verdict)
              for kind, doc, verdict in joint_docs(rng, JOINT_PAIRS)]
    hulls = [(kind, S.ambiguity_set_from_dict(a, exact), S.ambiguity_set_from_dict(b, exact),
              verdict) for kind, a, b, verdict in hull_pair_docs(rng, HULL_PAIRS)]

    def check_band(value):
        if not isinstance(value, F) or value != band_value:
            return f"band value {value}, expected {band_value}"
        return None

    def check_enlarge(out):
        vertices, report = out
        if vertices != 8:
            return f"{vertices} enlargement vertices, expected 8"
        return None if report.verdict else "enlargement is not Peng-independent"

    def check_pair(expected):
        def check(out):
            pseudo, peng = out
            if not pseudo.verdict:
                return "product model reported not pseudo-independent"
            if peng.verdict is not expected:
                return f"Peng verdict {peng.verdict}, expected {expected}"
            return None
        return check

    def check_same(expected):
        return lambda got: None if got is expected else f"same_distribution {got}, expected {expected}"

    def enlarge():
        big = S.enlarge_vertices(ex36)
        return len(big.tables), S.check_peng_independence(big, 2, mode="exact")

    ops = [
        Op("band", lambda: S.sublinear_eval_sum(
            S.StepSequence.iid(band, n_band, exact),
            lambda s: square(F(s, n_band), exact=True)), check_band),
        Op("prop63-exact", lambda: S.prop63_experiment(kx, nx, mode=exact),
           _pinned_pair("prop63-exact", size)),
        Op("moments", lambda: S.moment_summary(
            S.StepSequence.iid(S.counterexample_family(K), 1, exact), schedule[-1],
            schedule=schedule), _check_tails(K)),
        Op("ex36-pseudo", lambda: S.check_pseudo_independence(ex36, 2), _check_report(True, 0)),
        Op("ex36-peng-probe", lambda: S.check_peng_independence(ex36, 2, mode="probe"),
           _check_report(False, "1/16")),
        Op("ex36-peng-exact", lambda: S.check_peng_independence(ex36, 2, mode="exact"),
           _check_report(False, REFERENCE["ex36-peng-exact-gap"])),
        Op("ex36-enlarge", enlarge, check_enlarge),
    ]
    for i, (kind, model, verdict) in enumerate(joints):
        ops.append(Op(f"joint-{kind}-{i // 2}",
                      lambda m=model: (S.check_pseudo_independence(m, 2),
                                       S.check_peng_independence(m, 2, mode="exact")),
                      check_pair(verdict)))
    for i, (kind, a, b, verdict) in enumerate(hulls):
        ops.append(Op(f"hull-{kind}-{i // 2}",
                      lambda a=a, b=b: S.same_distribution(a, b, tol=0),
                      check_same(verdict)))
    return ops


def readme_op(S, index, size):
    """README command ``index`` run through ``sublin.cli.main`` in this
    interpreter, its stdout captured for the check."""
    name, argv = README_NAMES[index], readme_argv(index, size)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = S.cli.main(argv)
        return code, buf.getvalue()

    return Op(name, run, lambda out: check_readme(name, size, *out))


def build(workload, S, seed, size, command=None):
    """Set up the operations of one interpreter: for ``readme`` one command,
    in process a whole pass (model loads and phi parsing happen here)."""
    if workload == "readme":
        return [readme_op(S, command, size)]
    return {"float": float_ops, "exact": exact_ops}[workload](S, seed, size)
