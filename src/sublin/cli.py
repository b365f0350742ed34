"""Command-line front end.

Subcommands: eval, lln, clt, gnormal, counterexample, check-independence,
diagnose, enlarge.  Models come from JSON files in the layouts documented
by sublin.ambiguity_set_from_dict and sublin.joint_model_from_dict; test
functions are expressions over the phi grammar.

Each command returns its stdout lines, its JSON document and, for lln, clt
and diagnose, its CSV text; ``main`` alone prints the lines and then writes
``--out`` and ``--json``.  So a command that fails prints nothing on stdout,
and only a failed ``--out``/``--json`` write comes after the result.  Exit
codes: 0 success, 1 usage or an output file that cannot be written, 2
invalid or unreadable model, 3 numerical failure or float overflow, 4
model-too-large.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import limits
from .errors import NumericalFailure, SublinError, UsageError
from .gheat import GParams, GridConfig, g_normal_expectation, gaussian_quadrature
from .independence import (
    check_peng_independence,
    check_pseudo_independence,
    enlarge_vertices,
    load_joint_model,
)
from .limits import ExperimentTable, _check_schedule, _fmt, moment_summary
from .measures import NumericMode, load_ambiguity_set, parse_number
from .phi import parse_phi
from .recursion import StepSequence, sublinear_eval_sum


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _mode(args) -> NumericMode:
    return NumericMode.EXACT if args.exact else NumericMode.FLOAT64


def _phi(args):
    """The --phi expression.  Under --exact it must lie in the exact-rational
    subset.  Like any expression in that subset, it evaluates rational
    arguments (the exact DP's terminal values) exactly and float arguments,
    as in limit predictions, in float."""
    phi = parse_phi(args.phi)
    if args.exact:
        phi.require_exact()
    return phi


def _schedule(text: str):
    try:
        ns = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise UsageError(f"bad n-schedule {text!r}") from e
    return _check_schedule(ns)


def _table_report(table: ExperimentTable):
    doc = table.to_dict()
    lines = [" ".join(f"{k}={v}" for k, v in row.items()) for row in doc["rows"]]
    return lines, doc, table.to_csv()


def _add_common(p, exact=True, out=False, grid=False):
    if exact:
        p.add_argument("--exact", action="store_true", help="exact-rational mode")
    if out:
        p.add_argument("--out", metavar="PATH", help="write the result table as CSV")
    p.add_argument("--json", metavar="PATH", help="write a JSON report")
    if grid:
        p.add_argument("--dx", type=float, default=0.01)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sublin", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="single DP value of E[phi(S_n)] (scaled)")
    q.add_argument("--model", required=True, help="measures JSON file")
    q.add_argument("--phi", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--normalize", choices=["none", "n", "sqrt-n"], default="none")
    q.add_argument("--lower", action="store_true", help="lower instead of upper")
    _add_common(q)

    q = sub.add_parser("lln", help="LLN experiment table over an n-schedule")
    q.add_argument("--model", required=True)
    q.add_argument("--phi", required=True)
    q.add_argument("--n-schedule", default="16,32,64,128,256,512,1024")
    _add_common(q, out=True)

    q = sub.add_parser("clt", help="CLT experiment table against the G-heat PDE")
    q.add_argument("--model", required=True)
    q.add_argument("--phi", required=True)
    q.add_argument("--n-schedule", default="25,100,400")
    q.add_argument("--truncate-sqrt-n", action="store_true",
                   help="clip step atoms to [-sqrt(n), sqrt(n)] first")
    _add_common(q, out=True, grid=True)

    q = sub.add_parser("gnormal", help="G-normal expectation via the PDE solver")
    q.add_argument("--sigma-lo", type=float, required=True)
    q.add_argument("--sigma-hi", type=float, required=True)
    q.add_argument("--phi", required=True)
    _add_common(q, exact=False, grid=True)

    q = sub.add_parser("counterexample", help="LLN/CLT failure counterexamples on the heavy-tail family")
    q.add_argument("--which", choices=["lln", "clt"], required=True)
    q.add_argument("--K", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--clamp", type=float, default=None,
                   help="bounded-modification level M (default: 2 for lln, 1 for clt)")
    _add_common(q)

    q = sub.add_parser("check-independence", help="pseudo/Peng independence checks")
    q.add_argument("--config", required=True, help="joint-model JSON file")
    q.add_argument("--mode", choices=["pseudo", "peng-probe", "peng-exact"],
                   required=True)
    q.add_argument("--step", type=int, default=None,
                   help="step n to check (default: last variable)")
    _add_common(q)

    q = sub.add_parser("diagnose", help="H1/H2 and Cesaro moment tables")
    q.add_argument("--model", help="measures JSON file")
    q.add_argument("--counterexample-K", type=int, default=None,
                   help="diagnose the exact counterexample family instead")
    q.add_argument("--n-max", type=int, default=10000)
    _add_common(q, out=True)

    q = sub.add_parser("enlarge", help="dump the enlargement's vertex joints")
    q.add_argument("--config", required=True, help="joint-model JSON file")
    _add_common(q)
    return p


def _cmd_eval(args):
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    mode = _mode(args)
    aset = load_ambiguity_set(args.model, mode)
    phi = _phi(args)
    seq = StepSequence.iid(aset, args.n, mode)
    if args.normalize == "n":
        scale = args.n
    elif args.normalize == "sqrt-n":
        scale = limits._sqrt(args.n, mode)
    else:
        scale = 1
    direction = "lower" if args.lower else "upper"
    value = _fmt(sublinear_eval_sum(seq, phi, direction, scale))
    return [f"value={value}"], {"value": value}


def _cmd_lln(args):
    aset = load_ambiguity_set(args.model, _mode(args))
    phi = _phi(args)
    return _table_report(
        limits.lln_experiment(aset, phi, _schedule(args.n_schedule), _mode(args)))


def _cmd_clt(args):
    aset = load_ambiguity_set(args.model, _mode(args))
    phi = _phi(args)
    return _table_report(limits.clt_experiment(
        aset,
        phi,
        _schedule(args.n_schedule),
        grid=GridConfig(args.dx),
        truncate_sqrt_n=args.truncate_sqrt_n,
        mode=_mode(args),
    ))


def _cmd_gnormal(args):
    phi = parse_phi(args.phi)
    params = GParams(args.sigma_lo, args.sigma_hi)
    value = g_normal_expectation(phi, params, GridConfig(args.dx))
    lines = [f"value={value:.17g}"]
    if params.sigma_lo == params.sigma_hi:
        lines.append(f"quadrature={gaussian_quadrature(phi, params.sigma_hi):.17g}")
    return lines, {"value": value}


def _cmd_counterexample(args):
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    mode = _mode(args)
    clamp = args.clamp
    if clamp is None:
        clamp = 2 if args.which == "lln" else 1
    elif math.isfinite(clamp):
        # a decimal clamp is read as the model loader reads a decimal float
        clamp = parse_number(clamp, mode)
    if args.which == "lln":
        value, bound = limits.prop62_experiment(args.K, args.n, clamp, mode)
        classical = 0.0  # phi(1): the classical LLN prediction for E[X^2] = 1
    else:
        value, bound = limits.prop63_experiment(args.K, args.n, clamp, mode)
        classical = 1.0 - math.sqrt(2.0 / math.pi)
    value, bound = _fmt(value), _fmt(bound)
    return ([f"value={value} lower-bound={bound} "
             f"classical-reference={classical:.17g} robust-limit=1"],
            {"value": value, "lower_bound": bound,
             "classical_reference": classical, "robust_limit": 1})


def _fmt_witness(v):
    """A witness entry as a string, or a sequence as a list of strings."""
    if isinstance(v, (list, tuple)):
        return [_fmt_witness(x) for x in v]
    if isinstance(v, (int, float, Fraction)) and not isinstance(v, bool):
        return _fmt(v)
    return str(v)


def _cmd_check_independence(args):
    model = load_joint_model(args.config, _mode(args))
    step = args.step if args.step is not None else model.n_variables
    if not 1 <= step <= model.n_variables:
        raise UsageError(f"--step must be in 1..{model.n_variables}, got {step}")
    if args.mode == "pseudo":
        report = check_pseudo_independence(model, step)
    elif args.mode == "peng-probe":
        report = check_peng_independence(model, step, mode="probe")
    else:
        report = check_peng_independence(model, step, mode="exact")
    gap = _fmt(report.gap)
    lines = [f"verdict={'true' if report.verdict else 'false'} gap={gap}"]
    witness = {k: _fmt_witness(v) for k, v in report.witness.items()} if report.witness else None
    if witness:
        parts = " ".join(f"{k}=[{', '.join(v)}]" if isinstance(v, list) else f"{k}={v}"
                         for k, v in witness.items())
        lines.append(f"witness: {parts}")
    return lines, {"verdict": report.verdict, "gap": gap, "witness": witness}


def _cmd_diagnose(args):
    mode = _mode(args)
    if args.counterexample_K is not None:
        aset = limits.counterexample_family(args.counterexample_K)
    elif args.model:
        aset = load_ambiguity_set(args.model, mode)
    else:
        raise UsageError("diagnose needs --model or --counterexample-K")
    summary = moment_summary(StepSequence.iid(aset, 1, mode), args.n_max)
    mu = [_fmt(summary.mu_lo), _fmt(summary.mu_bar)]
    sigma2 = [_fmt(summary.sigma2_lo), _fmt(summary.sigma2_bar)]
    rows = [(str(n), _fmt(a), _fmt(s), _fmt(c)) for (n, a), (_, s), (_, c)
            in zip(summary.tail_abs, summary.tail_sq, summary.cesaro)]
    lines = [f"mu=[{mu[0]}, {mu[1]}] sigma2=[{sigma2[0]}, {sigma2[1]}]",
             "n,nV(|X|>=n),nV(X^2>=n),cesaro", *map(",".join, rows),
             f"H1-decaying={summary.h1_decaying} H2-decaying={summary.h2_decaying}"]
    doc = {"mu": mu, "sigma2": sigma2,
           "h1_decaying": summary.h1_decaying, "h2_decaying": summary.h2_decaying}
    buf = io.StringIO()
    csv.writer(buf).writerows([("n", "tail_abs", "tail_sq", "cesaro"), *rows])
    return lines, doc, buf.getvalue()


def _cmd_enlarge(args):
    model = load_joint_model(args.config, _mode(args))
    enlarged = enlarge_vertices(model)
    tables = [[_fmt(w) for w in t] for t in enlarged.tables]
    lines = [f"vertices={len(tables)}"]
    lines += [f"vertex {i}: " + " ".join(t) for i, t in enumerate(tables)]
    return lines, {
        "variables": list(enlarged.variable_names),
        "supports": [[_fmt(x) for x in s] for s in enlarged.supports],
        "measures": [{"table": t} for t in tables],
    }


_DISPATCH = {
    "eval": _cmd_eval,
    "lln": _cmd_lln,
    "clt": _cmd_clt,
    "gnormal": _cmd_gnormal,
    "counterexample": _cmd_counterexample,
    "check-independence": _cmd_check_independence,
    "diagnose": _cmd_diagnose,
    "enlarge": _cmd_enlarge,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        lines, doc, *csv = _DISPATCH[args.command](args)
        print("\n".join(lines))
        outputs = [(getattr(args, "out", None), "".join(csv)),
                   (args.json, json.dumps(doc, indent=2) + "\n")]
        for path, text in outputs:
            if path:
                with open(path, "w", newline="") as fh:
                    fh.write(text)
        return 0
    except SublinError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OverflowError as e:  # a finite input whose float conversion overflows
        print(f"error: numeric overflow: {e}", file=sys.stderr)
        return NumericalFailure.exit_code
    except OSError as e:  # an output file; model files raise ModelError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
