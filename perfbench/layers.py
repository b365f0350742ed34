"""Per-layer metrics of a traced pass, named after the ``sublin`` modules.

Inputs are the span aggregates of every traced interpreter of the pass
(calls, inclusive and self seconds per span name), the work counts the
tracer computed from call arguments and return values, and the
``-X importtime`` output of each interpreter.  Counts are computed, not
measured: they repeat exactly for the same workload, size and seed.
"""

from __future__ import annotations

from ops import README_NAMES

# metric -> span names whose self time it sums
SELF_TIMES = {
    "phi.self_s": ["phi.call"],
    "phi.parse_s": ["phi.parse_phi"],
    "limits.lln_bounds.self_s": ["limits.lln_bounds"],
    "limits.lln_experiment.self_s": ["limits.lln_experiment"],
    "limits.clt_experiment.self_s": ["limits.clt_experiment"],
    "limits.moment_summary.self_s": ["limits.moment_summary"],
    "limits.prop62.self_s": ["limits.prop62_experiment"],
    "limits.prop63.self_s": ["limits.prop63_experiment"],
    "recursion.lattice_embed.s": ["recursion.lattice_embed.float",
                                  "recursion.lattice_embed.exact"],
    "recursion.float.s": ["recursion.sublinear_eval_sum.float",
                          "recursion.sublinear_event_probability.float"],
    "recursion.exact.s": ["recursion.sublinear_eval_sum.exact",
                          "recursion.sublinear_event_probability.exact"],
    "gheat.solve.s": ["gheat.solve_g_heat", "gheat.g_normal_expectation"],
    "gheat.quadrature.s": ["gheat.gaussian_quadrature"],
    "linprog.simplex.s": ["linprog.simplex_max"],
    "independence.pseudo.self_s": ["independence.check_pseudo_independence"],
    "independence.peng_exact.self_s": ["independence.check_peng_independence.exact"],
    "independence.peng_probe.self_s": ["independence.check_peng_independence.probe"],
    "independence.enlarge.self_s": ["independence.enlarge_vertices"],
    "measures.upper_expectation.s": ["measures.upper_expectation"],
    "measures.upper_probability.s": ["measures.upper_probability"],
    "measures.same_distribution.s": ["measures.same_distribution"],
    "measures.load.s": ["measures.load_ambiguity_set", "measures.ambiguity_set_from_dict",
                        "measures.parse_number", "independence.load_joint_model",
                        "independence.joint_model_from_dict"],
}

CALLS = {
    "phi.calls": "phi.call",
    "linprog.simplex.calls": "linprog.simplex_max",
    "linprog.hull_gap.calls": "linprog.hull_gap",
    "measures.upper_expectation.calls": "measures.upper_expectation",
    "measures.upper_probability.calls": "measures.upper_probability",
}

COUNTS = {
    "recursion.float.state_atoms": "recursion.lattice_embed.float",
    "recursion.exact.state_atoms": "recursion.lattice_embed.exact",
    "linprog.tableau_cells": "linprog.simplex_max",
    "gheat.point_steps": "gheat.solve_g_heat",
    "independence.enlarge.vertices": "independence.enlarge_vertices",
}

# cost per unit of work: metric -> (seconds metric, work metric, unit)
RATES = {
    "phi.us_per_call": ("phi.self_s", "phi.calls", "us"),
    "recursion.float.ns_per_state_atom": ("recursion.float.s", "recursion.float.state_atoms", "ns"),
    "recursion.exact.ns_per_state_atom": ("recursion.exact.s", "recursion.exact.state_atoms", "ns"),
    "gheat.ns_per_point_step": ("gheat.solve.s", "gheat.point_steps", "ns"),
}
_SCALE = {"us": 1e6, "ns": 1e9}

CLI = [f"cli.{name}.s" for name in README_NAMES]

IMPORTS = {"import.sublin_s": "sublin", "import.scipy_s": "scipy"}


def unit(metric):
    if metric in CALLS or metric in COUNTS:
        return "count"
    return RATES[metric][2] if metric in RATES else "s"


METRICS = (list(IMPORTS) + CLI + list(SELF_TIMES) + list(CALLS) + list(COUNTS)
           + list(RATES) + ["trace.overhead_s"])


def import_seconds(stderr, package):
    """Cumulative import seconds of the outermost ``package`` modules in one
    interpreter's ``-X importtime`` output (entries nested inside another
    entry of the same package are already in its cumulative time)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total, stack = 0, []
    for depth, name, cumulative in reversed(rows):  # pre-order: parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(anc for _, anc in stack):
            total += cumulative
        stack.append((depth, mine))
    return total / 1e6


def layer_metrics(children, overhead_s):
    """``children``: per traced interpreter, a dict with ``trace`` (span
    aggregates and counts), ``stderr`` and, for README commands, ``command``."""
    spans, counts = {}, {}
    out = {m: 0.0 for m in METRICS}
    for child in children:
        for name, agg in child["trace"]["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(agg, 0))
            for k in acc:
                acc[k] += agg[k]
        for name, value in child["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for metric, package in IMPORTS.items():
            out[metric] += import_seconds(child["stderr"], package)
        if "command" in child:
            main = child["trace"]["spans"].get("cli.main")
            out[f"cli.{child['command']}.s"] = main["total_s"] if main else 0.0
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, name in CALLS.items():
        out[metric] = spans.get(name, {}).get("calls", 0)
    for metric, name in COUNTS.items():
        out[metric] = counts.get(name, 0)
    for metric, (seconds, work, per) in RATES.items():
        out[metric] = out[seconds] / out[work] * _SCALE[per] if out[work] else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


def ops_self_time_sum(children):
    """Self seconds of the per-layer spans that ran inside operations; at most
    the traced solve_s, since those spans nest within the operations."""
    names = {n for ns in SELF_TIMES.values() for n in ns}
    return sum(agg["ops_self_s"] for child in children
               for name, agg in child["trace"]["spans"].items() if name in names)
