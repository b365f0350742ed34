"""Finite joint models and the independence decision procedures.

On a finite support of size m the bounded-Lipschitz test functions span
all of R^m, so the quantified conditions reduce to convex-hull
membership of law vectors, one linear program per history:

* pseudo-independence at step n: every positive-probability conditional
  law of X_n lies in the hull of the marginal laws of X_n;
* full (nested) independence at step n: the hull of the joint laws
  equals the rectangular polytope built from the prefix hull and one
  marginal-hull choice per history.

Zero-probability histories are skipped, matching the P-a.s. quantifier.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import ModelError, ModelTooLarge, NullHistoryError
from .linprog import hull_gap, hull_vertices
from .measures import NumericMode, _tolerance, parse_number, is_exact

DEFAULT_ENUM_CAP = 10**4


@dataclass(frozen=True)
class JointModel:
    """Finitely many joint tables over a product of finite supports.

    Each table is a flat row-major tuple of weights over the support grid.
    """

    variable_names: tuple
    supports: tuple
    tables: tuple

    def __init__(self, variable_names, supports, tables):
        variable_names = tuple(variable_names)
        supports = tuple(tuple(s) for s in supports)
        if len(variable_names) != len(supports) or not supports:
            raise ModelError("need one support per variable")
        for s in supports:
            if len(set(s)) != len(s) or not s:
                raise ModelError("supports must be nonempty without duplicates")
        size = 1
        for s in supports:
            size *= len(s)
        tables = tuple(tuple(t) for t in tables)
        if not tables:
            raise ModelError("need at least one joint table")
        for t in tables:
            if len(t) != size:
                raise ModelError(f"table has {len(t)} cells, grid has {size}")
            if any((w < 0) if is_exact(w) else (w < -1e-12) for w in t):
                raise ModelError("negative weight in joint table")
            total = sum(t)
            if all(is_exact(w) for w in t):
                if total != 1:
                    raise ModelError(f"table weights sum to {total}, not 1")
            elif abs(total - 1.0) > 1e-12:
                raise ModelError(f"table weights sum to {total!r}, not 1")
        object.__setattr__(self, "variable_names", variable_names)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "tables", tables)

    @property
    def n_variables(self) -> int:
        return len(self.supports)

    @property
    def shape(self):
        return tuple(len(s) for s in self.supports)

    def grid(self, upto: Optional[int] = None):
        """Index tuples of the support grid of the first ``upto`` variables."""
        upto = self.n_variables if upto is None else upto
        return itertools.product(*(range(len(s)) for s in self.supports[:upto]))

    def cell(self, table_index: int, idx: tuple):
        flat = 0
        for i, s in zip(idx, self.shape):
            flat = flat * s + i
        return self.tables[table_index][flat]

    def prefix_law(self, table_index: int, upto: int):
        """Joint law of (X_1..X_upto) as a flat vector over the prefix grid."""
        shape = self.shape
        out = {}
        for idx in self.grid():
            key = idx[:upto]
            out[key] = out.get(key, 0) + self.cell(table_index, idx)
        return [out[idx] for idx in self.grid(upto)]

    def marginal_law(self, table_index: int, k: int):
        """Unconditional law of X_k (1-based) as a vector over its support."""
        out = [0] * len(self.supports[k - 1])
        for idx in self.grid():
            out[idx[k - 1]] += self.cell(table_index, idx)
        return tuple(out)

    def conditional_law(self, table_index: int, k: int, history_idx: tuple):
        """Law of X_k given X_1..X_{k-1} = history (support indices)."""
        weights = [0] * len(self.supports[k - 1])
        total = 0
        cache = self.prefix_cache(k)[table_index]
        for idx in self.grid(k):
            if idx[: k - 1] == tuple(history_idx):
                w = cache[idx]
                weights[idx[k - 1]] += w
                total += w
        if total == 0:
            raise NullHistoryError(f"history {history_idx} has probability zero")
        return tuple(w / total for w in weights)

    def prefix_cache(self, upto: int):
        # small models; recompute rather than memoize
        out = []
        for ti in range(len(self.tables)):
            law = self.prefix_law(ti, upto)
            out.append(dict(zip(self.grid(upto), law)))
        return out

    def exact(self) -> bool:
        return all(
            all(is_exact(w) for w in t) for t in self.tables
        ) and all(all(is_exact(x) for x in s) for s in self.supports)


JOINT_SCHEMA = {
    "type": "object",
    "required": ["variables", "supports", "measures"],
    "properties": {
        "variables": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "supports": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 1,
                "items": {"type": ["number", "string"]},
            },
        },
        "measures": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["table"],
                "properties": {"table": {"type": "array"}},
            },
        },
    },
}


def _flatten(nested, shape):
    if not shape:
        return [nested]
    if len(nested) != shape[0]:
        raise ModelError("table shape does not match supports")
    out = []
    for sub in nested:
        out.extend(_flatten(sub, shape[1:]))
    return out


def joint_model_from_dict(doc: dict, mode: NumericMode = NumericMode.FLOAT64) -> JointModel:
    import jsonschema

    try:
        jsonschema.validate(doc, JOINT_SCHEMA)
    except jsonschema.ValidationError as e:
        raise ModelError(f"invalid joint-model file: {e.message}") from e
    supports = [[parse_number(v, mode) for v in s] for s in doc["supports"]]
    shape = tuple(len(s) for s in supports)
    tables = []
    for entry in doc["measures"]:
        flat = _flatten(entry["table"], shape)
        tables.append([parse_number(v, mode) for v in flat])
    return JointModel(doc["variables"], supports, tables)


def load_joint_model(path: str, mode: NumericMode = NumericMode.FLOAT64) -> JointModel:
    with open(path) as fh:
        return joint_model_from_dict(json.load(fh), mode)


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of an independence check.

    ``witness`` is None for a true verdict; otherwise a dict naming the
    measure/history/test function (or separating direction) that violates,
    and ``gap`` quantifies the violation.
    """

    verdict: bool
    witness: Optional[dict] = None
    gap: object = 0

    def __bool__(self):
        return self.verdict


def conditional_expectation(model: JointModel, table_index: int, f: Callable, history):
    """Classical E_P[f(X_n) | X_1..X_{n-1} = history] from the joint table.

    ``history`` holds support *values* of the leading variables; its length
    fixes n.
    """
    k = len(history) + 1
    if k > model.n_variables:
        raise ModelError("history longer than the variable list")
    hist_idx = []
    for value, support in zip(history, model.supports):
        if value not in support:
            raise ModelError(f"history value {value!r} not in support")
        hist_idx.append(support.index(value))
    law = model.conditional_law(table_index, k, tuple(hist_idx))
    return sum(w * f(x) for x, w in zip(model.supports[k - 1], law) if w != 0)


def positive_histories(model: JointModel, table_index: int, n: int):
    """Positive-probability histories (index tuples) of X_1..X_{n-1}."""
    cache = model.prefix_cache(n - 1) if n > 1 else None
    if n == 1:
        return [()]
    return [
        idx for idx in model.grid(n - 1) if cache[table_index][idx] > 0
    ]


def check_pseudo_independence(model: JointModel, n: int, tol=None) -> IndependenceReport:
    """Def-style check: each conditional law of X_n lies in the hull of the
    marginal laws of X_n, for every measure and positive-probability history."""
    if not 1 <= n <= model.n_variables:
        raise ModelError(f"step {n} out of range")
    marginals = [model.marginal_law(ti, n) for ti in range(len(model.tables))]
    effective = _tolerance(model.exact(), tol)
    worst = 0
    for ti in range(len(model.tables)):
        for hist in positive_histories(model, ti, n):
            cond = model.conditional_law(ti, n, hist)
            gap, direction = hull_gap(cond, marginals)
            if gap > effective:
                return IndependenceReport(
                    False,
                    witness={
                        "measure": ti,
                        "history": tuple(
                            model.supports[j][i] for j, i in enumerate(hist)
                        ),
                        "direction": direction,
                    },
                    gap=gap,
                )
            worst = max(worst, gap)
    return IndependenceReport(True, gap=worst)


def default_probes(model: JointModel, n: int):
    """Probe family: the all-coordinates-equal indicator (the sharpest
    known refuter), per-coordinate hats, and their pairwise products."""

    def equality(values):
        return 1 if all(v == values[0] for v in values) else 0

    probes = [("all-equal", equality)]

    def hat(k, j):
        support = model.supports[k]
        target = support[j]

        def phi(values):
            return 1 if values[k] == target else 0

        return (f"hat({model.variable_names[k]}={target})", phi)

    for k in range(n):
        for j in range(len(model.supports[k])):
            probes.append(hat(k, j))
    for k1 in range(n):
        for k2 in range(k1 + 1, n):
            for j1 in range(len(model.supports[k1])):
                for j2 in range(len(model.supports[k2])):
                    t1, t2 = model.supports[k1][j1], model.supports[k2][j2]

                    def phi(values, k1=k1, k2=k2, t1=t1, t2=t2):
                        return 1 if values[k1] == t1 and values[k2] == t2 else 0

                    probes.append(
                        (
                            f"hat({model.variable_names[k1]}={t1})*"
                            f"hat({model.variable_names[k2]}={t2})",
                            phi,
                        )
                    )
    return probes


def joint_value(model: JointModel, n: int, phi: Callable):
    """E over the joint laws of the prefix: sup_P E_P[phi(X_1..X_n)]."""
    best = None
    for ti in range(len(model.tables)):
        law = model.prefix_law(ti, n)
        val = sum(
            w * phi(tuple(model.supports[j][i] for j, i in enumerate(idx)))
            for idx, w in zip(model.grid(n), law)
            if w != 0
        )
        best = val if best is None else max(best, val)
    return best


def nested_value(model: JointModel, n: int, phi: Callable):
    """One-level nested value: E[ E[phi(x_<n, X_n)] at x_<n = X_<n ]."""
    marginals = [model.marginal_law(ti, n) for ti in range(len(model.tables))]
    support_n = model.supports[n - 1]

    def inner(prefix_values):
        return max(
            sum(w * phi(prefix_values + (x,)) for x, w in zip(support_n, law) if w != 0)
            for law in marginals
        )

    if n == 1:
        return inner(())
    best = None
    for ti in range(len(model.tables)):
        law = model.prefix_law(ti, n - 1)
        val = sum(
            w * inner(tuple(model.supports[j][i] for j, i in enumerate(idx)))
            for idx, w in zip(model.grid(n - 1), law)
            if w != 0
        )
        best = val if best is None else max(best, val)
    return best


def _step_polytope_vertices(model: JointModel, n: int, cap: int):
    """Vertices of the step-n rectangular polytope: prefix-hull vertex times
    one marginal-hull vertex per positive-probability history."""
    marginals = [model.marginal_law(ti, n) for ti in range(len(model.tables))]
    mverts = [marginals[i] for i in hull_vertices(marginals)]
    if n == 1:
        return [list(v) for v in mverts]
    prefixes = [model.prefix_law(ti, n - 1) for ti in range(len(model.tables))]
    pverts = [prefixes[i] for i in hull_vertices(prefixes)]
    histories = list(model.grid(n - 1))
    out = []
    for pv in pverts:
        pos = [i for i, w in enumerate(pv) if w != 0]
        count = len(mverts) ** len(pos)
        if len(out) + count > cap:
            raise ModelTooLarge(
                f"step polytope enumeration exceeds the cap ({cap})"
            )
        for choice in itertools.product(range(len(mverts)), repeat=len(pos)):
            vec = []
            for i, hist_w in enumerate(pv):
                if hist_w == 0:
                    vec.extend([0] * len(model.supports[n - 1]))
                else:
                    cond = mverts[choice[pos.index(i)]]
                    vec.extend([hist_w * c for c in cond])
            out.append(vec)
    # deduplicate
    seen = {}
    for v in out:
        seen.setdefault(tuple(Fraction(x) for x in v), v)
    return list(seen.values())


def check_peng_independence(
    model: JointModel,
    n: int,
    mode: str = "probe",
    probes=None,
    tol=None,
    cap: int = DEFAULT_ENUM_CAP,
) -> IndependenceReport:
    """Decide whether X_n is independent of (X_1..X_{n-1}) in the nested sense.

    ``probe`` mode compares the joint and nested values on a finite family of
    test functions and can only refute (or report "not refuted").  ``exact``
    mode compares the hull of the joint laws with the step-n rectangular
    polytope by mutual vertex membership, which decides equality of the two
    sublinear functionals outright.
    """
    if not 1 <= n <= model.n_variables:
        raise ModelError(f"step {n} out of range")
    effective = _tolerance(model.exact(), tol)

    if mode == "probe":
        family = probes if probes is not None else default_probes(model, n)
        worst = 0
        for name, phi in family:
            left = joint_value(model, n, phi)
            right = nested_value(model, n, phi)
            gap = abs(right - left)
            if gap > effective:
                return IndependenceReport(
                    False,
                    witness={"probe": name, "joint": left, "nested": right},
                    gap=gap,
                )
            worst = max(worst, gap)
        return IndependenceReport(True, witness={"mode": "not-refuted"}, gap=worst)

    if mode == "exact":
        size = 1
        for s in model.shape[:n]:
            size *= s
        if size > cap:
            raise ModelTooLarge(f"support grid of size {size} exceeds the cap ({cap})")
        joints = [model.prefix_law(ti, n) for ti in range(len(model.tables))]
        poly = _step_polytope_vertices(model, n, cap)
        for ti, j in enumerate(joints):
            gap, direction = hull_gap(j, poly)
            if gap > effective:
                return IndependenceReport(
                    False,
                    witness={"measure": ti, "side": "joint-outside", "direction": direction},
                    gap=gap,
                )
        for vi, v in enumerate(poly):
            gap, direction = hull_gap(v, joints)
            if gap > effective:
                return IndependenceReport(
                    False,
                    witness={"vertex": vi, "side": "polytope-outside", "direction": direction},
                    gap=gap,
                )
        return IndependenceReport(True)

    raise ModelError(f"mode must be 'probe' or 'exact', got {mode!r}")


def enlarge_vertices(model: JointModel, cap: int = DEFAULT_ENUM_CAP) -> JointModel:
    """Extreme points of the enlargement: all joints assembled from a
    marginal-1 hull vertex and one marginal-k hull vertex per positive
    history, for every step k.

    The upper expectation over the result equals the full nested recursion
    value for every test function.
    """
    nvars = model.n_variables
    vert_sets = []
    for k in range(1, nvars + 1):
        marginals = [model.marginal_law(ti, k) for ti in range(len(model.tables))]
        vert_sets.append([marginals[i] for i in hull_vertices(marginals)])

    # partial joints over the first k coordinates, as flat vectors
    partials = [list(v) for v in vert_sets[0]]
    for k in range(2, nvars + 1):
        mverts = vert_sets[k - 1]
        support_k = len(model.supports[k - 1])
        new_partials = []
        for pv in partials:
            pos = [i for i, w in enumerate(pv) if w != 0]
            count = len(mverts) ** len(pos)
            if len(new_partials) + count > cap:
                raise ModelTooLarge(f"enlargement enumeration exceeds the cap ({cap})")
            for choice in itertools.product(range(len(mverts)), repeat=len(pos)):
                vec = []
                for i, hist_w in enumerate(pv):
                    if hist_w == 0:
                        vec.extend([0] * support_k)
                    else:
                        cond = mverts[choice[pos.index(i)]]
                        vec.extend([hist_w * c for c in cond])
                new_partials.append(vec)
        partials = new_partials

    seen = {}
    for v in partials:
        seen.setdefault(tuple(Fraction(x) for x in v), v)
    tables = [tuple(v) for v in seen.values()]
    return JointModel(model.variable_names, model.supports, tables)
