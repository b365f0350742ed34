"""Finite joint models and the independence decision procedures.

On a finite support of size m the bounded-Lipschitz test functions span
all of R^m, so the quantified conditions reduce to convex-hull
membership of law vectors, at most one linear program per history:

* pseudo-independence at step n: every positive-probability conditional
  law of X_n lies in the hull of the marginal laws of X_n;
* full (nested) independence at step n: the hull of the joint laws
  equals the rectangular polytope R built from the prefix hull and one
  marginal-hull choice per history (Peng, Nonlinear Expectations and
  Stochastic Calculus under Uncertainty, 2019).  The joints lie in R exactly
  when X_n is pseudo-independent; R then lies in their hull exactly when its
  vertices are all joints.

A law equal to one of the hull's own points (a conditional law equal to a
marginal, a vertex equal to a joint) is inside with gap 0 and gets no LP.
So on exact inputs the vertex walk solves at most one LP, for the first
vertex that is not a joint: it lies outside, and its LP gives the witness
its gap and direction.

Zero-probability histories are skipped, matching the P-a.s. quantifier.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .errors import ModelError, ModelTooLarge, NullHistoryError
from .linprog import hull_gap, hull_vertices
from .measures import (
    NumericMode, _array, _measures, _read_json, _tolerance, check_weights, is_exact, parse_number,
)

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
        size = math.prod(len(s) for s in supports)
        tables = tuple(tuple(t) for t in tables)
        if not tables:
            raise ModelError("need at least one joint table")
        for t in tables:
            if len(t) != size:
                raise ModelError(f"table has {len(t)} cells, grid has {size}")
            check_weights(t)
        object.__setattr__(self, "variable_names", variable_names)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "tables", tables)

    @property
    def n_variables(self) -> int:
        return len(self.supports)

    @property
    def shape(self):
        return tuple(len(s) for s in self.supports)

    def grid(self):
        """Index tuples of the support grid, in row-major order."""
        return itertools.product(*(range(len(s)) for s in self.supports))

    @functools.cached_property
    def _prefix_laws(self):
        """``[t][k]``: the law of (X_1..X_k) under table t, a dict from
        support-index tuples to weights in grid order, for k = 0..N.  Each
        weight sums its cells in grid order; k = 0 is the unit mass on ()."""
        out = []
        for table in self.tables:
            laws = [{(): 1}]
            for k in range(1, self.n_variables + 1):
                law = {}
                for idx, w in zip(self.grid(), table):
                    law[idx[:k]] = law.get(idx[:k], 0) + w
                laws.append(law)
            out.append(laws)
        return out

    def prefix_law(self, table_index: int, upto: int):
        """Joint law of (X_1..X_upto) as a flat vector over the prefix grid."""
        return list(self._prefix_laws[table_index][upto].values())

    def marginal_law(self, table_index: int, k: int):
        """Unconditional law of X_k (1-based) as a vector over its support."""
        out = [0] * len(self.supports[k - 1])
        for idx, w in zip(self.grid(), self.tables[table_index]):
            out[idx[k - 1]] += w
        return tuple(out)

    def conditional_law(self, table_index: int, k: int, history_idx: tuple):
        """Law of X_k given X_1..X_{k-1} = history (support indices)."""
        law = self._prefix_laws[table_index][k]
        history_idx = tuple(history_idx)
        weights = [law.get(history_idx + (j,), 0) for j in range(len(self.supports[k - 1]))]
        total = sum(weights)
        if total == 0:
            raise NullHistoryError(f"history {history_idx} has probability zero")
        return tuple(w / total for w in weights)

    def exact(self) -> bool:
        return all(
            all(is_exact(w) for w in t) for t in self.tables
        ) and all(all(is_exact(x) for x in s) for s in self.supports)


def _flatten(nested, shape):
    if not shape:
        return [nested]
    if not isinstance(nested, list) or len(nested) != shape[0]:
        raise ModelError("table shape does not match supports")
    out = []
    for sub in nested:
        out.extend(_flatten(sub, shape[1:]))
    return out


def joint_model_from_dict(doc: dict, mode: NumericMode = NumericMode.FLOAT64) -> JointModel:
    """Build a JointModel from a joint-model file's JSON document, an object
    with nonempty arrays ``variables`` of strings, ``supports`` of nonempty
    arrays of numbers (see :func:`parse_number`) and ``measures`` of objects
    whose ``table`` nests one array per variable.  Raises ModelError."""
    entries = _measures(doc)
    names = _array(doc.get("variables"), "variables")
    if not all(isinstance(v, str) for v in names):
        raise ModelError("invalid model file: variables must be strings")
    supports = [[parse_number(v, mode) for v in _array(s, "each support")]
                for s in _array(doc.get("supports"), "supports")]
    shape = tuple(len(s) for s in supports)
    tables = []
    for entry in entries:
        if "table" not in entry:
            raise ModelError("invalid model file: each measure needs a table")
        tables.append([parse_number(v, mode) for v in _flatten(entry["table"], shape)])
    return JointModel(names, supports, tables)


def load_joint_model(path: str, mode: NumericMode = NumericMode.FLOAT64) -> JointModel:
    return joint_model_from_dict(_read_json(path), mode)


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


def positive_histories(model: JointModel, table_index: int, n: int):
    """Positive-probability histories (index tuples) of X_1..X_{n-1}."""
    return [idx for idx, w in model._prefix_laws[table_index][n - 1].items() if w > 0]


def check_pseudo_independence(model: JointModel, n: int) -> IndependenceReport:
    """Def-style check: each conditional law of X_n lies in the hull of the
    marginal laws of X_n, for every measure and positive-probability history,
    exactly on exact models and within HULL_TOL otherwise.  A conditional law
    equal to a marginal law is inside with gap 0 and gets no LP.  The reported
    gap is a Fraction on an exact model and a float on a float one."""
    if not 1 <= n <= model.n_variables:
        raise ModelError(f"step {n} out of range")
    marginals = [model.marginal_law(ti, n) for ti in range(len(model.tables))]
    members = set(marginals)
    exact = model.exact()
    effective = _tolerance(exact)
    worst = 0
    for ti in range(len(model.tables)):
        for hist in positive_histories(model, ti, n):
            cond = model.conditional_law(ti, n, hist)
            if cond in members:  # a hull point: gap 0, as the LP finds
                continue
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
                    gap=_reported(gap, exact),
                )
            worst = max(worst, gap)
    return IndependenceReport(True, gap=_reported(worst, exact))


def _reported(gap, exact):
    """A hull gap as reported: the exact Fraction on an exact model, a float
    on a float one, as the probe mode's gaps are."""
    return gap if exact else float(gap)


def default_probes(model: JointModel, n: int):
    """Probe family: the all-coordinates-equal indicator (the sharpest
    known refuter), per-coordinate hats, and their pairwise products."""

    def hat(*cells):
        name = "*".join(f"hat({model.variable_names[k]}={t})" for k, t in cells)
        return name, lambda values: 1 if all(values[k] == t for k, t in cells) else 0

    singles = [[(k, t) for t in model.supports[k]] for k in range(n)]
    probes = [("all-equal", lambda values: 1 if all(v == values[0] for v in values) else 0)]
    probes += [hat(c) for row in singles for c in row]
    for k1, k2 in itertools.combinations(range(n), 2):
        probes += [hat(a, b) for a, b in itertools.product(singles[k1], singles[k2])]
    return probes


def joint_value(model: JointModel, n: int, phi: Callable):
    """E over the joint laws of the prefix: sup_P E_P[phi(X_1..X_n)];
    ``phi`` takes the tuple of support values."""
    best = None
    for laws in model._prefix_laws:
        val = sum(
            w * phi(tuple(model.supports[j][i] for j, i in enumerate(idx)))
            for idx, w in laws[n].items()
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

    return joint_value(model, n - 1, inner)


def _marginal_vertices(model: JointModel, k: int):
    """Extreme points of the hull of the marginal laws of X_k, up to the
    model's tolerance."""
    marginals = [model.marginal_law(ti, k) for ti in range(len(model.tables))]
    return [marginals[i] for i in hull_vertices(marginals, _tolerance(model.exact()))]


def _assemble(bases, marginal_vertices, width, cap, what):
    """Yield every product of a base law (a flat vector over a prefix grid)
    with one marginal vertex per positive-weight cell, as flat vectors over
    the prefix grid times a support of ``width`` points, in enumeration order
    and not deduplicated.  Raises ModelTooLarge in place of a product past
    the ``cap``-th."""
    count = 0
    for base in bases:
        for choice in itertools.product(marginal_vertices, repeat=sum(w != 0 for w in base)):
            count += 1
            if count > cap:
                raise ModelTooLarge(f"{what} enumeration exceeds the cap ({cap})")
            conds = iter(choice)
            vec = []
            for w in base:
                vec.extend([w * c for c in next(conds)] if w != 0 else [0] * width)
            yield vec


def check_peng_independence(model: JointModel, n: int, mode: str = "probe") -> IndependenceReport:
    """Decide whether X_n is independent of (X_1..X_{n-1}) in the nested sense.

    ``probe`` mode compares the joint and nested values on the test functions
    of :func:`default_probes` and can only refute (or report "not refuted").
    ``exact`` mode decides outright: :func:`check_pseudo_independence` (its witness
    gains ``side="joint-outside"``), then a walk over the step-n polytope's
    vertices that stops at the first outside the hull of the joints (witness
    ``side="polytope-outside"`` and its ``vertex`` index).  A vertex equal to
    a joint is inside with gap 0 and gets no LP; on exact inputs every other
    vertex is outside, so the walk solves at most one LP, the witness's.
    DEFAULT_ENUM_CAP bounds the support grid and the walk.  Gaps are compared
    exactly on exact models and within HULL_TOL otherwise, and reported as
    floats on a float model.
    """
    if not 1 <= n <= model.n_variables:
        raise ModelError(f"step {n} out of range")
    exact = model.exact()
    effective = _tolerance(exact)

    if mode == "probe":
        worst = 0
        for name, phi in default_probes(model, n):
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
        size = math.prod(model.shape[:n])
        if size > DEFAULT_ENUM_CAP:
            raise ModelTooLarge(
                f"support grid of size {size} exceeds the cap ({DEFAULT_ENUM_CAP})")
        pseudo = check_pseudo_independence(model, n)
        if not pseudo:
            return replace(pseudo, witness={**pseudo.witness, "side": "joint-outside"})
        joints = [model.prefix_law(ti, n) for ti in range(len(model.tables))]
        members = {tuple(j) for j in joints}
        prefixes = [model.prefix_law(ti, n - 1) for ti in range(len(model.tables))]
        vertices = _assemble([prefixes[i] for i in hull_vertices(prefixes, effective)],
                             _marginal_vertices(model, n), len(model.supports[n - 1]),
                             DEFAULT_ENUM_CAP, "step polytope")
        for vi, v in enumerate(vertices):
            if tuple(v) in members:  # a joint: gap 0, as the LP finds
                continue
            gap, direction = hull_gap(v, joints)
            if gap > effective:
                witness = {"vertex": vi, "side": "polytope-outside", "direction": direction}
                return IndependenceReport(False, witness, _reported(gap, exact))
        return IndependenceReport(True)

    raise ModelError(f"mode must be 'probe' or 'exact', got {mode!r}")


def enlarge_vertices(model: JointModel) -> JointModel:
    """Extreme points of the enlargement: all joints assembled from a
    marginal-1 hull vertex and one marginal-k hull vertex per positive
    history, for every step k, capped at DEFAULT_ENUM_CAP products.

    The upper expectation over the result equals the full nested recursion
    value for every test function.  The tables are pairwise distinct: a
    product's row sums give its base and its quotients on positive cells its
    choice of vertices.
    """
    partials = [[1]]
    for k in range(1, model.n_variables + 1):
        partials = list(_assemble(partials, _marginal_vertices(model, k),
                                  len(model.supports[k - 1]), DEFAULT_ENUM_CAP,
                                  "enlargement"))
    return JointModel(model.variable_names, model.supports, [tuple(v) for v in partials])
