"""Discrete probability laws, ambiguity sets, and their upper envelopes.

An :class:`AmbiguitySet` is a finite set of finitely supported laws; it
induces the sublinear expectation ``sup_P E_P[f]``, the conjugate pair of
upper/lower probabilities, and an exact identical-distribution test via
convex-hull comparison of the law vectors.

Numbers may be ints, floats, or :class:`~fractions.Fraction`.  Rational
inputs stay rational through every operation, which is what makes the
exact-rational mode of the rest of the package work.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import ModelError, NumericalFailure
from .linprog import _integer_row, in_hull

WEIGHT_TOL = 1e-12
HULL_TOL = 1e-9
# the most digits, and the largest decimal exponent, a number string may have
MAX_NUMBER_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


class NumericMode(Enum):
    FLOAT64 = "float64"
    EXACT = "exact-rational"


def parse_number(value, mode: NumericMode = NumericMode.FLOAT64):
    """Read a number from JSON: a plain number or a string like ``"9/16"``.
    Anything else, a bool included, raises ModelError, and so does a string
    with more than MAX_NUMBER_DIGITS digits or a larger exponent, before
    ``Fraction`` expands it."""
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if sum(map(str.isdigit, value)) > MAX_NUMBER_DIGITS or (
            exponent and abs(int(exponent[1])) > MAX_NUMBER_DIGITS
        ):
            raise ModelError(f"number string over {MAX_NUMBER_DIGITS} digits or "
                             f"exponent: {value[:20]!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ModelError(f"not a number: {value!r}") from e
    if is_exact(value):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ModelError(f"non-finite number {value!r}")
        if mode is NumericMode.EXACT:
            # decimal floats were typed by a human; recover the short rational
            return Fraction(repr(value))
        return value
    raise ModelError(f"not a number: {value!r}")


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def check_weights(weights: Sequence):
    """The one rule for the weights of a law: all finite, none negative
    (below -WEIGHT_TOL for floats) and a total of 1, exactly when every
    weight is rational and within WEIGHT_TOL otherwise.  Raises ModelError.

    A rational total is taken on integer numerators over the weights' lcm
    denominator; the Fraction total is built only for the error message."""
    exact = True
    for w in weights:
        if is_exact(w):
            negative = w < 0
        else:
            exact = False
            if not math.isfinite(w):
                raise ModelError(f"non-finite weight {w!r}")
            negative = w < -WEIGHT_TOL
        if negative:
            raise ModelError(f"negative weight {w!r}")
    if exact:
        nums, den = _integer_row(weights)
        if sum(nums) != den:
            total = Fraction(sum(nums), den)
            # a total over several long denominators may be too long to print
            raise ModelError(f"weights sum to {total}, not 1" if total.denominator < 10**50
                             else "weights do not sum to 1")
        return
    try:
        total = sum(weights)
    except OverflowError as e:  # an int or Fraction beyond float range met a float
        raise ModelError("weights sum beyond the float range, not 1") from e
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ModelError(f"weights sum to {total!r}, not 1")


def _check_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        raise NumericalFailure("test function produced a non-finite value")
    return v


@dataclass(frozen=True)
class DiscreteDistribution:
    """One probability law with finite real support.

    ``atoms`` is a tuple of ``(point, weight)`` pairs with strictly
    increasing points.  Duplicate points are merged at construction;
    zero-weight atoms are kept (they change nothing).  A point must be an
    int, a Fraction or a float (not a bool); anything else raises ModelError.
    """

    atoms: tuple

    def __init__(self, points: Sequence, weights: Sequence):
        if len(points) != len(weights) or not points:
            raise ModelError("points and weights must be nonempty and equal length")
        check_weights(weights)
        merged: dict = {}
        for x, w in zip(points, weights):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction, float)):
                raise ModelError(f"not a number: {x!r}")
            if x in merged:
                merged[x] += w
            else:  # 0 + w turns a bool into an int and -0.0 into 0.0
                merged[x] = w if type(w) is int or type(w) is Fraction else 0 + w
        pairs = tuple(sorted(merged.items(), key=lambda kv: kv[0]))
        object.__setattr__(self, "atoms", pairs)

    @property
    def points(self):
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self):
        return tuple(w for _, w in self.atoms)

    def expectation(self, f: Callable):
        return sum(w * _check_value(f(x)) for x, w in self.atoms if w != 0)

    def law_vector(self, support: Sequence):
        """Weights aligned to an enclosing support (0 off the support)."""
        lookup = dict(self.atoms)
        return [lookup.get(x, 0) for x in support]

    def map(self, g: Callable) -> "DiscreteDistribution":
        """Law of ``g(X)``; colliding images merge their weights."""
        return DiscreteDistribution([g(x) for x, _ in self.atoms], list(self.weights))

    def exact(self) -> bool:
        return all(is_exact(x) and is_exact(w) for x, w in self.atoms)


def dirac(x) -> DiscreteDistribution:
    return DiscreteDistribution([x], [1])


def bernoulli(p) -> DiscreteDistribution:
    return DiscreteDistribution([0, 1], [1 - p, p])


def rademacher(scale=1) -> DiscreteDistribution:
    half = Fraction(1, 2) if is_exact(scale) else 0.5
    return DiscreteDistribution([-scale, scale], [half, half])


@dataclass(frozen=True)
class AmbiguitySet:
    """A finite, nonempty set of discrete laws for one coordinate."""

    members: tuple
    label: str = ""

    def __init__(self, members: Sequence[DiscreteDistribution], label: str = ""):
        members = tuple(members)
        if not members:
            raise ModelError("ambiguity set must be nonempty")
        for m in members:
            if not isinstance(m, DiscreteDistribution):
                raise ModelError("members must be DiscreteDistribution")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "label", label)

    def union_support(self):
        return tuple(sorted({x for m in self.members for x in m.points}))

    def map(self, g: Callable, label: str = "") -> "AmbiguitySet":
        return AmbiguitySet([m.map(g) for m in self.members], label or self.label)

    def exact(self) -> bool:
        return all(m.exact() for m in self.members)


class EnvelopeValue(NamedTuple):
    """An envelope value together with the attaining member index."""

    value: object
    argmax: int


def upper_expectation(aset: AmbiguitySet, f: Callable) -> EnvelopeValue:
    """sup over members of E_P[f], with the maximizing member index."""
    best, arg = None, -1
    for i, m in enumerate(aset.members):
        v = m.expectation(f)
        if best is None or v > best:
            best, arg = v, i
    return EnvelopeValue(best, arg)


def lower_expectation(aset: AmbiguitySet, f: Callable) -> EnvelopeValue:
    """inf over members of E_P[f], as ``-sup E_P[-f]``."""
    value, arg = upper_expectation(aset, lambda x: -f(x))
    return EnvelopeValue(-value, arg)


def upper_probability(aset: AmbiguitySet, event: Callable) -> EnvelopeValue:
    """V(A) = sup over members of P(A), the upper expectation of 1_A."""
    return upper_expectation(aset, lambda x: 1 if event(x) else 0)


def lower_probability(aset: AmbiguitySet, event: Callable) -> EnvelopeValue:
    """v(A) = 1 - V(complement of A); conjugacy holds exactly."""
    value, arg = upper_probability(aset, lambda x: not event(x))
    return EnvelopeValue(1 - value, arg)


def _tolerance(exact: bool):
    """The one tolerance policy: 0 (exact) when the inputs are exact and
    HULL_TOL otherwise."""
    return 0 if exact else HULL_TOL


def same_distribution(a: AmbiguitySet, b: AmbiguitySet, tol=None) -> bool:
    """Whether a and b induce the same sublinear expectation.

    On the union support, test functions span the whole space, so equality
    of the envelopes is exactly equality of the convex hulls of the law
    vectors.  Decided by mutual hull membership.  ``tol=None`` compares
    exactly when both sets are rational and within HULL_TOL otherwise; an
    explicit ``tol`` is honoured (0 is exact).
    """
    support = tuple(sorted(set(a.union_support()) | set(b.union_support())))
    va = [m.law_vector(support) for m in a.members]
    vb = [m.law_vector(support) for m in b.members]
    effective = _tolerance(a.exact() and b.exact()) if tol is None else tol
    return all(in_hull(v, vb, effective) for v in va) and all(
        in_hull(v, va, effective) for v in vb
    )


def _array(value, what: str) -> list:
    """``value`` if it is a nonempty JSON array; ModelError otherwise."""
    if not isinstance(value, list) or not value:
        raise ModelError(f"invalid model file: {what} must be a nonempty array")
    return value


def _measures(doc) -> list:
    """The ``measures`` of a model document: a nonempty array of objects."""
    if not isinstance(doc, dict):
        raise ModelError("invalid model file: the document must be an object")
    entries = _array(doc.get("measures"), "measures")
    if not all(isinstance(e, dict) for e in entries):
        raise ModelError("invalid model file: each measure must be an object")
    return entries


def _read_json(path: str):
    """The JSON document in the file at ``path``; ModelError if the file
    cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ModelError(str(e)) from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError, int-digit limit
        raise ModelError(f"{path} is not a JSON file: {e}") from e


def ambiguity_set_from_dict(doc: dict, mode: NumericMode = NumericMode.FLOAT64) -> AmbiguitySet:
    """Build an AmbiguitySet from a model file's JSON document, an object with
    a nonempty array ``measures`` of objects, each with nonempty, equally long
    arrays ``atoms`` and ``probs`` of numbers (see :func:`parse_number`), and
    an optional string ``label``; other keys are ignored.  Raises ModelError."""
    members = []
    for entry in _measures(doc):
        points = [parse_number(v, mode) for v in _array(entry.get("atoms"), "atoms")]
        weights = [parse_number(v, mode) for v in _array(entry.get("probs"), "probs")]
        members.append(DiscreteDistribution(points, weights))
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ModelError("invalid model file: label must be a string")
    return AmbiguitySet(members, label)


def load_ambiguity_set(path: str, mode: NumericMode = NumericMode.FLOAT64) -> AmbiguitySet:
    return ambiguity_set_from_dict(_read_json(path), mode)
