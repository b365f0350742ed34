"""A small expression language for test functions of one variable.

Grammar (left-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom
    atom   := NUMBER | 'x' | '(' expr ')' | FUNC '(' expr (',' expr)* ')'
    FUNC   in {abs, min, max, clamp, pow, sqrt, exp}

NUMBER is a decimal literal; rationals are written ``p/q`` and fold to an
exact Fraction at parse time.  In exact-rational mode the expression is
restricted to {+,-,*,abs,min,max,clamp} plus division by a constant, which
keeps evaluation closed over the rationals.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NumericalFailure, UsageError

_ARITY = {"abs": (1, 1), "min": (2, None), "max": (2, None),
          "clamp": (3, 3), "pow": (2, 2), "sqrt": (1, 1), "exp": (1, 1)}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?|\.\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[()+\-*/,]))"
)


@dataclass(frozen=True)
class Num:
    value: Fraction

    def pretty(self):
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class Var:
    def pretty(self):
        return "x"


@dataclass(frozen=True)
class Neg:
    child: object

    def pretty(self):
        return f"(-{self.child.pretty()})"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    def pretty(self):
        return f"({self.left.pretty()} {self.op} {self.right.pretty()})"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple

    def pretty(self):
        return f"{self.name}({', '.join(a.pretty() for a in self.args)})"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise UsageError(f"syntax error at position {pos}: {text[pos:]!r}")
                break
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, kind=None, value=None):
        tk, tv, tp = self.peek()
        if tk is None or (kind and tk != kind) or (value and tv != value):
            raise UsageError(f"syntax error at position {tp}: expected {value or kind}, got {tv!r}")
        self.i += 1
        return tv

    def parse(self):
        node = self.expr()
        tk, tv, tp = self.peek()
        if tk is not None:
            raise UsageError(f"syntax error at position {tp}: unexpected {tv!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take("op")
            node = _fold(BinOp(op, node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take("op")
            node = _fold(BinOp(op, node, self.factor()))
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take("op")
            return _fold(Neg(self.factor()))
        return self.atom()

    def atom(self):
        tk, tv, tp = self.peek()
        if tk == "num":
            self.take()
            return Num(Fraction(tv))
        if tk == "name":
            self.take()
            if tv == "x":
                return Var()
            if tv in _ARITY:
                self.take("op", "(")
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take("op")
                    args.append(self.expr())
                self.take("op", ")")
                lo, hi = _ARITY[tv]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise UsageError(
                        f"{tv} takes {lo}{'' if hi == lo else '+' if hi is None else f'..{hi}'}"
                        f" arguments, got {len(args)}"
                    )
                return Call(tv, tuple(args))
            raise UsageError(f"syntax error at position {tp}: unknown name {tv!r}")
        if tk == "op" and tv == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise UsageError(f"syntax error at position {tp}: unexpected {tv!r}")


def _fold(node):
    """Fold constant subtrees into exact Fraction literals where possible."""
    if isinstance(node, Neg) and isinstance(node.child, Num):
        return Num(-node.child.value)
    if isinstance(node, BinOp) and isinstance(node.left, Num) and isinstance(node.right, Num):
        a, b = node.left.value, node.right.value
        if node.op == "+":
            return Num(a + b)
        if node.op == "-":
            return Num(a - b)
        if node.op == "*":
            return Num(a * b)
        if node.op == "/" and b != 0:
            return Num(a / b)
    return node


def _scalar_div(a, b):
    if b == 0:
        raise NumericalFailure("division by zero")
    return a / b


def _scalar_sqrt(a):
    if a < 0:
        raise NumericalFailure("sqrt of a negative value")
    return math.sqrt(a)


def _scalar_checked(fn, name):
    def call(*args):
        try:
            return fn(*args)
        except (OverflowError, ValueError):
            raise NumericalFailure(f"{name} outside its domain or range") from None
    return call


def _array_div(a, b):
    if np.any(b == 0):
        raise NumericalFailure("division by zero")
    return a / b


def _array_sqrt(a):
    if np.any(a < 0):
        raise NumericalFailure("sqrt of a negative value")
    return np.sqrt(a)


def _array_checked(fn, name):
    def call(*args):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args)
        except FloatingPointError:
            raise NumericalFailure(f"{name} outside its domain or range") from None
    return call


# Python's min/max keep the earlier operand unless the later one compares
# strictly smaller/larger; np.where reproduces that for signed zeros and NaN,
# where np.minimum/np.maximum would not.
def _array_min(a, b):
    return np.where(b < a, b, a)


def _array_max(a, b):
    return np.where(b > a, b, a)


# Primitive tables for _compile.  '+', '-', '*', negation and division by a
# nonzero constant are Python operators on every type; the exact table lacks
# the checked '/', sqrt, exp and pow, which keeps it closed over the rationals.
_SCALAR_OPS = {"const": float, "/": _scalar_div, "abs": abs, "min": min, "max": max,
               "sqrt": _scalar_sqrt, "exp": _scalar_checked(math.exp, "exp"),
               "pow": _scalar_checked(math.pow, "pow")}
_ARRAY_OPS = {"const": float, "/": _array_div, "abs": np.abs, "min": _array_min,
              "max": _array_max, "sqrt": _array_sqrt, "exp": _array_checked(np.exp, "exp"),
              "pow": _array_checked(np.power, "pow")}
_EXACT_OPS = {"const": Fraction, "abs": abs, "min": min, "max": max}


def _compile(node, ops):
    """The expression as nested closures of x over the primitives in ``ops``.

    Constants are converted once, here.  Raises KeyError when the expression
    uses a primitive ``ops`` lacks.
    """
    if isinstance(node, Num):
        c = ops["const"](node.value)
        return lambda x: c
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        f = _compile(node.child, ops)
        return lambda x: -f(x)
    if isinstance(node, BinOp):
        f, g = _compile(node.left, ops), _compile(node.right, ops)
        if node.op == "+":
            return lambda x: f(x) + g(x)
        if node.op == "-":
            return lambda x: f(x) - g(x)
        if node.op == "*":
            return lambda x: f(x) * g(x)
        if isinstance(node.right, Num) and node.right.value != 0:
            return lambda x: f(x) / g(x)
        div = ops["/"]
        return lambda x: div(f(x), g(x))
    fs = [_compile(a, ops) for a in node.args]
    if node.name == "clamp":
        mx, mn = ops["max"], ops["min"]
        f, lo, hi = fs
        return lambda x: mn(mx(f(x), lo(x)), hi(x))
    fn = ops[node.name]
    if len(fs) == 1:
        f = fs[0]
        return lambda x: fn(f(x))
    if len(fs) == 2:
        f, g = fs
        return lambda x: fn(f(x), g(x))
    # min/max of three or more arguments, folded left to right
    return lambda x: functools.reduce(fn, [f(x) for f in fs])


class PhiExpression:
    """A parsed test function; callable on floats or Fractions.

    The AST is compiled once into three closures: a float scalar one (the
    default call), a float64 array one (see :func:`evaluate_array`) and, when
    the expression lies in the exact subset, a Fraction one (``exact=True``).
    """

    def __init__(self, root, text: str):
        self.root = root
        self.text = text
        self._scalar = _compile(root, _SCALAR_OPS)
        self._array = _compile(root, _ARRAY_OPS)
        try:
            self._exact = _compile(root, _EXACT_OPS)
        except KeyError:
            self._exact = None
        self._rationals_exact = False

    def __call__(self, x, exact: bool = False):
        if exact or (self._rationals_exact and isinstance(x, (int, Fraction))):
            self.require_exact()
            return self._exact(x)
        return self._scalar(x)

    def exact_on_rationals(self) -> PhiExpression:
        """This expression, evaluated exactly on int and Fraction arguments
        and in float on float arguments and arrays.  Raises UsageError
        outside the exact subset."""
        self.require_exact()
        twin = copy.copy(self)
        twin._rationals_exact = True
        return twin

    def require_exact(self):
        """Raise UsageError unless the expression is in the exact subset."""
        if self._exact is None:
            raise UsageError(
                f"expression {self.text!r} uses operations outside the "
                "exact-rational subset {+,-,*,abs,min,max,clamp} plus division "
                "by a constant"
            )

    @property
    def exact_capable(self) -> bool:
        return self._exact is not None

    def pretty(self) -> str:
        return self.root.pretty()

    def __repr__(self):
        return f"PhiExpression({self.text!r})"

    def __eq__(self, other):
        return isinstance(other, PhiExpression) and self.root == other.root

    def __hash__(self):
        return hash(self.root)


def evaluate_array(f: Callable, xs: np.ndarray) -> np.ndarray:
    """``f`` at every point of the float64 array ``xs``, as a float64 array.

    A PhiExpression runs its compiled array closure, which gives the scalar
    call's values (to 1 ulp where exp or pow is involved); any other
    callable is called once per point on Python floats.  Raises
    NumericalFailure on a non-finite value.
    """
    if isinstance(f, PhiExpression):
        # overflow to inf and inf - inf are left to the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            # a fresh array even for "x" itself or an x-free expression
            out = np.array(np.broadcast_to(f._array(xs), xs.shape))
    else:
        out = np.fromiter((f(x) for x in xs.tolist()), dtype=float, count=len(xs))
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("test function produced non-finite values")
    return out


def lipschitz_estimate(f: Callable, lo: float, hi: float, samples: int = 2001) -> float:
    """Max sampled difference quotient of ``f`` on [lo, hi], with a 2x
    safety factor."""
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return 0.0
    step = (hi - lo) / (samples - 1)
    vals = evaluate_array(f, lo + np.arange(samples, dtype=float) * step)
    return 2.0 * float(np.max(np.abs(np.diff(vals)) / step))


def parse_phi(text: str) -> PhiExpression:
    """Parse an expression in the phi grammar; raises UsageError on bad input."""
    if not text or not text.strip():
        raise UsageError("empty expression")
    return PhiExpression(_Parser(text).parse(), text)
