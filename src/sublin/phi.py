"""A small expression language for test functions of one variable.

Grammar (left-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom
    atom   := NUMBER | 'x' | '(' expr ')' | FUNC '(' expr (',' expr)* ')'
    FUNC   in {abs, min, max, clamp, pow, sqrt, exp}

NUMBER is a decimal literal; rationals are written ``p/q`` and fold to an
exact Fraction at parse time.  In exact-rational mode the expression is
restricted to {+,-,*,abs,min,max,clamp} plus constant division, which keeps
evaluation closed over the rationals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericalFailure, UsageError

_ARITY = {"abs": (1, 1), "min": (2, None), "max": (2, None),
          "clamp": (3, 3), "pow": (2, 2), "sqrt": (1, 1), "exp": (1, 1)}
_EXACT_FUNCS = {"abs", "min", "max", "clamp"}

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


def _eval(node, x, exact: bool):
    if isinstance(node, Num):
        return node.value if exact else float(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.child, x, exact)
    if isinstance(node, BinOp):
        a = _eval(node.left, x, exact)
        b = _eval(node.right, x, exact)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise NumericalFailure("division by zero")
        return a / b
    args = [_eval(a, x, exact) for a in node.args]
    name = node.name
    if name == "abs":
        return abs(args[0])
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    if name == "clamp":
        return min(max(args[0], args[1]), args[2])
    if name == "pow":
        return args[0] ** args[1]
    if name == "sqrt":
        if args[0] < 0:
            raise NumericalFailure("sqrt of a negative value")
        return math.sqrt(args[0])
    if name == "exp":
        return math.exp(args[0])
    raise AssertionError(name)


def _exact_ok(node) -> bool:
    if isinstance(node, (Num, Var)):
        return True
    if isinstance(node, Neg):
        return _exact_ok(node.child)
    if isinstance(node, BinOp):
        # '/' survives folding only with a non-constant operand
        return node.op != "/" and _exact_ok(node.left) and _exact_ok(node.right)
    return node.name in _EXACT_FUNCS and all(_exact_ok(a) for a in node.args)


class PhiExpression:
    """A parsed test function; callable on floats or Fractions."""

    def __init__(self, root, text: str):
        self.root = root
        self.text = text

    def __call__(self, x, exact: bool = False):
        if exact:
            self.require_exact()
        return _eval(self.root, x, exact)

    def require_exact(self):
        """Raise UsageError unless the expression is in the exact subset."""
        if not self.exact_capable:
            raise UsageError(
                f"expression {self.text!r} uses operations outside the "
                "exact-rational subset {+,-,*,abs,min,max,clamp}"
            )

    @property
    def exact_capable(self) -> bool:
        return _exact_ok(self.root)

    def pretty(self) -> str:
        return self.root.pretty()

    def lipschitz_estimate(self, lo: float, hi: float, samples: int = 2001) -> float:
        """Max sampled difference quotient on [lo, hi], with a 2x safety factor."""
        if hi <= lo:
            return 0.0
        step = (hi - lo) / (samples - 1)
        prev = self(lo)
        worst = 0.0
        for i in range(1, samples):
            cur = self(lo + i * step)
            worst = max(worst, abs(cur - prev) / step)
            prev = cur
        return 2.0 * worst

    def __repr__(self):
        return f"PhiExpression({self.text!r})"

    def __eq__(self, other):
        return isinstance(other, PhiExpression) and self.root == other.root

    def __hash__(self):
        return hash(self.root)


def parse_phi(text: str) -> PhiExpression:
    """Parse an expression in the phi grammar; raises UsageError on bad input."""
    if not text or not text.strip():
        raise UsageError("empty expression")
    return PhiExpression(_Parser(text).parse(), text)
