"""A small expression language for test functions of one variable.

Grammar (left-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | 'x' | '(' expr ')' | FUNC '(' expr (',' expr)* ')'
    FUNC   in {abs, min, max, clamp, pow, sqrt, exp}

NUMBER is a decimal literal; rationals are written ``p/q`` and fold to an
exact Fraction at parse time.  The exact subset, {+,-,*,abs,min,max,clamp}
plus division by a constant, keeps evaluation closed over the rationals: an
expression in it evaluates an int or Fraction argument exactly, and any other
argument in float.

The text is parsed by Python's own parser (:func:`ast.parse`), which has this
grammar's precedence and associativity, restricted to the grammar above: any
other character, literal form or construct is a UsageError.  Nesting is
bounded: more than 200 nested parentheses, or an expression deeper than the
interpreter's recursion limit, is a UsageError too.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
import warnings
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NumericalFailure, UsageError

_ARITY = {"abs": (1, 1), "min": (2, None), "max": (2, None),
          "clamp": (3, 3), "pow": (2, 2), "sqrt": (1, 1), "exp": (1, 1)}

_FOREIGN = re.compile(r"[^0-9A-Za-z_.()+\-*/,\s]")
# zeros that begin an integer part, which Python's grammar refuses ("01")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_NUMBER = re.compile(r"\d+(?:\.\d+)?|\.\d+")
_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv}


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


def _compile(root, ops, source):
    """``root``, a tree parsed from ``source``, as nested closures of x over
    the primitives in ``ops``.

    Constant subtrees fold to exact Fractions bottom-up: a negation, sum,
    difference or product of folded constants folds, and so does a quotient
    by a nonzero one; a call never does.  Constants are converted once,
    here.  Raises UsageError on a node outside the grammar or a constant
    past the float range of a float table, and KeyError when the expression
    uses a primitive ``ops`` lacks.
    """
    def closure(value, node):
        if type(value) is Fraction:
            try:
                c = ops["const"](value)
            except OverflowError:
                text = source[node.col_offset:node.end_col_offset]
                raise UsageError(f"constant {text[:20]}... is too large for a float") from None
            return lambda x: c
        return value

    def walk(node):  # a closure, or a Fraction for a folded constant
        if isinstance(node, ast.Constant):
            literal = source[node.col_offset:node.end_col_offset]
            if not _NUMBER.fullmatch(literal):
                raise UsageError(f"syntax error: {literal!r} is not a decimal number")
            try:
                return Fraction(literal)
            except ValueError:  # a decimal past the int-string digit limit
                raise UsageError(f"number {literal[:20]}... has too many digits") from None
        if isinstance(node, ast.Name):
            if node.id != "x":
                raise UsageError(f"unknown name {node.id!r}")
            return lambda x: x
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            f = walk(node.operand)
            return -f if type(f) is Fraction else lambda x: -f(x)
        if isinstance(node, ast.BinOp) and type(node.op) in _FOLD:
            op, a, b = type(node.op), walk(node.left), walk(node.right)
            checked = op is ast.Div and not (type(b) is Fraction and b)
            if type(a) is Fraction and type(b) is Fraction and not checked:
                return _FOLD[op](a, b)
            f, g = closure(a, node.left), closure(b, node.right)
            if checked:
                div = ops["/"]
                return lambda x: div(f(x), g(x))
            if op is ast.Add:
                return lambda x: f(x) + g(x)
            if op is ast.Sub:
                return lambda x: f(x) - g(x)
            if op is ast.Mult:
                return lambda x: f(x) * g(x)
            return lambda x: f(x) / g(x)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            name, args = node.func.id, node.args
            if name not in _ARITY:
                raise UsageError(f"unknown function {name!r}")
            lo, hi = _ARITY[name]
            if len(args) < lo or (hi is not None and len(args) > hi):
                raise UsageError(
                    f"{name} takes {lo}{'' if hi == lo else '+' if hi is None else f'..{hi}'}"
                    f" arguments, got {len(args)}"
                )
            if "," in source[args[-1].end_col_offset:node.end_col_offset]:
                raise UsageError(f"syntax error: trailing comma in a call of {name}")
            fs = [closure(walk(a), a) for a in args]
            if name == "clamp":
                mx, mn = ops["max"], ops["min"]
                f, lo, hi = fs
                return lambda x: mn(mx(f(x), lo(x)), hi(x))
            fn = ops[name]
            if len(fs) == 1:
                f = fs[0]
                return lambda x: fn(f(x))
            if len(fs) == 2:
                f, g = fs
                return lambda x: fn(f(x), g(x))
            # min/max of three or more arguments, folded left to right
            return lambda x: functools.reduce(fn, [f(x) for f in fs])
        raise UsageError(f"syntax error: {source[node.col_offset:node.end_col_offset]!r} "
                         "is outside the phi grammar")

    return closure(walk(root), root)


class PhiExpression:
    """A parsed test function; callable on floats or Fractions.

    The Python expression tree of ``text`` is compiled once into three
    closures: a float scalar one, a float64 array one (see
    :func:`evaluate_array`) and, when the expression lies in the exact
    subset, a Fraction one.  A call takes the Fraction closure on an int or
    Fraction argument when there is one, and the float closure otherwise;
    ``exact=True`` forces the Fraction closure (UsageError outside the subset).
    """

    def __init__(self, text: str):
        if not text or not text.strip():
            raise UsageError("empty expression")
        foreign = _FOREIGN.search(text)
        if foreign:
            raise UsageError(f"syntax error at position {foreign.start()}: "
                             f"unexpected {foreign.group()!r}")
        # one line, as Python's parser wants it outside brackets
        source = _LEADING_ZEROS.sub("", " ".join(text.split()))
        self.text = text
        try:
            with warnings.catch_warnings():
                # e.g. "invalid decimal literal" for "1if x else 2"
                warnings.simplefilter("error")
                root = ast.parse(source, mode="eval").body
            self._scalar = _compile(root, _SCALAR_OPS, source)
        except SyntaxError as e:
            raise UsageError(f"syntax error: {e.msg}") from None
        except (RecursionError, MemoryError):  # the parser's stack overflow is a MemoryError
            raise UsageError("expression nested too deeply") from None
        self._array = _compile(root, _ARRAY_OPS, source)
        try:
            self._exact = _compile(root, _EXACT_OPS, source)
        except KeyError:
            self._exact = None

    def __call__(self, x, exact: bool = False):
        if exact or (self._exact is not None and isinstance(x, (int, Fraction))):
            self.require_exact()
            return self._exact(x)
        return self._scalar(x)

    def require_exact(self):
        """Raise UsageError unless the expression is in the exact subset."""
        if self._exact is None:
            raise UsageError(
                f"expression {self.text!r} uses operations outside the "
                "exact-rational subset {+,-,*,abs,min,max,clamp} plus division "
                "by a constant"
            )

    def __repr__(self):
        return f"PhiExpression({self.text!r})"


def evaluate_array(f: Callable, xs: np.ndarray) -> np.ndarray:
    """``f`` at every point of the float64 array ``xs``, as a float64 array:
    the LLN grid, the G-heat initial data and the DP's terminal values.

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


def parse_phi(text: str) -> PhiExpression:
    """Parse an expression in the phi grammar; raises UsageError on bad input."""
    return PhiExpression(text)
