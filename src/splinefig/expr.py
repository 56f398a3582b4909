"""Expression parsing, evaluation and symbolic differentiation.

Curve and surface definitions arrive as plain text ("x^2*sin(x)",
"8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2") and are compiled to small
immutable syntax trees.  The grammar is conventional infix arithmetic:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ['^' factor]          right associative
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

'^' is right associative; unary minus binds tighter than '*' but looser
than '^' (so "-x^2" reads as "-(x^2)" and "2^-3" is legal).  Implicit
multiplication is not supported: "2x" is a syntax error.  The constants
pi and e fold to literals at parse time; sin, cos, tan, sqrt, exp, log
and abs are the supported functions.  Any other bare name is a free
variable.

Evaluation is strict about domains: division by zero, sqrt/log outside
their domain, overflow, and any NaN or infinity are reported as
DomainError rather than silently propagated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
}

CONSTANTS: dict[str, float] = {"pi": math.pi, "e": math.e}


class ExprError(ValueError):
    """Base class for all expression errors."""


class ParseError(ExprError):
    """Malformed input text; carries the byte offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UnknownIdentifierError(ParseError):
    """A call to a function outside the supported set."""


class EvalError(ExprError):
    """Base class for evaluation-time errors."""


class UnboundVariableError(EvalError):
    """A free variable had no binding."""


class DomainError(EvalError):
    """The expression left the real domain (0 division, sqrt(-1), NaN...)."""


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "ExprNode"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    arg: "ExprNode"


ExprNode = Union[Const, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.next()

    def parse(self) -> ExprNode:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                node = BinOp(text, node, rhs)
            else:
                return node

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.factor()
                node = BinOp(text, node, rhs)
            else:
                return node

    def factor(self) -> ExprNode:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # exponent re-enters factor so "2^-3" and "2^3^2" both work
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> ExprNode:
        kind, text, pos = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nkind, ntext, npos = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {text!r}", pos)
                self.next()
                arg = self.expr()
                k2, t2, p2 = self.peek()
                if k2 == "op" and t2 == ",":
                    raise ParseError(f"{text} takes a single argument", p2)
                self.expect_op(")")
                return Call(text, arg)
            if text in CONSTANTS:
                return Const(CONSTANTS[text])
            if text in FUNCTIONS:
                raise ParseError(f"function {text!r} needs an argument list", pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> ExprNode:
    """Parse source text into an expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def _pow(a: float, b: float) -> float:
    # math.pow rejects negative bases with fractional exponents and
    # 0^negative, which is exactly the domain policy we want.
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"pow({a!r}, {b!r}) undefined") from exc


def evaluate(node: ExprNode, bindings: Mapping[str, float] | None = None) -> float:
    """Evaluate with the given variable bindings.

    Raises UnboundVariableError for missing variables and DomainError
    whenever the result (or an operation) leaves the finite reals.
    """
    value = _eval(node, bindings or {})
    if not math.isfinite(value):
        raise DomainError(f"expression evaluated to {value!r}")
    return value


def _eval(node: ExprNode, b: Mapping[str, float]) -> float:
    if type(node) is Const:
        return node.value
    if type(node) is Var:
        try:
            return b[node.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {node.name!r}") from None
    if type(node) is Neg:
        return -_eval(node.arg, b)
    if type(node) is BinOp:
        left = _eval(node.left, b)
        right = _eval(node.right, b)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0.0:
                raise DomainError("division by zero")
            return left / right
        return _pow(left, right)
    # Call
    try:
        return FUNCTIONS[node.func](_eval(node.arg, b))
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{node.func} left its domain") from exc


def free_vars(node: ExprNode) -> set[str]:
    if type(node) is Var:
        return {node.name}
    if type(node) is Neg:
        return free_vars(node.arg)
    if type(node) is BinOp:
        return free_vars(node.left) | free_vars(node.right)
    if type(node) is Call:
        return free_vars(node.arg)
    return set()


# ---------------------------------------------------------------------------
# constant-folding constructors, used by diff so derivatives stay readable

def _const(x: float) -> Const:
    return Const(float(x))

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(node: ExprNode, value: float | None = None) -> bool:
    return type(node) is Const and (value is None or node.value == value)


def _add(a: ExprNode, b: ExprNode) -> ExprNode:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: ExprNode, b: ExprNode) -> ExprNode:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    return BinOp("-", a, b)


def _neg(a: ExprNode) -> ExprNode:
    if _is_const(a):
        return _const(-a.value)
    if type(a) is Neg:
        return a.arg
    return Neg(a)


def _mul(a: ExprNode, b: ExprNode) -> ExprNode:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: ExprNode, b: ExprNode) -> ExprNode:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return _const(a.value / b.value)
    return BinOp("/", a, b)


def _pown(a: ExprNode, b: ExprNode) -> ExprNode:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    if _is_const(a) and _is_const(b):
        try:
            return _const(_pow(a.value, b.value))
        except DomainError:
            pass
    return BinOp("^", a, b)


def diff(node: ExprNode, var: str) -> ExprNode:
    """Symbolic derivative with respect to var, with constant folding."""
    if type(node) is Const:
        return _ZERO
    if type(node) is Var:
        return _ONE if node.name == var else _ZERO
    if type(node) is Neg:
        return _neg(diff(node.arg, var))
    if type(node) is BinOp:
        left, right = node.left, node.right
        dl = diff(left, var)
        dr = diff(right, var)
        op = node.op
        if op == "+":
            return _add(dl, dr)
        if op == "-":
            return _sub(dl, dr)
        if op == "*":
            return _add(_mul(dl, right), _mul(left, dr))
        if op == "/":
            num = _sub(_mul(dl, right), _mul(left, dr))
            return _div(num, _mul(right, right))
        # power
        if _is_const(right):
            n = right.value
            return _mul(_mul(right, _pown(left, _const(n - 1.0))), dl)
        # general l^r: l^r * (r' log l + r l'/l)
        term1 = _mul(dr, Call("log", left))
        term2 = _div(_mul(right, dl), left)
        return _mul(node, _add(term1, term2))
    # Call
    u = node.arg
    du = diff(u, var)
    f = node.func
    if f == "sin":
        outer: ExprNode = Call("cos", u)
    elif f == "cos":
        outer = _neg(Call("sin", u))
    elif f == "tan":
        cos_u = Call("cos", u)
        outer = _div(_ONE, _mul(cos_u, cos_u))
    elif f == "sqrt":
        outer = _div(_ONE, _mul(_const(2.0), Call("sqrt", u)))
    elif f == "exp":
        outer = Call("exp", u)
    elif f == "log":
        outer = _div(_ONE, u)
    elif f == "abs":
        # valid away from u == 0; evaluating at 0 raises a domain error,
        # which is the honest answer for a kink
        outer = _div(u, Call("abs", u))
    else:
        raise ExprError(f"cannot differentiate call to {f!r}")
    return _mul(outer, du)


# ---------------------------------------------------------------------------
# code generation: Newton solves call expressions point by point, where
# the tree walker is too slow, so the tree becomes a Python lambda.  Grid
# scans and batched bisection instead evaluate the tree once over whole
# arrays (`at` and `grid` on the compiled callable), with the same IEEE
# operations and the same libm routines, so each node gets the bits the
# lambda gives.

def _mangle(name: str) -> str:
    return "_v_" + name


def _emit(node: ExprNode, params: tuple[str, ...]) -> str:
    if type(node) is Const:
        return repr(node.value)
    if type(node) is Var:
        if node.name not in params:
            raise UnboundVariableError(
                f"variable {node.name!r} not among parameters {params}"
            )
        return _mangle(node.name)
    if type(node) is Neg:
        return f"(-{_emit(node.arg, params)})"
    if type(node) is BinOp:
        left = _emit(node.left, params)
        right = _emit(node.right, params)
        if node.op == "^":
            return f"_pow({left}, {right})"
        return f"({left} {node.op} {right})"
    return f"_f_{node.func}({_emit(node.arg, params)})"


def compile_fn(node: ExprNode, params: tuple[str, ...]) -> Callable[..., float]:
    """Compile a tree to a fast positional callable.

    The callable takes len(params) floats and raises DomainError exactly
    where evaluate() would.  Its `at(*arrays)` takes one array per
    parameter, all of one shape (or broadcast to one), and gives the
    call's value at every element, bit for bit, with NaN exactly where
    the call raises DomainError; callers that batch their points, such
    as the zero-set tracer, never need the scalar call.  For two
    parameters (x, y), `grid(xs, ys)` is `at` on xs as a column and ys
    as a row: the ndarray of the values at every (xs[i], ys[j]).
    """
    body = _emit(node, params)
    args = ", ".join(_mangle(p) for p in params)
    # repr() of an infinite or NaN constant (a literal like 1e400, or a
    # folded derivative coefficient) is a bare name
    env = {"_pow": _pow, "inf": math.inf, "nan": math.nan}
    for fname, fobj in FUNCTIONS.items():
        env["_f_" + fname] = fobj
    raw = eval(f"lambda {args}: {body}", env)  # noqa: S307 - source is generated

    def call(*xs: float) -> float:
        try:
            value = raw(*xs)
        except DomainError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(str(exc)) from exc
        if not math.isfinite(value):
            raise DomainError(f"expression evaluated to {value!r}")
        return value

    def at(*arrays: np.ndarray) -> np.ndarray:
        if len(arrays) != len(params):
            raise TypeError(f"at needs one array per parameter {params}")
        arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        with np.errstate(all="ignore"):
            value, raised = _grid_eval(node, dict(zip(params, arrays)))
            value = np.where(raised | ~np.isfinite(value), np.nan, value)
        if value.shape != shape:  # a subtree without every variable
            value = np.broadcast_to(value, shape).copy()
        return value

    def grid(xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
        if len(params) != 2:
            raise TypeError(f"grid needs two parameters, not {params}")
        # x varies down a column and y along a row: a subtree in one
        # variable costs one value per node of its axis, not per node
        return at(
            np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]
        )

    call.at = at
    call.grid = grid
    return call


def _grid_eval(node: ExprNode, env: Mapping[str, np.ndarray]):
    """(values, raised) of a tree over broadcast arrays.

    raised marks the elements where the lambda would raise; the value
    there is meaningless.  + - * / negation, abs and sqrt are correctly
    rounded, so numpy gives the lambda's bits; numpy's own sin cos tan
    exp log and power round differently from libm on some inputs, so
    those call the math routines element by element.
    """
    if type(node) is Const:
        return np.float64(node.value), False
    if type(node) is Var:
        return env[node.name], False
    if type(node) is Neg:
        value, raised = _grid_eval(node.arg, env)
        return np.negative(value), raised
    if type(node) is Call:
        value, raised = _grid_eval(node.arg, env)
        if node.func == "abs":
            return np.abs(value), raised
        if node.func == "sqrt":
            return np.sqrt(value), raised | (value < 0.0)
        out, bad = _each(FUNCTIONS[node.func], value)
        return out, raised | bad
    left, raised_l = _grid_eval(node.left, env)
    right, raised_r = _grid_eval(node.right, env)
    raised = raised_l | raised_r
    op = node.op
    if op == "+":
        return np.add(left, right), raised
    if op == "-":
        return np.subtract(left, right), raised
    if op == "*":
        return np.multiply(left, right), raised
    if op == "/":
        return np.divide(left, right), raised | (right == 0.0)
    out, bad = _each(math.pow, left, right)
    return out, raised | bad


def _each(fn: Callable[..., float], *args) -> tuple[np.ndarray, np.ndarray]:
    """fn over the broadcast args one element at a time, and where it raised."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    columns = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
    out: list[float] = []
    bad: list[int] = []
    for k, xs in enumerate(zip(*columns)):
        try:
            out.append(fn(*xs))
        except (ArithmeticError, ValueError):
            out.append(math.nan)
            bad.append(k)
    raised = np.zeros(len(out), dtype=bool)
    raised[bad] = True
    return np.array(out).reshape(shape), raised.reshape(shape)


# ---------------------------------------------------------------------------
# sampling: the one rule for even parameter steps and for grid scans

def steps(lo: float, hi: float, n: int) -> list[float]:
    """The n + 1 evenly spaced values from lo to hi, both ends included.

    A range wider than the largest float has no such values (its width
    overflows, so every step would be NaN): DomainError.
    """
    width = hi - lo
    if math.isinf(width):
        raise DomainError(f"range {lo:g} to {hi:g} is wider than the largest float")
    return [lo + width * (k / n) for k in range(n + 1)]

