"""Expression parsing, evaluation and symbolic differentiation.

Curve and surface definitions arrive as plain text ("x^2*sin(x)",
"8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2") and are parsed into small
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

A compile (compile_fn, compile_many) lowers trees to one list of their
distinct operations, run as straight-line Python for a scalar call and
over numpy arrays by `at` and `grid`; `enclose` runs it over intervals,
bounding the call on boxes (Snyder, "Interval analysis for computer
graphics", SIGGRAPH 1992).  Evaluation is strict about
domains: division by zero, sqrt/log outside their domain, overflow, and
any NaN or infinity are DomainError rather than silently propagated.
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
    """Evaluate with the given variable bindings: the compiled call over
    the node's free variables.

    Raises UnboundVariableError for missing variables and DomainError
    whenever the result (or an operation) leaves the finite reals.
    """
    b = bindings or {}
    params = tuple(sorted(free_vars(node)))
    try:
        args = [b[name] for name in params]
    except KeyError as exc:
        raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
    return compile_fn(node, params)(*args)


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
# code generation: the list of distinct operations over numbered
# temporaries is an evaluation procedure (Griewank & Walther, "Evaluating
# Derivatives", ch. 2); `at` and `grid` run it with the scalar call's
# IEEE operations and libm routines, so they give the same bits.

def _lower(node: ExprNode, params: tuple[str, ...], index: dict[tuple, int]) -> int:
    """The index of node's operation, adding it and its subtrees to index,
    which maps each distinct operation to its index in post order.

    An operation is (op, i) or (op, i, j) over earlier operations' indices,
    or a leaf, ("_v_" + name,) or (repr(constant),): equal subtrees are one
    operation, and -0.0 is not 0.0."""
    if type(node) is Const:
        op: tuple = (repr(node.value),)
    elif type(node) is Var:
        if node.name not in params:
            raise UnboundVariableError(
                f"variable {node.name!r} not among parameters {params}"
            )
        op = ("_v_" + node.name,)
    elif type(node) is Neg:
        op = ("neg", _lower(node.arg, params, index))
    elif type(node) is BinOp:
        left = _lower(node.left, params, index)
        op = (node.op, left, _lower(node.right, params, index))
    else:
        op = (node.func, _lower(node.arg, params, index))
    return index.setdefault(op, len(index))


_SOURCE = {"neg": "-{}", "^": "_pow({}, {})", "+": "{} + {}", "-": "{} - {}",
           "*": "{} * {}", "/": "{} / {}"}


def _scalar_source(ops: list, outputs: list, params: tuple, many: bool) -> str:
    """`program(*params)`, one statement per operation in list order, so
    the first to fail is the one a nested call would fail on."""
    head = ", ".join("_v_" + p for p in params)
    lines = [f"def program({head}):", "    try:", "        pass"]
    # a leaf is its own source, and operation k's value is t{k}
    refs = [op[0] if len(op) == 1 else f"t{k}" for k, op in enumerate(ops)]
    for k, (op, *args) in enumerate(ops):
        if args:
            rhs = _SOURCE.get(op, f"_f_{op}({{}})").format(*(refs[i] for i in args))
            lines.append(f"        t{k} = {rhs}")
    # _pow's DomainError is a ValueError too, re-raised with its message
    lines.append("    except (ArithmeticError, ValueError) as exc:")
    lines.append("        raise DomainError(str(exc)) from exc")
    outs = [refs[k] for k in outputs]
    for o in outs:
        lines.append(f"    if not _isfinite({o}):")
        lines.append(f"        raise DomainError('expression evaluated to %r' % {o})")
    lines.append(f"    return {', '.join(outs) + ',' if many else outs[0]}")
    return "\n".join(lines) + "\n"


def compile_many(
    trees: Sequence[ExprNode], params: tuple[str, ...]
) -> Callable[..., tuple]:
    """Compile trees over the same parameters into one callable, as
    `compile_fn` but giving the tuple of the trees' values and raising
    where any tree's call does; `at` and `grid` give one array per tree,
    NaN exactly where its own call raises, and `enclose` one (lo, hi)
    pair per tree.  Equal subtrees run once."""
    return _compile(list(trees), params, many=True)


def compile_fn(node: ExprNode, params: tuple[str, ...]) -> Callable[..., float]:
    """Compile a tree to a fast positional callable: `compile_many` of
    the one tree, giving its value rather than a 1-tuple.

    The callable takes len(params) floats and raises DomainError where
    an operation or the result leaves the finite reals.  `at(*arrays)`
    takes one array per parameter, all of one shape (or broadcast to
    one), and gives the call's value at every element, bit for bit, NaN
    exactly where the call raises.  For two parameters (x, y),
    `grid(xs, ys)` is `at` on xs as a column and ys as a row.
    `enclose(*boxes)` takes one (lo, hi) pair of arrays per parameter
    and gives (lo, hi) arrays, broadcast like `at`'s: where both are
    finite, the call raises nowhere in the box and every value it gives
    there lies between them (see `_enclose`).  `ops` is the program, the
    lowered operation list (see `_lower`), and `outputs` the indices of
    the operations the call gives.
    """
    return _compile([node], params, many=False)


def _compile(trees: list[ExprNode], params: tuple[str, ...], many: bool):
    index: dict[tuple, int] = {}
    outputs = [_lower(tree, params, index) for tree in trees]
    ops = list(index)
    # each temporary's last reader; the outputs are read at the end
    last = {i: k for k, (_, *args) in enumerate(ops) for i in args}
    last.update(dict.fromkeys(outputs, len(ops)))
    # repr() of an infinite or NaN constant (a literal like 1e400, or a
    # folded derivative coefficient) is a bare name
    env = {"_pow": _pow, "_isfinite": math.isfinite, "DomainError": DomainError}
    env.update({"inf": math.inf, "nan": math.nan})
    env.update({"_f_" + fname: fobj for fname, fobj in FUNCTIONS.items()})
    exec(_scalar_source(ops, outputs, params, many), env)  # noqa: S102 - generated
    call = env.pop("program")  # so the call and its globals form no cycle

    def at(*arrays: np.ndarray):
        if len(arrays) != len(params):
            raise TypeError(f"at needs one array per parameter {params}")
        inputs = {"_v_" + p: np.asarray(a, dtype=float) for p, a in zip(params, arrays)}
        shape = np.broadcast_shapes(*(a.shape for a in inputs.values()))
        # a temporary is its values and a mask of where the scalar call
        # raises; it is dropped after its last reader, so few are alive.
        # An array of the call's full shape that the call made (never a
        # caller's array, a leaf or a constant) is owned: its last reader
        # writes its result there, as that result has the same shape.
        values: list = [None] * len(ops)
        raised: list = [False] * len(ops)
        owned = [False] * len(ops)
        with np.errstate(all="ignore"):
            for k, (op, *args) in enumerate(ops):
                if not args:
                    values[k] = inputs[op] if op in inputs else np.float64(op)
                    continue
                operands = [values[i] for i in args]
                if op in _ARRAY:
                    # masks first: the result may overwrite an operand
                    if op == "/":
                        raised[k] = operands[1] == 0.0
                    elif op == "sqrt":
                        raised[k] = operands[0] < 0.0
                    dead = (values[i] for i in args if owned[i] and last[i] == k)
                    values[k] = _ARRAY[op](*operands, out=next(dead, None))
                elif op == "^":
                    values[k], raised[k] = _pow_array(*operands)
                else:
                    values[k], raised[k] = _each(FUNCTIONS[op], *operands)
                owned[k] = type(values[k]) is np.ndarray and values[k].shape == shape
                # an operation raises where it or an input does
                raised[k] = raised[k] | raised[args[0]] | raised[args[-1]]
                for i in args:
                    if last[i] == k:
                        values[i] = raised[i] = None
            out = []
            for k in outputs:
                value = values[k]
                undefined = raised[k] | ~np.isfinite(value)
                if owned[k]:
                    owned[k] = False  # an output listed twice is copied
                    np.copyto(value, np.nan, where=undefined)
                    out.append(value)
                    continue
                if np.shape(undefined) != shape:  # a tree may lack a variable
                    undefined = np.broadcast_to(undefined, shape)
                out.append(np.where(undefined, np.nan, value))
        return tuple(out) if many else out[0]

    def grid(xs: Sequence[float], ys: Sequence[float]):
        if len(params) != 2:
            raise TypeError(f"grid needs two parameters, not {params}")
        # x varies down a column and y along a row: a subtree in one
        # variable costs one value per node of its axis, not per node
        return at(
            np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]
        )

    def enclose(*boxes: tuple[np.ndarray, np.ndarray]):
        if len(boxes) != len(params):
            raise TypeError(f"enclose needs one (lo, hi) box per parameter {params}")
        boxes = [tuple(np.asarray(end, dtype=float) for end in box) for box in boxes]
        with np.errstate(all="ignore"):
            spans = _enclose(ops, dict(zip(("_v_" + p for p in params), boxes)))
        shape = np.broadcast_shapes(*(np.shape(end) for box in boxes for end in box))
        out = []
        for k in outputs:
            lo, hi = (np.broadcast_to(end, shape) for end in spans[k])
            nan = np.isnan(lo) | np.isnan(hi)
            out.append((np.where(nan, -math.inf, lo), np.where(nan, math.inf, hi)))
        return tuple(out) if many else out[0]

    call.at = at
    call.grid = grid
    call.enclose = enclose
    # the program itself, for other evaluators of it (surface's refine.c)
    call.ops, call.outputs = tuple(ops), tuple(outputs)
    return call


# correctly rounded, so numpy's bits.  `^` is np.float_power, which
# calls libm's pow as math.pow does; np.power does not, and on some
# inputs rounds differently, as numpy's sin cos tan exp and log do,
# which `_each` runs through libm
_ARRAY = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt, "+": np.add,
          "-": np.subtract, "*": np.multiply, "/": np.divide}


def _pow_array(a, b) -> tuple[np.ndarray, np.ndarray | bool]:
    """a ^ b by libm's pow, and where math.pow raises (False if nowhere).

    math.pow raises exactly where both inputs are finite and the result
    is not: a negative base to a fractional power, 0 to a negative one,
    or an overflow.
    """
    value = np.float_power(a, b)
    bad = ~np.isfinite(value)
    if not bad.any():
        return value, False
    bad &= np.isfinite(a) & np.isfinite(b)
    return value, bool(bad.any()) and bad


_EVERYTHING = (-math.inf, math.inf)


def _widen(lo, hi, ulps: int) -> tuple:
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
    return lo, hi


def _enclose(ops: list, boxes: dict) -> list:
    """The interval of every operation over the boxes, as (lo, hi) ends.

    boxes maps each variable leaf to its (lo, hi) arrays, lo <= hi
    elementwise.  Claim: where op k's ends are finite, the call at any
    point of the box raises in no operation op k reads, directly or
    not, and the float it computes for op k lies in [lo, hi].

    Proof, by induction over the list.  A leaf is exact.  No rule turns
    an input with a non-finite or NaN end into finite ends (an input of
    (-inf, inf) gives (-inf, inf)), so finite ends mean finite inputs,
    holding every value the call computes for them, and:
    - neg is exact, and +, - and * are correctly rounded, so monotone:
      the rounded sum (difference) of two inputs lies between the
      rounded sums (differences) of their ends, and the rounded product
      between the least and the largest rounded product of two ends,
      as the exact product is bilinear;
    - sqrt is correctly rounded and increasing; below 0, where the call
      raises, an end is NaN;
    - x ^ n, for a constant integer n >= 0, is 1 for every finite x
      when n = 0, increasing for odd n, and for even n increasing in
      |x|, its least value 0 where the box holds 0.  Taking libm's pow
      to be within 1 ulp of the exact power (glibc bounds its error
      below that), the call's pow at any x of the box is within 2 ulps
      of pow at an end, and where it overflows (math.pow raises) the
      widened end is inf;
    - every other operation (/, abs, sin, cos, tan, exp, log, and ^ of
      any other exponent) gives (-inf, inf).
    Each computed end is widened outward by 2 ulps (4 for pow), which
    covers the pow argument and is a margin for the others.
    """
    spans: list = []
    for op, *args in ops:
        if not args:
            span = boxes.get(op) or (float(op),) * 2
        elif any(spans[i] is _EVERYTHING for i in args):
            span = _EVERYTHING
        elif op in _RULES:
            span = _widen(*_RULES[op](*(spans[i] for i in args)), 2)
        elif op == "^" and _natural(ops[args[1]]):
            span = _widen(*_pow_span(spans[args[0]], float(ops[args[1]][0])), 4)
        else:
            span = _EVERYTHING
        spans.append(span)
    return spans


def _natural(op: tuple) -> bool:
    """Whether the operation is a constant integer >= 0."""
    if len(op) != 1 or op[0].startswith("_v_"):
        return False
    value = float(op[0])
    return math.isfinite(value) and value >= 0.0 and value == math.floor(value)


def _product(a: tuple, b: tuple) -> tuple:
    p = [x * y for x in a for y in b]
    return (
        np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3])),
        np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3])),
    )


def _pow_span(a: tuple, n: float) -> tuple:
    lo, hi = a
    if n == 0.0:
        finite = np.isfinite(lo) & np.isfinite(hi)
        return np.where(finite, 1.0, -math.inf), np.where(finite, 1.0, math.inf)
    p_lo, p_hi = np.float_power(lo, n), np.float_power(hi, n)
    if n % 2.0 == 1.0:
        return p_lo, p_hi
    return np.where(lo >= 0.0, p_lo, np.where(hi <= 0.0, p_hi, 0.0)), np.maximum(p_lo, p_hi)


# each operation's ends from its inputs' ends, before widening
_RULES = {
    "neg": lambda a: (-a[1], -a[0]),
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[1], a[1] - b[0]),
    "*": _product,
    "sqrt": lambda a: (np.sqrt(a[0]), np.sqrt(a[1])),
}


EACH_BLOCK = 1 << 16  # elements that `_each` holds as Python floats at once


def _each(fn: Callable[[float], float], arg) -> tuple[np.ndarray, np.ndarray | bool]:
    """fn (a one-argument libm function of FUNCTIONS) over arg one
    element at a time, and where it raised (False if nowhere).

    Each block of EACH_BLOCK elements goes through one `map`; only in a
    block where fn raises does a Python loop call it again element by
    element to find where.
    """
    flat = np.ravel(arg)
    out = np.empty(len(flat))
    raised = np.zeros(len(flat), dtype=bool)
    for lo in range(0, len(flat), EACH_BLOCK):
        column = flat[lo : lo + EACH_BLOCK].tolist()
        try:
            out[lo : lo + len(column)] = np.fromiter(map(fn, column), float, len(column))
            continue
        except (ArithmeticError, ValueError):
            pass
        for k, x in enumerate(column, lo):
            try:
                out[k] = fn(x)
            except (ArithmeticError, ValueError):
                out[k], raised[k] = math.nan, True
    shape = np.shape(arg)
    return out.reshape(shape), bool(raised.any()) and raised.reshape(shape)


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

