import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splinefig import expr
from splinefig.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    DomainError,
    ExprNode,
    Neg,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
    Var,
    compile_fn,
    compile_many,
    diff,
    evaluate,
    free_vars,
    parse,
    steps,
)
from splinefig.surface import ParametricSurface, Projection, _jacobian_fn


def reference_eval(node: ExprNode, b: dict[str, float]) -> float:
    """The tree walker `evaluate` once was, kept as its reference."""
    value = _walk(node, b)
    if not math.isfinite(value):
        raise DomainError(f"expression evaluated to {value!r}")
    return value


def _walk(node: ExprNode, b: dict[str, float]) -> float:
    if type(node) is Const:
        return node.value
    if type(node) is Var:
        try:
            return b[node.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {node.name!r}") from None
    if type(node) is Neg:
        return -_walk(node.arg, b)
    if type(node) is BinOp:
        left = _walk(node.left, b)
        right = _walk(node.right, b)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise DomainError("division by zero")
            return left / right
        try:
            return math.pow(left, right)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"pow({left!r}, {right!r}) undefined") from exc
    try:
        return FUNCTIONS[node.func](_walk(node.arg, b))
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{node.func} left its domain") from exc


def reference_compile(node: ExprNode, params: tuple[str, ...]):
    """The one-lambda compiler `compile_fn` once was, kept as its reference
    for the scalar call: same bits, or DomainError with the same message."""
    env = {"_pow": _reference_pow, "inf": math.inf, "nan": math.nan}
    for fname, fobj in FUNCTIONS.items():
        env["_f_" + fname] = fobj
    raw = eval(f"lambda {', '.join('_v_' + p for p in params)}: {_emit(node)}", env)

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

    return call


def _reference_pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"pow({a!r}, {b!r}) undefined") from exc


def _emit(node: ExprNode) -> str:
    if type(node) is Const:
        return repr(node.value)
    if type(node) is Var:
        return "_v_" + node.name
    if type(node) is Neg:
        return f"(-{_emit(node.arg)})"
    if type(node) is BinOp:
        if node.op == "^":
            return f"_pow({_emit(node.left)}, {_emit(node.right)})"
        return f"({_emit(node.left)} {node.op} {_emit(node.right)})"
    return f"_f_{node.func}({_emit(node.arg)})"


def ev(text, **bindings):
    return evaluate(parse(text), bindings)


class TestParseEvaluate:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0
        assert ev("(2+3)*4") == 20.0
        assert ev("2-3-4") == -5.0
        assert ev("12/3/2") == 2.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        # -x^2 must parse as -(x^2)
        assert ev("-x^2", x=3.0) == -9.0
        assert ev("2^-2") == 0.25

    def test_constants_fold(self):
        assert ev("pi") == math.pi
        assert ev("2*pi") == math.tau
        assert ev("e") == math.e

    def test_functions(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0)
        assert ev("cos(0)") == 1.0
        assert ev("sqrt(2)") == math.sqrt(2.0)
        assert ev("exp(1)") == pytest.approx(math.e)
        assert ev("log(e)") == pytest.approx(1.0)
        assert ev("abs(-3)") == 3.0
        assert ev("tan(1)") == pytest.approx(math.tan(1.0))

    def test_whitespace_and_floats(self):
        assert ev("  1.5 + .5 ") == 2.0
        assert ev("1e2 + 1") == 101.0

    def test_conic_example(self):
        f = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2"
        assert ev(f, x=0.0, y=0.0) == 2.0

    def test_parse_errors(self):
        for bad in ("2+", "(1", "1)", "", "2**3", "sin 3", "1 2"):
            with pytest.raises(ParseError):
                parse(bad)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            ev("foo(3)")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            ev("x+1")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ev("sqrt(-1)")
        with pytest.raises(DomainError):
            ev("log(0)")
        with pytest.raises(DomainError):
            ev("1/0")
        with pytest.raises(DomainError):
            ev("(-2)^0.5")


def test_free_vars():
    assert free_vars(parse("x*y + sin(z) - pi")) == {"x", "y", "z"}
    assert free_vars(parse("2+2")) == set()


class TestDiff:
    # spot values with hand-checked derivatives
    CASES = [
        ("x^3", 2.0, 12.0),
        ("sin(x^2)", 1.0, 2.0 * math.cos(1.0)),
        ("x*exp(x)", 0.5, 1.5 * math.exp(0.5)),
        ("log(x)", 3.0, 1.0 / 3.0),
        ("sqrt(x)", 4.0, 0.25),
        ("1/x", 2.0, -0.25),
        ("tan(x)", 0.3, 1.0 / math.cos(0.3) ** 2),
    ]

    @pytest.mark.parametrize("text,x,want", CASES)
    def test_known_derivatives(self, text, x, want):
        d = diff(parse(text), "x")
        assert evaluate(d, {"x": x}) == pytest.approx(want, rel=1e-12)

    def test_partial_derivative(self):
        d = diff(parse("x^2*y + y^3"), "y")
        assert evaluate(d, {"x": 2.0, "y": 3.0}) == pytest.approx(4.0 + 27.0)

    def test_derivative_of_constant_is_zero(self):
        d = diff(parse("pi*e"), "x")
        assert evaluate(d, {}) == 0.0

    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_matches_finite_differences(self, x):
        # central difference oracle on a smooth compound expression
        node = parse("sin(2*x) + x^2*cos(x) - exp(x/3)")
        d = diff(node, "x")
        h = 1e-6
        fd = (
            evaluate(node, {"x": x + h}) - evaluate(node, {"x": x - h})
        ) / (2 * h)
        assert evaluate(d, {"x": x}) == pytest.approx(fd, abs=1e-6)


class TestCompile:
    def test_matches_evaluate(self):
        node = parse("x^2*sin(x) - y/2")
        fn = compile_fn(node, ("x", "y"))
        for x, y in [(0.3, 1.0), (-1.2, 4.5), (2.0, -3.0)]:
            b = {"x": x, "y": y}
            assert fn(x, y) == evaluate(node, b) == reference_eval(node, b)

    def test_domain_error_propagates(self):
        fn = compile_fn(parse("sqrt(x)"), ("x",))
        with pytest.raises(DomainError):
            fn(-1.0)

    def test_missing_param_rejected(self):
        with pytest.raises(Exception):
            compile_fn(parse("x+z"), ("x",))


    def test_equal_subtrees_run_once(self, monkeypatch):
        calls = []

        def sin(x):
            calls.append(x)
            return math.sin(x)

        monkeypatch.setitem(FUNCTIONS, "sin", sin)
        f = compile_fn(parse("sin(x) + sin(x) * sin(x)"), ("x",))
        assert f(0.5) == math.sin(0.5) + math.sin(0.5) * math.sin(0.5)
        assert calls == [0.5]
        f.at(np.array([0.5, 1.0]))
        assert calls == [0.5, 0.5, 1.0]

    def test_many_share_subtrees_across_trees(self, monkeypatch):
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        monkeypatch.setitem(FUNCTIONS, "exp", exp)
        f = compile_many([parse("exp(x)"), parse("2*exp(x)"), parse("x")], ("x",))
        assert f(1.0) == (math.exp(1.0), 2 * math.exp(1.0), 1.0)
        assert calls == [1.0]

    def test_many_raises_where_any_tree_does(self):
        f = compile_many([parse("x"), parse("sqrt(x)")], ("x",))
        assert f(4.0) == (4.0, 2.0)
        with pytest.raises(DomainError, match="math domain error"):
            f(-1.0)
        x, root = f.at(np.array([-1.0, 4.0]))
        assert x.tolist() == [-1.0, 4.0]
        assert math.isnan(root[0]) and root[1] == 2.0

    def test_at_where_only_some_elements_raise(self):
        # log and ^ run through the scalar libm calls; log(0), log(-x)
        # and a negative base to a fractional power raise, the rest not
        f = compile_fn(parse("log(x) + x^0.5 * sin(y)"), ("x", "y"))
        xs = np.array([-1.0, 0.0, 0.5, 4.0, -2.0, 9.0, 1e-300])
        ys = np.array([0.25, -3.0])
        got = f.grid(xs, ys)
        assert got.shape == (7, 2)
        for i, x in enumerate(xs.tolist()):
            for j, y in enumerate(ys.tolist()):
                try:
                    want = f(x, y)
                except DomainError:
                    assert math.isnan(got[i, j])
                else:
                    assert got[i, j] == want
        assert np.isnan(got).sum() == 6


class TestSampling:
    def test_steps_include_both_ends(self):
        assert steps(-4.0, 4.0, 4) == [-4.0, -2.0, 0.0, 2.0, 4.0]
        assert steps(0.0, 1.0, 3)[-1] == 1.0

    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.integers(1, 50)
    )
    def test_steps_follow_the_one_rule(self, lo, hi, n):
        assert steps(lo, hi, n) == [lo + (hi - lo) * (k / n) for k in range(n + 1)]

    @pytest.mark.parametrize(
        "lo, hi", [(-1e308, 1e308), (1e308, -1e308), (0.0, math.inf)]
    )
    def test_steps_refuse_a_range_wider_than_a_float(self, lo, hi):
        with pytest.raises(DomainError, match="wider than the largest float"):
            steps(lo, hi, 8)

    def test_grid_values_mark_undefined_nodes(self):
        f = compile_fn(parse("sqrt(x) + y"), ("x", "y"))
        vals = f.grid([-1.0, 0.0, 4.0], [0.0, 1.0])
        assert vals.shape == (3, 2)
        assert math.isnan(vals[0, 0]) and math.isnan(vals[0, 1])
        assert vals[1:].tolist() == [[0.0, 1.0], [2.0, 3.0]]


# grid nodes and constants at the edges of the domain policy: signed
# zeros, values whose squares underflow or overflow, exp(700) overflow,
# and an infinite literal (what "1e400" parses to)
EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5, 2.0, -3.0]
CONSTANTS = [*EDGE_VALUES, 700.0, 1e-5, math.pi, math.inf]

trees = st.recursive(
    st.sampled_from(CONSTANTS).map(Const) | st.sampled_from(["x", "y"]).map(Var),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
    ),
    max_leaves=12,
)
axes = st.lists(
    st.sampled_from(EDGE_VALUES) | st.floats(-10, 10), min_size=1, max_size=5
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_grid_matches(f, xs, ys):
    vals = f.grid(xs, ys)
    assert vals.shape == (len(xs), len(ys))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            try:
                expected = f(x, y)
            except DomainError:
                assert np.isnan(vals[i, j]), (x, y)
                continue
            assert _bits(vals[i, j]) == _bits(expected), (x, y, expected)


@settings(max_examples=400, deadline=None)
@given(trees, axes, axes)
# an error whose NaN would turn finite again must still read undefined:
# pow(nan, 0) = 1 and 1 / inf = 0
@example(parse("sqrt(x)^0"), [-1.0], [0.0])
@example(parse("log(x)^0 + 1^exp(700 + y)"), [1.0, 0.0], [0.0, 10.0])
@example(parse("1 / (1 / x)"), [0.0, -0.0, 2.0], [0.0])
def test_property_grid_matches_compile_fn_bit_for_bit(node, xs, ys):
    _assert_grid_matches(compile_fn(node, ("x", "y")), xs, ys)


def _assert_at_matches(f, xs, ys):
    vals = f.at(xs, ys)
    assert vals.shape == xs.shape
    for x, y, value in zip(xs.ravel().tolist(), ys.ravel().tolist(), vals.ravel()):
        try:
            expected = f(x, y)
        except DomainError:
            assert np.isnan(value), (x, y)
            continue
        assert _bits(value) == _bits(expected), (x, y, expected)


# where math.pow raises or answers specially: negative bases under
# fractional exponents, 0 to negative powers, overflowing powers, and NaN
# or infinite operands (nan^0 = 1, 1^nan = 1, (-inf)^3 = -inf)
POW_VALUES = [*EDGE_VALUES, -2.5, 1.5, 3.0, 1e10, -1e10, math.nan, math.inf, -math.inf]
pow_trees = st.builds(
    BinOp, st.just("^"), trees | st.sampled_from(POW_VALUES).map(Const), trees
)


POW_BASES = np.array([math.nan, 1.0, -math.inf, -2.0, 0.0, -0.0, 10.0, -10.0])
POW_EXPONENTS = np.array([0.0, math.nan, 3.0, 0.5, -1.0, -3.0, 400.0, 401.0])


@st.composite
def same_shape_arrays(draw, edges=EDGE_VALUES) -> tuple[np.ndarray, np.ndarray]:
    shape = draw(st.sampled_from([(1,), (5,), (12,), (2, 3), (3, 4)]))
    size = math.prod(shape)
    values = st.lists(
        st.sampled_from(edges) | st.floats(-10, 10), min_size=size, max_size=size
    )
    return (
        np.array(draw(values)).reshape(shape),
        np.array(draw(values)).reshape(shape),
    )


@settings(max_examples=300, deadline=None)
@given(trees | pow_trees, same_shape_arrays(POW_VALUES))
@example(parse("x^y"), (POW_BASES, POW_EXPONENTS))
@example(parse("(x^y)^0"), (POW_BASES, POW_EXPONENTS))
# math.pow raises on the middle element only: the other elements keep
# their values, and the raised one stays undefined though pow(nan, 0) = 1
@example(parse("x^y"), (np.array([2.0, -2.0, 4.0]), np.array([0.5, 0.5, 0.5])))
@example(parse("(x^y)^0"), (np.array([2.0, -2.0, 4.0]), np.array([0.5, 0.5, 0.5])))
@example(parse("exp(x) + y"), (np.array([[1.0, 800.0], [-1.0, 0.0]]), np.zeros((2, 2))))
# y + -0.0 and y + 0.0 differ at y = -0.0
@example(
    BinOp("-", BinOp("+", Var("y"), Const(-0.0)), BinOp("+", Var("y"), Const(0.0))),
    (np.zeros(2), np.array([-0.0, 1.0])),
)
def test_property_at_matches_compile_fn_bit_for_bit(node, arrays):
    _assert_at_matches(compile_fn(node, ("x", "y")), *arrays)


@pytest.mark.parametrize(
    "text", ["exp(x)", "tan(x)", "sin(x) + cos(y)", "log(x*y)", "x^y", "x^2"]
)
def test_grid_libm_calls_match_on_random_nodes(text):
    # numpy's exp, tan and power round differently from libm on a few
    # percent (power: under 0.1 %) of arguments
    rng = np.random.default_rng(7)
    xs = rng.uniform(-20.0, 20.0, 20000).tolist()
    ys = [2.0, -0.5, 1.5]
    _assert_grid_matches(compile_fn(parse(text), ("x", "y")), xs, ys)


def _outcome(evaluator, node, bindings) -> bytes | type:
    try:
        return _bits(evaluator(node, bindings))
    except (DomainError, UnboundVariableError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(
    trees,
    st.sampled_from(EDGE_VALUES) | st.floats(-10, 10),
    st.sampled_from(EDGE_VALUES) | st.floats(-10, 10),
)
def test_property_evaluate_matches_the_tree_walker(node, x, y):
    bindings = {"x": x, "y": y}
    assert _outcome(evaluate, node, bindings) == _outcome(reference_eval, node, bindings)


@pytest.mark.parametrize(
    "text, error",
    [
        ("1/0", DomainError),
        ("sqrt(-1)", DomainError),
        ("log(0)", DomainError),
        ("0^-1", DomainError),
        ("exp(1000)", DomainError),
        ("1e308*10", DomainError),
        ("x", UnboundVariableError),
    ],
)
def test_evaluate_refuses_like_the_tree_walker(text, error):
    node = parse(text)
    for evaluator in (evaluate, reference_eval):
        with pytest.raises(error):
            evaluator(node, {})


# diff repeats subtrees, which the compile computes once
shared_trees = trees | trees.map(lambda node: diff(node, "x"))
points = st.sampled_from(EDGE_VALUES) | st.floats(-10, 10)


def _call_outcome(f, *xs: float) -> bytes | str:
    try:
        return _bits(f(*xs))
    except DomainError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(shared_trees, points, points)
@example(parse("1/x + 1/x"), 0.0, 0.0)
# the left operand fails first, with its own message
@example(parse("log(x) + 1/y"), -1.0, 0.0)
@example(parse("sqrt(x) + log(x)"), -1.0, 0.0)
@example(parse("(-2)^x + (-2)^x"), 0.5, 0.0)
@example(parse("exp(x)*exp(x) - exp(x)*exp(x)"), 400.0, 0.0)
@example(
    BinOp("-", BinOp("+", Var("y"), Const(-0.0)), BinOp("+", Var("y"), Const(0.0))),
    0.0,
    -0.0,
)
def test_property_compile_matches_the_reference_lambda(node, x, y):
    assert _call_outcome(compile_fn(node, ("x", "y")), x, y) == _call_outcome(
        reference_compile(node, ("x", "y")), x, y
    )


@st.composite
def tree_groups(draw) -> list[ExprNode]:
    """One to four trees, many of them built on one shared subtree."""
    shared = st.just(draw(shared_trees))
    part = trees | shared | st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), shared)
    tree = part | st.builds(BinOp, st.sampled_from("+-*/^"), part, part)
    return draw(st.lists(tree, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(tree_groups(), same_shape_arrays())
@example(
    [parse("x^y"), parse("(x^y)^0"), parse("y")],
    (np.array([2.0, -2.0, 4.0]), np.array([0.5, 0.5, 0.5])),
)
def test_property_compile_many_matches_compile_fn_bit_for_bit(group, arrays):
    many = compile_many(group, ("x", "y"))
    singles = [compile_fn(node, ("x", "y")) for node in group]
    for got, single in zip(many.at(*arrays), singles):
        want = single.at(*arrays)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert _bits_array(got) == _bits_array(want)
    for x, y in zip(arrays[0].ravel().tolist(), arrays[1].ravel().tolist()):
        want = [_call_outcome(single, x, y) for single in singles]
        if all(type(w) is bytes for w in want):
            assert [_bits(v) for v in many(x, y)] == want
        else:
            with pytest.raises(DomainError):
                many(x, y)


@pytest.mark.parametrize(
    "texts",
    [["-x + y"], ["x^2 * y"], ["sqrt(x) * x - 1/y"], ["exp(x) + x", "-(x*y)", "x"]],
)
def test_at_and_grid_leave_the_caller_arrays_unchanged(texts):
    # the evaluation writes results into its own dead temporaries only
    f = compile_many([parse(t) for t in texts], ("x", "y"))
    xs = np.array([-1.0, 0.0, 0.5, 2.0])
    ys = np.array([3.0, 0.0, -0.25, 1e300])
    xs_bits, ys_bits = xs.tobytes(), ys.tobytes()
    f.at(xs, ys)
    f.grid(xs, ys)
    f.at(xs[:, None], ys[None, :])
    assert (xs.tobytes(), ys.tobytes()) == (xs_bits, ys_bits)


@pytest.mark.parametrize(
    "text",
    ["1/(x-1)", "sqrt(x-1)", "(1/(x-1))^0", "sqrt(x-1)^0", "1/(1/(x-1))"],
)
def test_at_reads_the_domain_masks_before_writing_the_result(text):
    # x - 1 dies at the / or sqrt that reads it, which may write its
    # result there: the mask must come from x - 1, not from the result
    f = compile_fn(parse(text), ("x", "y"))
    xs = np.array([-1.0, 0.0, 1.0, 1.5, 2.0, 1.0, 5.0])
    got = f.at(xs, np.zeros_like(xs))
    for x, value in zip(xs.tolist(), got.tolist()):
        try:
            want = f(x, 0.0)
        except DomainError:
            assert math.isnan(value), x
        else:
            assert _bits(value) == _bits(want), x
    grid = f.grid(xs, [0.0, 1.0])
    assert np.array_equal(np.isnan(grid[:, 0]), np.isnan(got))


def _bits_array(values: np.ndarray) -> bytes:
    return np.where(np.isnan(values), 0.0, values).tobytes()


def _grid_peak(f, xs, ys) -> float:
    """Peak traced memory of f.grid(xs, ys), in grid-sized float arrays."""
    tracemalloc.start()
    try:
        f.grid(xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * len(xs) * len(ys))


def test_libm_functions_map_a_block_at_a_time():
    # sin is mapped through libm as Python floats; the whole grid at once
    # held a list slot and a float object per node, and peaked at 6.0
    # grid-sized arrays at grid 1024, against 2.6 a block at a time
    f = compile_fn(parse("sin(x*y)-0.5"), ("x", "y"))
    assert _grid_peak(f, steps(-3.0, 3.0, 1024), steps(-3.0, 3.0, 1024)) < 4.0


def test_each_in_blocks_gives_the_same_bits(monkeypatch):
    xs = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, -0.0], [1e-300, 7.0, 8.0]])
    whole = expr._each(math.log, xs)
    # blocks of 2: raising in the first three blocks, not in the last
    monkeypatch.setattr(expr, "EACH_BLOCK", 2)
    blocks = expr._each(math.log, xs)
    assert _bits_array(whole[0]) == _bits_array(blocks[0])
    assert whole[1].tolist() == blocks[1].tolist() == (xs <= 0.0).tolist()
    values, raised = expr._each(math.log, xs[2])
    assert raised is False and values.tolist() == list(map(math.log, xs[2].tolist()))


def test_grid_drops_each_temporary_after_its_last_reader():
    # keeping every temporary to the end of the call peaks at about 7.6
    # grid-sized arrays on the conic and 22 on the Mobius J; a new array
    # per operation, each dropped after its last reader, at 2.13 and 5.27.
    # Writing into dead temporaries and finishing the outputs in place
    # peaks at 1.25 and 4.46
    conic = compile_fn(parse("8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2"), ("x", "y"))
    assert _grid_peak(conic, steps(-2.0, 2.0, 800), steps(-2.0, 2.5, 800)) < 1.75
    band = ParametricSurface.from_strings(
        "2*cos(v)*(2+u*cos(v/2))",
        "2*sin(v)*(2+u*cos(v/2))",
        "2*u*sin(v/2)",
        (-0.4, 0.4),
        (0.0, 2 * math.pi),
    )
    jac = _jacobian_fn(band, Projection())
    assert _grid_peak(jac, steps(-0.4, 0.4, 200), steps(0.0, 2 * math.pi, 200)) < 4.95


# ---------------------------------------------------------------------------
# the interval enclosure: sound over ruled trees, (-inf, inf) over others

EXPONENTS = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0, 400.0]
ruled_trees = st.recursive(
    st.sampled_from([*CONSTANTS, 1e154]).map(Const) | st.sampled_from(["x", "y"]).map(Var),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(BinOp, st.just("^"), sub, st.sampled_from(EXPONENTS).map(Const)),
        st.builds(Call, st.just("sqrt"), sub),
    ),
    max_leaves=10,
)
box_ends = st.sampled_from(EDGE_VALUES) | st.floats(-10, 10) | st.floats(-1e160, 1e160)


@st.composite
def boxes(draw, count: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """count intervals, as arrays of their lower and upper ends."""
    ends = [sorted((draw(box_ends), draw(box_ends))) for _ in range(count)]
    return np.array([lo for lo, _ in ends]), np.array([hi for _, hi in ends])


def _box_points(lo: float, hi: float, t: float) -> list[float]:
    """The ends, the midpoint and the point at fraction t, and the float
    neighbours of the ends and of that point that lie in [lo, hi], all
    as Python floats."""
    lo, hi = float(lo), float(hi)
    inner = lo + (hi - lo) * t
    near = [float(np.nextafter(p, d)) for p in (lo, hi, inner) for d in (-math.inf, math.inf)]
    return [p for p in [lo, hi, lo + (hi - lo) * 0.5, inner, *near] if lo <= p <= hi]


@settings(max_examples=200, deadline=None)
@given(ruled_trees, boxes(), boxes(), st.floats(0.0, 1.0))
@example(parse("x^2 - 2*x*y + y^2"), *[(np.array([-1.0]), np.array([1.0]))] * 2, 0.3)
@example(parse("(1e154*x)^2 + y"), *[(np.array([0.5]), np.array([2.0]))] * 2, 0.3)
@example(parse("sqrt(x)^0 + y"), *[(np.array([-1.0]), np.array([1.0]))] * 2, 0.3)
@example(parse("(1e300*x*1e300)^0"), *[(np.array([1.0]), np.array([2.0]))] * 2, 0.3)
def test_property_enclosure_holds_every_value_in_the_box(node, xbox, ybox, t):
    f = compile_fn(node, ("x", "y"))
    lo, hi = f.enclose(xbox, ybox)
    assert lo.shape == hi.shape == xbox[0].shape
    for k in range(len(lo)):
        finite = math.isfinite(lo[k]) and math.isfinite(hi[k])
        for x in _box_points(xbox[0][k], xbox[1][k], t):
            for y in _box_points(ybox[0][k], ybox[1][k], t):
                try:
                    value = f(x, y)
                except DomainError:
                    assert not finite, (x, y)
                    continue
                assert lo[k] <= value <= hi[k], (x, y, value)


@settings(max_examples=50, deadline=None)
@given(
    ruled_trees,
    ruled_trees,
    st.sampled_from(
        [
            lambda a: BinOp("/", a, Const(2.0)),
            lambda a: Call("log", a),
            lambda a: Call("sin", a),
            lambda a: Call("abs", a),
            lambda a: BinOp("^", a, Const(0.5)),
            lambda a: BinOp("^", a, Const(-2.0)),
            lambda a: BinOp("^", a, Var("y")),
        ]
    ),
    boxes(),
    boxes(),
)
def test_property_enclosure_of_unruled_operations_is_everything(a, b, wrap, xbox, ybox):
    f = compile_fn(BinOp("*", wrap(a), b), ("x", "y"))
    lo, hi = f.enclose(xbox, ybox)
    assert (lo == -math.inf).all() and (hi == math.inf).all()


@pytest.mark.parametrize(
    "text, ulps", [("x + y", 2), ("x * y", 2), ("-x", 2), ("sqrt(x)", 2), ("x^3", 4)]
)
def test_enclosure_widens_each_end(text, ulps):
    # at a point box the ends are the value itself, widened outward
    f = compile_fn(parse(text), ("x", "y"))
    value = f(2.0, 3.0)
    lo, hi = f.enclose((2.0, 2.0), (3.0, 3.0))
    down, up = value, value
    for _ in range(ulps):
        down, up = np.nextafter(down, -math.inf), np.nextafter(up, math.inf)
    assert (lo, hi) == (down, up)


def test_compile_many_encloses_each_tree():
    many = compile_many([parse("x^2"), parse("1 / x")], ("x",))
    (lo, hi), (lo_div, hi_div) = many.enclose((np.array([-1.0, 2.0]), np.array([3.0, 4.0])))
    # pow's ends are widened by 4 ulps: 4 subnormal steps below 0
    assert lo[0] == -4 * 5e-324 and 4.0 - 1e-13 < lo[1] < 4.0
    assert 9.0 < hi[0] < 9.0 + 1e-13 and 16.0 < hi[1] < 16.0 + 1e-13
    assert (lo_div == -math.inf).all() and (hi_div == math.inf).all()
