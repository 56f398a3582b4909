import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splinefig.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    DomainError,
    Neg,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
    Var,
    compile_fn,
    diff,
    evaluate,
    free_vars,
    parse,
    steps,
)


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
            assert fn(x, y) == evaluate(node, {"x": x, "y": y})

    def test_domain_error_propagates(self):
        fn = compile_fn(parse("sqrt(x)"), ("x",))
        with pytest.raises(DomainError):
            fn(-1.0)

    def test_missing_param_rejected(self):
        with pytest.raises(Exception):
            compile_fn(parse("x+z"), ("x",))


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


@st.composite
def same_shape_arrays(draw) -> tuple[np.ndarray, np.ndarray]:
    shape = draw(st.sampled_from([(1,), (5,), (12,), (2, 3), (3, 4)]))
    size = math.prod(shape)
    values = st.lists(
        st.sampled_from(EDGE_VALUES) | st.floats(-10, 10), min_size=size, max_size=size
    )
    return (
        np.array(draw(values)).reshape(shape),
        np.array(draw(values)).reshape(shape),
    )


@settings(max_examples=300, deadline=None)
@given(trees, same_shape_arrays())
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
