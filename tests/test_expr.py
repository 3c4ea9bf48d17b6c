import math

import pytest
from hypothesis import given, strategies as st

from pardiff.expr import (
    _NUMBER_RE,
    FUNCTIONS,
    OPERATORS,
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    evaluate,
    evaluate_arrays,
    evaluate_nodes,
    parse,
    to_string,
    _Parser,
    _tokenize,
)

import numpy as np

from pardiff.classify import classify_region
from pardiff.grid import GridFunction, GridSpec, sample
from pardiff.stencil import Stencil, StencilTerm


class TestParse:
    def test_power_plus_literal(self):
        assert parse("x1^2+1") == BinOp("+", BinOp("^", Var(1), Num(2.0)), Num(1.0))

    def test_precedence_mul_before_add(self):
        assert parse("2*x1+x2") == BinOp("+", BinOp("*", Num(2.0), Var(1)), Var(2))

    def test_malformed_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1+*2")
        assert err.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse("x1 + foo")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2x1")

    def test_variable_index_must_be_positive(self):
        with pytest.raises(ExprSyntaxError):
            parse("x0")

    def test_function_call_needs_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin x1")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x1 + 1")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_whitespace_insignificant(self):
        assert parse(" x1 ^ 2 + 1 ") == parse("x1^2+1")

    def test_scientific_literals(self):
        assert parse("2.5e-3") == Num(2.5e-3)

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse("2*-x1") == BinOp("*", Num(2.0), Neg(Var(1)))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x1^2") == Neg(BinOp("^", Var(1), Num(2.0)))

    @pytest.mark.parametrize("text, offset", [("1e999", 0), ("x1 + 2.5e400*x2", 5)])
    def test_non_finite_literal_rejected(self, text, offset):
        with pytest.raises(ExprSyntaxError, match="not finite") as err:
            parse(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(" * 1200 + "x1" + ")" * 1200, 100),
            ("+".join(["x1"] * 1200), 299),
            ("-" * 1200 + "x1", 100),
            ("x1^" * 1200 + "x1", 300),
            ("exp(" * 1200 + "x1" + ")" * 1200, 400),
        ],
        ids=["brackets", "sum", "signs", "powers", "calls"],
    )
    def test_deep_nesting_rejected(self, text, offset):
        with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels") as err:
            parse(text)
        assert err.value.offset == offset

    def test_nesting_at_the_limit_parses_and_evaluates(self):
        assert evaluate(parse("(" * 99 + "x1" + ")" * 99), (3.0,)) == 3.0
        assert evaluate(parse("+".join(["x1"] * 100)), (0.5,)) == 50.0


class TestEvaluate:
    def test_square_plus_one(self):
        assert evaluate(parse("x1^2+1"), (2,)) == 5.0

    def test_exp_zero(self):
        assert evaluate(parse("exp(0)"), (1.0, 2.0)) == 1.0

    def test_pole_is_an_error(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("1/x1"), (0,))

    def test_power_right_associative(self):
        assert evaluate(parse("x1^2^3"), (2,)) == 256.0

    def test_unary_minus_of_power(self):
        assert evaluate(parse("-2^2"), ()) == -4.0

    def test_negative_base_integer_exponent(self):
        assert evaluate(parse("(0-2)^3"), ()) == -8.0

    def test_negative_base_fractional_exponent_fails(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("(0-2)^0.5"), ())

    def test_ln_of_nonpositive_fails(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("ln(x1)"), (-1.0,))

    def test_sqrt_of_negative_fails(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("sqrt(x1)"), (-4.0,))

    def test_overflow_is_an_error(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("exp(exp(x1))"), (100.0,))

    def test_variable_beyond_dimension_fails(self):
        with pytest.raises(ExprEvalError, match="x3"):
            evaluate(parse("x3"), (1.0, 2.0))

    def test_error_carries_point(self):
        with pytest.raises(ExprEvalError) as err:
            evaluate(parse("1/x1"), (0.0, 7.0))
        assert err.value.point == (0.0, 7.0)

    def test_functions(self):
        e = parse("sin(x1)^2 + cos(x1)^2")
        assert evaluate(e, (0.37,)) == pytest.approx(1.0, abs=1e-15)
        assert evaluate(parse("abs(0-3)"), ()) == 3.0
        assert evaluate(parse("sqrt(ln(exp(4)))"), ()) == pytest.approx(2.0, rel=1e-15)

    def test_deterministic(self):
        e = parse("exp(x1)*sin(x2) - x1/x2")
        assert evaluate(e, (0.3, 0.7)) == evaluate(e, (0.3, 0.7))


class TestEvaluateArrays:
    def test_matches_scalar_evaluation(self):
        e = parse("exp(x1)*sin(x2) + x1^2/(1+x2^2)")
        xs = np.linspace(-1, 1, 7)
        ys = np.linspace(0.5, 2.0, 7)
        out = evaluate_arrays(e, [xs, ys])
        expected = [evaluate(e, (x, y)) for x, y in zip(xs, ys)]
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_domain_errors_become_non_finite(self):
        out = evaluate_arrays(parse("1/x1"), [np.array([1.0, 0.0, 2.0])])
        assert np.isfinite(out[0]) and not np.isfinite(out[1])

    def test_constant_broadcasts(self):
        out = evaluate_arrays(parse("3.5"), [np.zeros((2, 3))])
        assert out.shape == (2, 3) and (out == 3.5).all()


ROUND_TRIP_CASES = [
    "x1^2+1",
    "2*x1+x2",
    "-x1^2",
    "x1^2^3",
    "x1 - (x2 - x3)",
    "(x1+x2)*(x1-x2)",
    "1/(1 - x1^2)",
    "exp(-(x1^2+x2^2))",
    "x1^-2",
    "-(x1*x2)",
    "2 - -x1",
    "sqrt(abs(x1))*ln(x2)/cos(x3)",
    "x1^(1+x2)",
    "(x1 - 1)^2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    tree = parse(text)
    assert parse(to_string(tree)) == tree


_leaf = st.one_of(
    st.integers(min_value=0, max_value=999).map(lambda v: Num(float(v))),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.integers(min_value=1, max_value=4).map(Var),
)


def _compound(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "ln", "sin", "cos", "sqrt", "abs"]), children).map(
            lambda t: Call(*t)
        ),
        st.tuples(st.sampled_from(list("+-*/^")), children, children).map(
            lambda t: BinOp(*t)
        ),
    )


@given(st.recursive(_leaf, _compound, max_leaves=25))
def test_print_parse_round_trip_random_trees(tree):
    assert parse(to_string(tree)) == tree


LN_SPEC = GridSpec((0.0,), 0.5, (3,))
LN_STENCIL = Stencil(1, 0.5, (StencilTerm((1,), parse("ln(x1)")),))


class TestEvaluateNodes:
    def test_non_finite_without_scalar_cause(self):
        with pytest.raises(ExprEvalError) as err:
            evaluate_nodes(Num(math.inf), LN_SPEC.meshes(), "sampling")
        assert str(err.value) == "sampling failed at node (0,): non-finite result at point (0.0,)"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sample("ln(x1)", LN_SPEC),
            lambda: LN_STENCIL.apply(GridFunction(LN_SPEC, np.zeros(3))),
            lambda: classify_region(LN_STENCIL, LN_SPEC),
        ],
        ids=["sample", "stencil_apply", "classify_region"],
    )
    def test_failure_names_node_and_point_once(self, call):
        with pytest.raises(ExprEvalError) as err:
            call()
        message = str(err.value)
        assert message.count("at point") == 1
        assert "failed at node (0,): ln(0.0) failed: math domain error at point (0.0,)" in message
        assert err.value.point == (0.0,)


def reference_tokenize(text):
    """The tokenizer that ``_tokenize`` replaced, kept as its reference.

    It starts a number on ``str.isdigit()`` but reads it with ``\\d``, so a
    digit that is not decimal, such as ``²``, fails its ``assert``.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUMBER_RE.match(text, i)
            assert m is not None
            tokens.append(("number", m.group(), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class ReferenceParser(_Parser):
    """The reference tokenizer with the separate sum and product loops ``expr`` replaced."""

    def __init__(self, text):
        super().__init__("")
        self.tokens = reference_tokenize(text)

    def expr(self):
        left, height = self.term()
        while self.peek()[0] in "+-":
            op, _, offset = self.advance()
            right, right_height = self.term()
            left, height = self.checked(
                BinOp(op, left, right), 1 + max(height, right_height), offset
            )
        return left, height

    def term(self):
        left, height = self.unary()
        while self.peek()[0] in "*/":
            op, _, offset = self.advance()
            right, right_height = self.unary()
            left, height = self.checked(
                BinOp(op, left, right), 1 + max(height, right_height), offset
            )
        return left, height


def outcome(run, text):
    """What ``run(text)`` returns, or the text and offset of its ExprSyntaxError."""
    try:
        return run(text)
    except ExprSyntaxError as exc:
        return str(exc), exc.offset


READER_CASES = [
    ".5", "5.", "1.e5", ".e5", "1e", "e5", "x01", "_a", "٣", "x١", "x1\t+\t2", "\tx1\t",
    "1.5.2", "x1 + .5e-3*x2", "2x1", "x1^2^-3", "sin(x1)*ln(2)/-x2", "1 - - 1", "(x1",
    "x1)", "sin(x1", "", "  ", "1e999", "x0", "foo(1)", "sin x1", "x1 $ 2", "٣.٥e٢", "x²", "½",
    "(" * 101 + "x1" + ")" * 101, "+".join(["x1"] * 102), "*".join(["x1"] * 102),
    "-".join(["x1"] * 50) + "*" + "/".join(["x1"] * 60), "x1^" * 101 + "x1",
]


class TestReadersAgainstReference:
    @pytest.mark.parametrize("text", READER_CASES)
    def test_same_tokens_and_tree_or_same_error(self, text):
        assert outcome(_tokenize, text) == outcome(reference_tokenize, text)
        assert outcome(parse, text) == outcome(lambda t: ReferenceParser(t).parse(), text)

    @given(st.text(alphabet="x12.e5E+-*/^() \t_a٣sinl", max_size=40))
    def test_random_text(self, text):
        assert outcome(parse, text) == outcome(lambda t: ReferenceParser(t).parse(), text)

    @pytest.mark.parametrize("text, offset", [("²", 0), ("1²", 1), ("x1+2²", 4), (".²", 0)])
    def test_non_decimal_numerals_are_syntax_errors(self, text, offset):
        with pytest.raises(AssertionError):
            reference_tokenize(text)
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {text[offset]!r} (offset {offset})"
        assert err.value.offset == offset


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_scalar_and_array_forms_agree(name):
    points = np.array([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 700.0, 710.0])
    tree = Call(name, Var(1))
    arrays = evaluate_arrays(tree, [points])
    for x, y in zip(points, arrays):
        try:
            assert math.isclose(evaluate(tree, (x,)), y, rel_tol=1e-12)
        except ExprEvalError:
            assert not np.isfinite(y)


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_scalar_and_array_operator_forms_agree(op):
    values = [-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 700.0, 1e300]
    xs, ys = (np.array(v) for v in zip(*((x, y) for x in values for y in values)))
    tree = BinOp(op, Var(1), Var(2))
    arrays = evaluate_arrays(tree, [xs, ys])
    for x, y, z in zip(xs, ys, arrays):
        try:
            assert math.isclose(evaluate(tree, (x, y)), z, rel_tol=1e-12)
        except ExprEvalError:
            assert not np.isfinite(z)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0^-1", "0.0^-1.0 failed: math domain error"),
        ("10^400", "10.0^400.0 failed: math range error"),
    ],
)
def test_scalar_power_failure_names_its_operands(text, message):
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse(text), ())
    assert err.value.reason == message
    assert str(err.value) == f"{message} at point ()"
