from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcone.expr import (
    OperatorWord,
    ParseError,
    Polynomial,
    field_to_string,
    parse_operator,
    parse_polynomial,
    parse_vector_field,
    poly_to_string,
    words_to_string,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


class TestParsePolynomial:
    def test_basic_terms(self):
        p = parse_polynomial("x^2*y - 3*y", XY)
        assert p.terms == {(2, 1): Fraction(1), (0, 1): Fraction(-3)}

    def test_zero(self):
        assert parse_polynomial("0", XY).terms == {}

    def test_square_expansion(self):
        p = parse_polynomial("(x+y)^2", XY)
        assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}

    def test_rational_literals(self):
        p = parse_polynomial("3/2*x - 1/3", XY)
        assert p.terms == {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 3)}

    def test_unary_minus_and_nesting(self):
        p = parse_polynomial("-(x - y)^2 + x^2", XY)
        assert p == parse_polynomial("2*x*y - y^2", XY)

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + w", XY)
        assert err.value.pos == 4

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^-2", XY)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^(1/2)", XY)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0", XY)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + y )", XY)
        assert err.value.pos == 6

    def test_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x.y", XY)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_polynomial("x + $", XY)


class TestParseVectorField:
    def test_so3_generator(self):
        X = parse_vector_field("z*d/dy - y*d/dz", XYZ)
        assert X.components[0].is_zero()
        assert X.components[1] == parse_polynomial("z", XYZ)
        assert X.components[2] == parse_polynomial("-y", XYZ)

    def test_order_two_generator(self):
        X = parse_vector_field("x^2*d/dx", XY)
        assert X.components[0] == parse_polynomial("x^2", XY)
        assert X.components[1].is_zero()

    def test_cancellation_to_zero(self):
        assert parse_vector_field("d/dx - d/dx", XY).is_zero()

    def test_parenthesized_coefficient(self):
        X = parse_vector_field("(x + y)*d/dy", XY)
        assert X.components[1] == parse_polynomial("x + y", XY)

    def test_undeclared_derivative(self):
        with pytest.raises(ParseError):
            parse_vector_field("d/dw", XY)

    def test_two_derivative_factors(self):
        with pytest.raises(ParseError):
            parse_vector_field("d/dx*d/dy", XY)

    def test_term_without_derivative(self):
        with pytest.raises(ParseError):
            parse_vector_field("d/dx + 5", XY)


GENS3 = ("g1", "g2", "g3")
GENS4 = ("g1", "g2", "g3", "g4")


class TestParseOperator:
    def test_sum_of_squares(self):
        words = parse_operator("g1.g1 + g2.g2 + g3.g3", GENS3, XYZ)
        assert len(words) == 3
        assert all(len(w.letters) == 2 for w in words)
        assert all(w.coefficient == Polynomial.one(XYZ) for w in words)

    def test_single_letter_with_coefficient(self):
        words = parse_operator("x*g1", GENS3, XYZ)
        assert len(words) == 1
        assert words[0].letters == (0,)
        assert words[0].coefficient == parse_polynomial("x", XYZ)

    def test_counterexample_shape(self):
        words = parse_operator("g1.g4 - g2.g3", GENS4, XYZ)
        assert len(words) == 2
        coeffs = {w.letters: w.coefficient for w in words}
        assert coeffs[(0, 3)] == Polynomial.one(XYZ)
        assert coeffs[(1, 2)] == -Polynomial.one(XYZ)

    def test_like_words_merge(self):
        words = parse_operator("g1.g2 + 2*g1.g2 - 3*g1.g2", GENS3, XYZ)
        assert words == []

    def test_degree_zero_word(self):
        words = parse_operator("1 + g1.g1", GENS3, XYZ)
        assert {w.letters for w in words} == {(), (0, 0)}

    def test_unknown_generator(self):
        with pytest.raises(ParseError):
            parse_operator("g7", GENS3, XYZ)

    def test_word_times_word_rejected(self):
        with pytest.raises(ParseError):
            parse_operator("g1*g2", GENS3, XYZ)

    def test_coefficient_on_the_right_rejected(self):
        with pytest.raises(ParseError):
            parse_operator("g1*x", GENS3, XYZ)


# -- round trips -------------------------------------------------------------

frac_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exp_st = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_st = st.builds(
    lambda terms: Polynomial(XY, terms),
    st.dictionaries(exp_st, frac_st, max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(poly_st)
def test_polynomial_round_trip(p):
    assert parse_polynomial(poly_to_string(p), XY) == p


@settings(max_examples=40, deadline=None)
@given(poly_st, poly_st)
def test_vector_field_round_trip(p, q):
    from folcone.expr import PolyVectorField

    X = PolyVectorField(XY, (p, q))
    assert parse_vector_field(field_to_string(X), XY) == X


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(poly_st, st.lists(st.integers(0, 2), max_size=3)), max_size=4))
def test_operator_round_trip(raw):
    words = [OperatorWord(c, tuple(l)) for c, l in raw]
    from folcone.expr import merge_words

    canon = merge_words(words, XY)
    text = words_to_string(canon, GENS3)
    assert parse_operator(text, GENS3, XY) == canon


def test_parse_print_parse_idempotent():
    texts = ["x^2*y - 3*y + 1/2", "(x+y)^2 - x*y", "0", "-x + 2/3*y^3"]
    for text in texts:
        once = parse_polynomial(text, XY)
        assert parse_polynomial(poly_to_string(once), XY) == once


def test_polynomial_arithmetic_basics():
    x = Polynomial.var("x", XY)
    y = Polynomial.var("y", XY)
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x * y).diff("x") == y
    assert (x ** 3).eval((2, 0)) == 8
    assert x.subs({"x": y, "y": x}) == y


def test_exact_division():
    x = Polynomial.var("x", XY)
    y = Polynomial.var("y", XY)
    product = (x + y) * (x ** 2 - y)
    assert product.exact_div(x + y) == x ** 2 - y
    with pytest.raises(ValueError):
        (x ** 2 + y).exact_div(x + y)


def shift_by_subs(p, point):
    """The substitution route: q = p(y + a) through ``Polynomial.subs``."""
    return p.subs({v: Polynomial.var(v, p.vars) + Polynomial.const(a, p.vars) for v, a in zip(p.vars, point)})


point_st = st.one_of(st.just((0, 0)), st.tuples(frac_st, frac_st))


@settings(max_examples=80, deadline=None)
@given(poly_st, point_st, st.tuples(frac_st, frac_st))
def test_shift_equals_the_substitution_route(p, a, y):
    q = p.shift(a)
    assert q == shift_by_subs(p, a)
    assert q.eval(y) == p.eval([yi + ai for yi, ai in zip(y, a)])


def test_shift_at_the_origin_is_the_polynomial_itself():
    p = parse_polynomial("x^2*y - 3*y + 1/2", XY)
    assert p.shift((0, Fraction(0))) is p


@pytest.mark.parametrize("point", [(1,), (1, 2, 5)])
def test_shift_refuses_a_point_of_the_wrong_length(point):
    p = parse_polynomial("x + 3*y^2", XY)
    with pytest.raises(ValueError, match="point dimension mismatch"):
        p.shift(point)
    with pytest.raises(ValueError, match="point dimension mismatch"):
        p.eval(point)


def test_eval_of_a_constant_checks_the_point_length():
    c = Polynomial.const(Fraction(7, 3), XY)
    assert c.eval((5, -1)) == Fraction(7, 3) and Polynomial.zero(XY).eval((1, 1)) == 0
    with pytest.raises(ValueError, match="point dimension mismatch"):
        c.eval((1, 2, 3))
