import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osgm.poly import parse_rational
from oracles import Form, Quadratic, form_value, quadratic_value
from strategies import linear_forms, small_rationals

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# Python's limit on the digits int() converts from text; 0 where there is none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_parse_rational_forms():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-0") == 0
    # normalization: lowest terms, positive denominator
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("1/-2") == Fraction(-1, 2)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")
    with pytest.raises(ValueError):
        parse_rational("1.5")  # decimals are not part of the format


@pytest.mark.skipif(not INT_DIGITS, reason="int() converts text of any length")
def test_parse_rational_names_the_int_digit_limit():
    # a literal that int() refuses only for its length is reported as such,
    # and no message echoes more than the first 20 characters it was given
    assert parse_rational("1" * INT_DIGITS) == int("1" * INT_DIGITS)
    long = "7" * (INT_DIGITS + 1)
    for text in (long, "-" + long, " +" + long + " ", "1/" + long, long + "/3", "7_" + long):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == (
            "rational literal %r... (%d characters) has more than %d digits, Python's limit "
            "for int conversion" % (text.strip()[:20], len(text.strip()), INT_DIGITS))
    for text in ("x" + long, long + "/x", long + ".5", "1__" + long):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == "not a rational literal: %r... (%d characters)" % (
            text[:20], len(text))
    # a literal within the limit is parsed, and a zero denominator under it
    # is refused with the same short echo
    text = "1" * INT_DIGITS + "/0"
    with pytest.raises(ValueError) as exc:
        parse_rational(text)
    assert str(exc.value) == "zero denominator in rational literal: %r... (%d characters)" % (
        text[:20], len(text))


def test_printed_rational_round_trip():
    # every rational is printed with str: "p/q" in lowest terms, "p" when
    # integral, and parse_rational reads it back
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        assert parse_rational(str(q)) == q
    assert str(Fraction(1, 2)) == "1/2"
    assert str(Fraction(-6, 4)) == "-3/2"
    assert str(Fraction(5)) == "5"


def test_variable_and_arith():
    y1 = Form.variable(1, 3)
    y2 = Form.variable(2, 3)
    p = y1 + y2
    assert str(p) == "y1 + y2"
    assert str(y1 - y1) == "0"
    assert str(2 * y1) == "2*y1"
    assert 0 + p == p
    assert (y1 - y1).terms == {}
    # the product of two forms is a quadratic form, compared exactly
    assert y1 * y2 == y2 * y1
    assert (y1 + y2) * (y1 - y2) == y1 * y1 + y2 * -y2
    assert not y1 * y2 + (-y1) * y2
    with pytest.raises(TypeError):
        y1 + 1  # no constant term
    with pytest.raises(ValueError):
        y1 + Form.variable(1, 4)
    with pytest.raises(ValueError):
        Form.variable(4, 3)


def test_canonical_string_graded_lex():
    # terms by ascending variable index, which is graded lexicographic
    # order on degree-one monomials: y2 before y10, not string order
    y = [None] + [Form.variable(j, 10) for j in range(1, 11)]
    p = y[10] + y[2] * 3 - y[1] + Fraction(1, 2) * y[3]
    assert str(p) == "-y1 + 3*y2 + 1/2*y3 + y10"
    assert str(-p) == "y1 - 3*y2 - 1/2*y3 - y10"
    assert str(y[2] - y[10]) == "y2 - y10"


def test_evaluate():
    y1 = Form.variable(1, 2)
    y2 = Form.variable(2, 2)
    p = y1 * Fraction(1, 2) + 3 * y2
    lam = (Fraction(1, 2), Fraction(2, 3))
    assert form_value(p, lam) == Fraction(1, 4) + 2
    with pytest.raises(ValueError):
        form_value(p, (Fraction(1),))


def test_substitute_permutation_with_infinity():
    # y1 -> y2, y2 -> -(y1+y2) models the action of a permutation sending
    # 2 to the infinity index on two variables
    y1 = Form.variable(1, 2)
    y2 = Form.variable(2, 2)
    sub = {1: y2, 2: -(y1 + y2)}
    assert (2 * y1 - y2).substitute(sub) == y1 + 3 * y2
    assert y1.substitute({2: y1}) == y1
    # substitution is linear on a random sample
    rng = random.Random(3)
    for _ in range(20):
        a, b = (Form(2, {j: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for j in (1, 2)}) for _ in range(2))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (a + b).substitute(sub) == a.substitute(sub) + b.substitute(sub)
        assert (c * a).substitute(sub) == c * a.substitute(sub)


def test_subset_sum_eliminates_infinity():
    # y_{n+1} is never a variable: it is eliminated as -(y_1+...+y_n)
    n = 5
    y = [Form.variable(j, n) for j in range(1, n + 1)]
    p = Form.subset_sum([3, 4, 5], n)
    assert p == y[2] + y[3] + y[4]
    q = Form.subset_sum([3, 4, 6], n)
    assert q == -(y[0] + y[1] + y[4])


def test_serialization_round_trip_and_shape():
    y1 = Form.variable(1, 2)
    y2 = Form.variable(2, 2)
    p = Fraction(1, 2) * y1 - y2
    rec = p.to_json()
    # one record per term, ascending index, with its exponent vector
    assert rec == [
        {"coefficient": "1/2", "exponents": [1, 0]},
        {"coefficient": "-1", "exponents": [0, 1]},
    ]
    # the records determine the form, also after a JSON round trip
    back = sum((parse_rational(r["coefficient"])
                * Form.variable(r["exponents"].index(1) + 1, 2)
                for r in json.loads(json.dumps(rec))), Form.zero(2))
    assert back == p


def test_zero_polynomial_serializes_empty():
    z = Form.zero(4)
    assert z.to_json() == []
    assert str(z) == "0"
    assert not z
    assert z == Form(4, {2: Fraction(0)})
    assert form_value(z, (Fraction(1), Fraction(2), Fraction(3), Fraction(4))) == 0
    assert not Quadratic()
    assert z * z == Quadratic()


N = 4


@PROPERTY
@given(a=linear_forms(N), b=linear_forms(N), c=small_rationals(),
       point=st.lists(small_rationals(), min_size=N, max_size=N),
       images=st.dictionaries(st.integers(1, N), linear_forms(N), max_size=N))
def test_linear_form_arithmetic_matches_evaluation(a, b, c, point, images):
    def ev(f):
        return form_value(f, point)

    assert ev(a + b) == ev(a) + ev(b)
    assert ev(a - b) == ev(a) - ev(b)
    assert ev(-a) == -ev(a)
    assert ev(a * c) == ev(c * a) == c * ev(a)
    assert quadratic_value(a * b, point) == ev(a) * ev(b)
    assert quadratic_value(a * b + b * b, point) == (ev(a) + ev(b)) * ev(b)
    units = [[Fraction(int(i == j)) for i in range(N)] for j in range(N)]
    assert bool(a) == any(form_value(a, u) for u in units)
    moved = [ev(images[j]) if j in images else point[j - 1] for j in range(1, N + 1)]
    assert ev(a.substitute(images)) == form_value(a, moved)


def _exact_type(c):
    return type(c) is (int if c.denominator == 1 else Fraction)


def test_integral_coefficients_are_stored_as_int():
    f = Form(3, {1: Fraction(4, 2), 2: Fraction(1, 2), 3: 0})
    assert f.terms == {1: 2, 2: Fraction(1, 2)}
    assert type(f.terms[1]) is int and type(f.terms[2]) is Fraction
    assert type(Form.variable(2, 3).terms[2]) is int
    assert all(type(c) is int for c in Form.subset_sum((1, 4), 3).terms.values())
    # a rational scalar that cancels leaves an int; one that does not stays
    assert type((f * Fraction(2)).terms[2]) is int
    assert type((f * Fraction(1, 3)).terms[1]) is Fraction
    assert type((f + f).terms[2]) is int
    # printing and serialization cannot tell an int from an integral Fraction
    g = Form._of(3, {1: Fraction(2), 2: Fraction(1, 2)})
    assert f == g and str(f) == str(g) and f.to_json() == g.to_json()


@given(f=linear_forms(3), g=linear_forms(3), c=small_rationals())
@PROPERTY
def test_arithmetic_keeps_coefficients_exact(f, g, c):
    # every coefficient is an int exactly when it is integral
    for h in (f, f + g, f - g, -f, f * c, c * f, f * 3):
        assert all(_exact_type(x) for x in h.terms.values())
    assert all(_exact_type(x) for x in (f * g).terms.values())
