import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from translie.elements import Element, L
from translie.scalars import I, ONE, Scalar, ZERO, from_int


def test_rational_product():
    assert Scalar(Fraction(1, 2)) * Scalar(Fraction(2, 3)) == Scalar(Fraction(1, 3))


def test_i_squared_is_minus_one():
    assert I * I == Scalar(-1)


def test_additive_cancellation():
    a = Scalar(Fraction(3, 4), Fraction(1, 2))
    b = Scalar(Fraction(1, 4), Fraction(-1, 2))
    assert a + b == ONE


def test_division_exact():
    a = Scalar(Fraction(1, 2), Fraction(5))
    assert (a / a) == ONE
    assert a * (ONE / a) == ONE
    # i has inverse -i
    assert ONE / I == Scalar(0, -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_canonical_reduced_form():
    s = Scalar(Fraction(2, 4), Fraction(-6, 8))
    assert s.re.numerator == 1 and s.re.denominator == 2
    assert s.im.numerator == -3 and s.im.denominator == 4


def test_parse_round_trip():
    for text in ["5", "-3/4", "1+2i", "1/2+5i", "1/2-5i", "i", "-i", "0", "-3/4i"]:
        s = Scalar.parse(text)
        assert Scalar.parse(str(s)) == s


def test_parse_rejects_garbage():
    for text in ["", "x", "1/", "1+2", "++i", "1/2+", "2i+3", "1/0", "1+2/0i"]:
        with pytest.raises(ValueError):
            Scalar.parse(text)


def test_small_int_cache_shared():
    assert from_int(3) is from_int(3)
    assert from_int(3) == Scalar(3)


def test_float_agreement_sampled():
    """Exact arithmetic tracks complex floating point within 1e-9 on
    1000 random small-denominator samples."""
    rng = random.Random(20240811)

    def sample():
        return Scalar(
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
        )

    def approx_of(x):
        return complex(x.re, x.im)

    for _ in range(1000):
        a, b = sample(), sample()
        op = rng.choice(["add", "sub", "mul", "div", "neg"])
        if op == "add":
            exact, approx = a + b, approx_of(a) + approx_of(b)
        elif op == "sub":
            exact, approx = a - b, approx_of(a) - approx_of(b)
        elif op == "mul":
            exact, approx = a * b, approx_of(a) * approx_of(b)
        elif op == "neg":
            exact, approx = -a, -approx_of(a)
        else:
            if not b:
                continue
            exact, approx = a / b, approx_of(a) / approx_of(b)
        assert abs(approx_of(exact) - approx) < 1e-9


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _equal_numbers(draw):
    """Two forms of one number: a Scalar, and when it is real the Fraction,
    and when it is an integer the int."""
    re = draw(_RATIONALS)
    im = draw(st.one_of(st.just(Fraction(0)), _RATIONALS))
    forms = [Scalar(re, im)]
    if not im:
        forms.append(re)
        if re.denominator == 1:
            forms.append(int(re))
    return draw(st.sampled_from(forms)), draw(st.sampled_from(forms))


_NUMBERS = st.one_of(st.integers(-4, 4), _RATIONALS, st.builds(Scalar, _RATIONALS, _RATIONALS))


@given(st.one_of(_equal_numbers(), st.tuples(_NUMBERS, _NUMBERS)))
def test_equal_numbers_have_equal_hashes(pair):
    """Scalar(1) == 1 and Scalar(1/2) == Fraction(1, 2), so a set or a dict
    key must see one number: a == b implies hash(a) == hash(b)."""
    a, b = pair
    if a == b:
        assert hash(a) == hash(b)


def test_a_real_scalar_is_one_set_member_with_its_number():
    assert len({1, Scalar(1)}) == 1
    assert len({Fraction(1, 2), Scalar(Fraction(1, 2))}) == 1
    assert hash(Element({L(0): 1})) == hash(Element({L(0): Scalar(1)}))
