import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from translie import linalg
from translie.elements import Element, L
from translie.linalg import ConstraintSystem
from translie.scalars import (
    I, ONE, GaussInt, Scalar, ZERO, gauss, ggcd, lift, narrow, unit
)

from spaces import has_gaussian_form


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
    and when it is an integer the int; when it is a Gaussian integer off the
    real line, the GaussInt."""
    re = draw(_RATIONALS)
    im = draw(st.one_of(st.just(Fraction(0)), _RATIONALS))
    forms = [Scalar(re, im)]
    if not im:
        forms.append(re)
        if re.denominator == 1:
            forms.append(int(re))
    elif re.denominator == im.denominator == 1:
        forms.append(GaussInt(int(re), int(im)))
    return draw(st.sampled_from(forms)), draw(st.sampled_from(forms))


_SCALARS = st.builds(Scalar, _RATIONALS, _RATIONALS)
_GAUSSIAN_INTS = st.builds(gauss, st.integers(-4, 4), st.integers(-4, 4))
_NUMBERS = st.one_of(st.integers(-4, 4), _RATIONALS, _SCALARS, _GAUSSIAN_INTS)


@given(st.one_of(_equal_numbers(), st.tuples(_NUMBERS, _NUMBERS)))
def test_equal_numbers_have_equal_hashes(pair):
    """Scalar(1) == 1 and Scalar(1/2) == Fraction(1, 2), so a set or a dict
    key must see one number: a == b implies hash(a) == hash(b)."""
    a, b = pair
    if a == b:
        assert hash(a) == hash(b)


def test_a_scalar_is_one_set_member_with_its_number():
    assert len({1, Scalar(1)}) == 1
    assert len({Fraction(1, 2), Scalar(Fraction(1, 2))}) == 1
    assert len({GaussInt(2, -3), Scalar(2, -3)}) == 1
    assert hash(Element({L(0): 1})) == hash(Element({L(0): Scalar(1)}))


@given(_SCALARS, st.one_of(st.integers(-4, 4), _GAUSSIAN_INTS, _SCALARS), st.booleans())
def test_mixed_arithmetic_matches_the_scalar_computation(scalar, other, scalar_first):
    """With a Scalar on either side and an int, a GaussInt or a Scalar on
    the other, + - * and / give the Scalar the all-Scalar computation
    gives; dividing by zero raises ZeroDivisionError either way."""
    a, b = (scalar, other) if scalar_first else (other, scalar)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and not b:
            for x, y in ((a, b), (lift(a), lift(b))):
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
            continue
        got = op(a, b)
        assert type(got) is Scalar and got == op(lift(a), lift(b)), op


@given(_SCALARS)
def test_narrow_keeps_the_value_in_the_narrowest_exact_type(v):
    """An int or a GaussInt when both parts are integers (an int when the
    imaginary part is 0), else the Scalar itself."""
    n = narrow(v)
    assert lift(n) == v
    if v.re.denominator == v.im.denominator == 1:
        assert type(n) is (GaussInt if v.im else int)
    else:
        assert n is v


# ---------------------------------------------------------------------------
# the Gaussian integers

_SMALL = st.integers(-6, 6)
_GAUSS = st.builds(gauss, _SMALL, _SMALL)


def _pair(z):
    return (z, 0) if type(z) is int else (z.re, z.im)


def _divides(d, z):
    """d | z in Z[i], by integer pair arithmetic (d nonzero)."""
    (a, b), (c, e) = _pair(z), _pair(d)
    norm = c * c + e * e
    return (a * c + b * e) % norm == 0 and (b * c - a * e) % norm == 0


def _canonical(z):
    re, im = _pair(z)
    return re > 0 and im >= 0


@given(_GAUSS, _GAUSS)
def test_gaussian_arithmetic_matches_scalars(a, b):
    """+, -, * and unary - agree with Scalar arithmetic, mixed with ints
    either side; a result with no imaginary part is a plain int."""
    for exact, lifted in (
        (a + b, lift(a) + lift(b)),
        (a - b, lift(a) - lift(b)),
        (a * b, lift(a) * lift(b)),
        (-a, -lift(a)),
    ):
        assert lift(exact) == lifted
        assert type(exact) is (GaussInt if lifted.im else int)
    assert (a == b) == (lift(a) == lift(b))
    if a == b:
        assert hash(a) == hash(b)


@given(_GAUSS, _GAUSS.filter(bool))
def test_gaussian_floor_division_is_exact(a, b):
    """(a * b) // b is a; with a GaussInt on either side, a // b raises
    unless b divides a (int // int stays Python's floor division)."""
    assert (a * b) // b == a
    if _divides(b, a):
        assert (a // b) * b == a
    elif GaussInt in (type(a), type(b)):
        with pytest.raises(ValueError):
            a // b


@given(_GAUSS, _GAUSS)
def test_ggcd_is_a_greatest_common_divisor(a, b):
    """ggcd(a, b) is canonical, divides both, and every common divisor
    found by brute force over the norms up to theirs divides it."""
    g = ggcd(a, b)
    if not a and not b:
        assert g == 0
        return
    assert _canonical(g) and _divides(g, a) and _divides(g, b)
    bound = max(abs(v) for v in (*_pair(a), *_pair(b)))
    for d in (gauss(re, im) for re in range(-bound, bound + 1) for im in range(-bound, bound + 1)):
        if d and _divides(d, a) and _divides(d, b):
            assert _divides(d, g)


@given(_GAUSS.filter(bool))
def test_unit_and_canonical_associate(z):
    u = unit(z)
    assert u in (1, -1, GaussInt(0, 1), GaussInt(0, -1))
    assert _canonical(z // u) and u * (z // u) == z


_ROWS = st.dictionaries(st.integers(0, 5), _GAUSS.filter(bool), min_size=1, max_size=4)


@given(_ROWS, _GAUSS.filter(bool))
def test_associates_and_rational_multiples_share_one_normal_form(row, scale):
    """r, i r, (1+i) r, 3 r, r/2 and any Gaussian-integer multiple of r
    have one normal form, primitive with a canonical lead."""
    form = linalg._normal_form(row)
    values = [v for _, v in form]
    assert _canonical(values[0]) and ggcd(*values) == 1
    scalars = {c: lift(v) for c, v in row.items()}
    for factor in (Scalar(0, 1), Scalar(1, 1), Scalar(3), Scalar(Fraction(1, 2))):
        assert linalg._normal_form({c: v * factor for c, v in scalars.items()}) == form
    assert linalg._normal_form({c: v * scale for c, v in row.items()}) == form
    assert linalg._normal_form(scalars) == form


@given(st.dictionaries(st.integers(0, 5), _SMALL.filter(bool), min_size=1, max_size=4),
       st.sampled_from([GaussInt(0, 1), GaussInt(1, 1), GaussInt(-2, 3)]))
def test_an_integer_row_and_its_gaussian_associate_are_one_distinct_form(row, scale):
    system = ConstraintSystem()
    system.add_columns(dict(row))
    system.add_columns({c: v * scale for c, v in row.items()})
    assert len(system.distinct) == 1 and not has_gaussian_form(system)
    assert all(type(v) is int for _, v in next(iter(system.distinct)))
