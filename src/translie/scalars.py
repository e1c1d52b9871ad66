"""Exact Gaussian-rational scalars, and the Gaussian integers.

A Scalar is a + b*i with a, b arbitrary-precision rationals held as
`fractions.Fraction`, which keeps both parts in canonical reduced form
(gcd(num, den) = 1, den > 0).  Equality is exact: a Scalar equals the int,
Fraction or GaussInt of the same value, and hashes as it.  All arithmetic
is exact field arithmetic; division by zero raises the builtin
ZeroDivisionError.

The Gaussian integers Z[i] are the plain ints together with GaussInt, an
integer pair re + im*i whose im is never 0: arithmetic that cancels the
imaginary part gives a plain int, so a real value is always an int and an
int computation never meets a GaussInt.  Z[i] is a Euclidean domain:
`ggcd` is Euclid's algorithm with quotients rounded in integers, and every
nonzero value has one associate (a unit multiple) with re > 0 and im >= 0,
its canonical form.

The three types mix in + - * and /: a Scalar takes an int or a GaussInt
on either side, lifting it, and the result is a Scalar.  A constant is
stored only narrowed (`narrow`): in Z[i] when both parts are integers,
else as a Scalar.  So kernels, constraint rows and elimination run in Z[i]
wherever the constants are Gaussian integers as given, a rational
constant brings Scalars only into the terms it multiplies, and `lift`
makes a value a Scalar for reports (a GaussInt prints as that Scalar).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_ZERO_FRACTION = Fraction(0)
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class Scalar:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            return Scalar(self.re + other, self.im)
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if type(other) is int:
            return Scalar(self.re - other, self.im)
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is int:
            return Scalar(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c, _ZERO_FRACTION)
        if not d:  # a real factor scales both parts, as the bracket's f(M_t)*n
            return Scalar(a * c, b * c)
        return Scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        if type(other) is int:
            # ZeroDivisionError propagates when other == 0
            return Scalar(self.re / other, self.im / other)
        c, d = other.re, other.im
        if not d:
            # purely real divisor; ZeroDivisionError propagates when c == 0
            return Scalar(self.re / c, self.im / c)
        norm = c * c + d * d
        a, b = self.re, self.im
        return Scalar((a * c + b * d) / norm, (b * c - a * d) / norm)

    # an int or a GaussInt on the left, as when Z[i] values meet a rational
    # constant: lifted, then the Scalar method runs (called directly, so an
    # operand lift leaves as it is fails there instead of recursing)

    def __radd__(self, other):
        return Scalar.__add__(lift(other), self)

    def __rsub__(self, other):
        return Scalar.__sub__(lift(other), self)

    def __rmul__(self, other):
        return Scalar.__mul__(lift(other), self)

    def __rtruediv__(self, other):
        return Scalar.__truediv__(lift(other), self)

    def scale_int(self, n):
        if n == 1:
            return self
        return Scalar(self.re * n, self.im * n)

    # -- comparisons and hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar) or type(other) is GaussInt:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # equal to an int or a Fraction when real, so hash as that number,
        # and to a GaussInt otherwise, which hashes as the pair of its parts
        return hash(self.re) if not self.im else hash((self.re, self.im))

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = f"{self.im}i"
        if not self.re:
            return imag
        return f"{self.re}+{imag}" if self.im > 0 else f"{self.re}{imag}"

    def __repr__(self):
        return f"Scalar({self})"

    @staticmethod
    def parse(text):
        """Parse strings like "5", "-3/4", "1+2i", "1/2-5i", "i", "-i".

        A malformed string, a zero denominator included, raises ValueError.
        """
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        if not s.endswith("i"):
            real, imag = s, "0"
        else:
            body = s[:-1]
            # locate the sign separating real and imaginary parts, if any
            sep = max(body.rfind("+", 1), body.rfind("-", 1))
            if sep == -1:
                real, imag = "0", body
            else:
                real, imag = body[:sep], body[sep:]
            if imag in ("", "+"):
                imag = "1"
            elif imag == "-":
                imag = "-1"
        if not _RATIONAL_RE.match(real) or not _RATIONAL_RE.match(imag):
            raise ValueError(f"bad scalar string: {text!r}")
        try:
            return Scalar(Fraction(real), Fraction(imag))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar string: {text!r}") from None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def narrow(v):
    """A value (int, GaussInt, Scalar, or what Scalar() reads) in Z[i] when
    both its parts are integers, else as a Scalar."""
    if type(v) is int or type(v) is GaussInt:
        return v
    v = v if isinstance(v, Scalar) else Scalar(v)
    re, im = v.re, v.im
    if re.denominator != 1 or im.denominator != 1:
        return v
    return GaussInt(re.numerator, im.numerator) if im else re.numerator


def lift(v):
    """An int or a GaussInt as a Scalar; a Scalar is returned as it is."""
    if type(v) is int:
        return Scalar(v)
    if type(v) is GaussInt:
        return Scalar(v.re, v.im)
    return v


# ---------------------------------------------------------------------------
# the Gaussian integers


class GaussInt:
    """A Gaussian integer re + im*i with int parts and im != 0; treated as
    immutable.  Results whose imaginary part is 0 are plain ints."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        if type(other) is int:
            return GaussInt(self.re + other, self.im)
        if type(other) is GaussInt:
            im = self.im + other.im
            return GaussInt(self.re + other.re, im) if im else self.re + other.re
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return GaussInt(self.re - other, self.im)
        if type(other) is GaussInt:
            im = self.im - other.im
            return GaussInt(self.re - other.re, im) if im else self.re - other.re
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return GaussInt(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is int:
            return GaussInt(self.re * other, self.im * other) if other else 0
        if type(other) is GaussInt:
            a, b, c, d = self.re, self.im, other.re, other.im
            im = a * d + b * c
            return GaussInt(a * c - b * d, im) if im else a * c - b * d
        return NotImplemented

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient; ValueError when other does not divide self."""
        if type(other) is int:
            re, r1 = divmod(self.re, other)
            im, r2 = divmod(self.im, other)
            if r1 or r2:
                raise ValueError(f"{other!r} does not divide {self!r}")
            return GaussInt(re, im)
        if type(other) is GaussInt:
            return _quotient(self.re, self.im, other.re, other.im)
        return NotImplemented

    def __rfloordiv__(self, other):
        if type(other) is int:
            return _quotient(other, 0, self.re, self.im)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is GaussInt:
            return self.re == other.re and self.im == other.im
        if type(other) is int:
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return str(Scalar(self.re, self.im))

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"


def gauss(re, im):
    """re + im*i in Z[i]: an int when im is 0, else a GaussInt."""
    return GaussInt(re, im) if im else re


def _quotient(a, b, c, d):
    """(a + bi) / (c + di) when exact; ValueError otherwise."""
    norm = c * c + d * d
    re, r1 = divmod(a * c + b * d, norm)
    im, r2 = divmod(b * c - a * d, norm)
    if r1 or r2:
        raise ValueError(f"{gauss(c, d)!r} does not divide {gauss(a, b)!r}")
    return GaussInt(re, im) if im else re


def _parts(v):
    if type(v) is int:
        return v, 0
    if type(v) is GaussInt:
        return v.re, v.im
    raise TypeError(f"not a Gaussian integer: {v!r}")


def ggcd(*values):
    """A greatest common divisor in Z[i] of ints and GaussInts, in
    canonical form (see `unit`); 0 when every value is 0.

    Euclid's algorithm with the quotient rounded to the nearest Gaussian
    integer in integer arithmetic, so each remainder has at most half the
    divisor's norm.  Stops early once the gcd is a unit.
    """
    a = b = 0
    for v in values:
        c, d = _parts(v)
        if not b and not d:
            a = gcd(a, c)
        else:
            while c or d:
                n = c * c + d * d
                x, y = a * c + b * d, b * c - a * d
                qr, qi = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
                a, b, c, d = c, d, a - qr * c + qi * d, b - qr * d - qi * c
        if a * a + b * b == 1:
            return 1
    if a <= 0 and b > 0:  # rotate by a unit into re > 0, im >= 0
        a, b = b, -a
    elif a < 0 and b <= 0:
        a, b = -a, -b
    elif a >= 0 and b < 0:
        a, b = -b, a
    return GaussInt(a, b) if b else a


def unit(z):
    """The unit u (1, i, -1 or -i) with z = u * c for c canonical: re > 0
    and im >= 0; z is nonzero."""
    if type(z) is int:
        return 1 if z > 0 else -1
    a, b = z.re, z.im
    if a > 0 and b >= 0:
        return 1
    if a <= 0 and b > 0:
        return I_UNIT
    if a < 0 and b <= 0:
        return -1
    return MINUS_I_UNIT


def ratio(n, d):
    """n / d as a Scalar, for Gaussian integers n and d != 0."""
    a, b = _parts(n)
    c, e = _parts(d)
    norm = c * c + e * e
    return Scalar(Fraction(a * c + b * e, norm), Fraction(b * c - a * e, norm))


I_UNIT = GaussInt(0, 1)
MINUS_I_UNIT = GaussInt(0, -1)
