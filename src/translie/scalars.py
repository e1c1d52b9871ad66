"""Exact Gaussian-rational scalars.

A Scalar is a + b*i with a, b arbitrary-precision rationals held as
`fractions.Fraction`, which keeps both parts in canonical reduced form
(gcd(num, den) = 1, den > 0).  Equality is exact structural equality.
All arithmetic is exact field arithmetic; division by zero raises the
builtin ZeroDivisionError.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c, _ZERO_FRACTION)
        if not d:  # a real factor scales both parts, as the bracket's f(M_t)*n
            return Scalar(a * c, b * c)
        return Scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        if not d:
            # purely real divisor; ZeroDivisionError propagates when c == 0
            return Scalar(self.re / c, self.im / c)
        norm = c * c + d * d
        a, b = self.re, self.im
        return Scalar((a * c + b * d) / norm, (b * c - a * d) / norm)

    def scale_int(self, n):
        if n == 1:
            return self
        return Scalar(self.re * n, self.im * n)

    # -- comparisons and hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # equal to an int or a Fraction when real, so hash as that number
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
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)

_INT_CACHE: dict[int, Scalar] = {0: ZERO, 1: ONE, -1: MINUS_ONE}


def as_int(v):
    """A Scalar's value as an int when it is an integer, else None."""
    return v.re.numerator if not v.im and v.re.denominator == 1 else None


def from_int(n):
    """Shared Scalar for a small integer; used by structure-constant code."""
    s = _INT_CACHE.get(n)
    if s is None:
        s = Scalar(n)
        if -256 <= n <= 256:
            _INT_CACHE[n] = s
    return s
