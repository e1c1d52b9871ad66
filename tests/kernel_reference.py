"""The basis-level bracket kernel written with a separate three-way sort,
`_sort3`: the oracle for `algebras._bracket_terms`, which sorts inline.
Symbols are built through check_index, so an index out of range raises
IndexOverflowError at the first out-of-range symbol the table builds."""

from translie.algebras import A_OMEGA_DELTA, AFK, OMEGA_FORM
from translie.elements import BasisSymbol, check_index


def L(i):
    return BasisSymbol("L", check_index(i))


def M(i):
    return BasisSymbol("M", check_index(i))


def _sort3(a, b, c):
    """Sort three distinct symbols into canonical order; returns (tuple, sign)."""
    sign = 1
    if b < a:
        a, b = b, a
        sign = -sign
    if c < b:
        b, c = c, b
        sign = -sign
    if b < a:
        a, b = b, a
        sign = -sign
    return a, b, c, sign


def _bracket_terms(kind, k, f_values, x, y, z):
    """The bracket table: [x,y,z] as (coefficient, symbol) terms, f's values
    found in f_values and every other structure constant an int."""
    if x == y or y == z or x == z:
        return []
    a, b, c, sign = _sort3(x, y, z)
    if a.family != "L" or c.family != "M":
        return []
    r, s, t = a.index, b.index, c.index
    if kind == A_OMEGA_DELTA:
        if b.family == "L":
            return [(sign * (s - r), L(r + s + t))]
        return [(sign * (s - t), M(r + s + t))]
    if kind == OMEGA_FORM:
        if b.family == "L":
            return [(sign * (s - r), L(r + s - t))]
        return [(sign * (t - s), M(s + t - r))]
    if kind == AFK:
        fv = f_values.get(t) if b.family == "L" else None
        return [(fv * (sign * (r - s)), L(r + s + k))] if fv else []
    raise ValueError(f"unknown bracket kind {kind!r}")
