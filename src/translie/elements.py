"""Basis symbols and finite formal linear combinations.

The basis has two families of symbols, L_r and M_r, indexed by signed
integers.  The canonical total order puts every L before every M and
sorts each family by index; tuple comparison on (family, index) gives
exactly that order since "L" < "M".

An Element is a finite formal linear combination of basis symbols, stored
sparsely, its coefficients ints, GaussInts or Scalars as arithmetic gives
them (a basis element has the int 1).  Zero coefficients are never stored.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IndexOverflowError

# Indices are kept within the signed 64-bit range so that index sums in
# structure constants stay machine-checked rather than silently huge.
MAX_INDEX = 2**63 - 1


class BasisSymbol(NamedTuple):
    family: str  # "L" or "M"
    index: int

    def __str__(self):
        return f"{self.family}_{self.index}"


def check_index(i):
    if not -MAX_INDEX <= i <= MAX_INDEX:
        raise IndexOverflowError(f"basis index {i} out of range")
    return i


_new_symbol = tuple.__new__  # BasisSymbol(...) without the NamedTuple __new__ call


def L(i):
    if -MAX_INDEX <= i <= MAX_INDEX:
        return _new_symbol(BasisSymbol, ("L", i))
    return BasisSymbol("L", check_index(i))


def M(i):
    if -MAX_INDEX <= i <= MAX_INDEX:
        return _new_symbol(BasisSymbol, ("M", i))
    return BasisSymbol("M", check_index(i))


class Element:
    """Immutable sparse linear combination of basis symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pruned = {}
        if terms:
            for sym, coeff in terms.items():
                if coeff:
                    pruned[sym] = coeff
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @staticmethod
    def basis(sym):
        return Element({sym: 1})

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, sym):
        return self.terms.get(sym, 0)

    def support(self):
        return sorted(self.terms)

    def sorted_terms(self):
        return [(sym, self.terms[sym]) for sym in sorted(self.terms)]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return combine(1, self, 1, other)

    def __sub__(self, other):
        return combine(1, self, -1, other)

    def __neg__(self):
        return Element({sym: -coeff for sym, coeff in self.terms.items()})

    def scale(self, scalar):
        if not scalar:
            return _ZERO_ELEMENT
        return Element({sym: coeff * scalar for sym, coeff in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for sym, coeff in self.sorted_terms():
            parts.append(f"({coeff})*{sym}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Element<{self}>"


_ZERO_ELEMENT = Element()


def add_terms(acc, scale, terms):
    """acc += scale * terms for a list of (coefficient, symbol) terms, in
    place; zero coefficients are never stored."""
    for base, sym in terms:
        val = scale * base
        cur = acc.get(sym)
        if cur is None:
            if val:
                acc[sym] = val
        else:
            cur = cur + val
            if cur:
                acc[sym] = cur
            else:
                del acc[sym]


def extend(kernel, *maps):
    """The multilinear extension of a basis-level kernel to sparse maps.

    kernel(*symbols) gives a list of (coefficient, symbol) terms; each map
    is symbol -> coefficient.  Returns the sparse map of the sum, over one
    symbol from each map, of the product of their coefficients times the
    kernel's terms.  Coefficients, of the maps and of the kernel alike,
    may be ints, GaussInts and Scalars, mixed: a product or sum that meets
    a Scalar is a Scalar, so Scalar maps (Elements) give Scalars, and
    Gaussian-integer maps give Gaussian integers wherever the kernel does.
    """
    first, *rest = maps
    prefixes = [((sym,), coeff) for sym, coeff in first.items()]
    for m in rest:
        prefixes = [
            (syms + (sym,), scale * coeff)
            for syms, scale in prefixes
            for sym, coeff in m.items()
        ]
    acc = {}
    for syms, scale in prefixes:
        add_terms(acc, scale, kernel(*syms))
    return acc


def combine(a, x, b, y):
    """a*x + b*y with zero terms pruned."""
    acc = {}
    add_terms(acc, a, [(c, s) for s, c in x.terms.items()])
    add_terms(acc, b, [(c, s) for s, c in y.terms.items()])
    return Element(acc)
