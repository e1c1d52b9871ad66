"""Closed-form bracket, product, and operator definitions.

The commutative product on the base algebra multiplies within each basis
family by adding indices and annihilates mixed pairs:

    L_r * L_s = L_{r+s},   M_r * M_s = M_{r+s},   L_r * M_s = 0.

Three ternary brackets are provided, each stated on canonically ordered
basis triples and extended to arbitrary orderings by total antisymmetry
(sort the arguments, multiply by the permutation sign; repeated symbols
give 0):

  a-omega-delta-omega-form   [L_r,L_s,M_t] = (s-r) L_{r+s-t}
                             [L_r,M_s,M_t] = (t-s) M_{s+t-r}
  a-omega-delta              [L_r,L_s,M_t] = (s-r) L_{r+s+t}
                             [L_r,M_s,M_t] = (s-t) M_{r+s+t}
  a-f-k                      [L_r,L_s,M_t] = f(M_t) (r-s) L_{r+s+k}
                             [L_r,M_s,M_t] = 0

All-L and all-M triples vanish in every bracket.  The a-f-k bracket is
parameterized by an integer shift k and a nonzero linear functional f that
vanishes on the whole L family and has finite support on the M family.

Every definition gives its terms through one method, `terms`, reading its
constants in their narrowest exact type, the only form they are stored in,
narrowed once at construction (scalars.narrow): the index-built structure
constants are ints, and a value of f or of a product parameter is an int
or a scalars.GaussInt when both its parts are integers as given (f = 1+i
included), else a Scalar.
So a definition whose constants are Gaussian integers gives coefficients
in Z[i], and a rational constant gives Scalars in the terms it touches
only; the types mix in arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .elements import BasisSymbol, Element, L, M, check_index, extend
from .scalars import narrow

A_OMEGA_DELTA = "a-omega-delta"
OMEGA_FORM = "a-omega-delta-omega-form"
AFK = "a-f-k"


def narrowed(items):
    """{key: value} of (key, value) items, each value narrowed, zeros dropped."""
    return {key: v for key, v in ((key, narrow(v)) for key, v in items) if v}


@dataclass(frozen=True)
class FiniteFunctional:
    """Linear map with value 0 on every L_r and finite support on the M_r.

    `values` holds the nonzero values as sorted (index, value) pairs, each
    value narrowed once, here (scalars.narrow): an int or a GaussInt when
    both its parts are integers as given (f = 1+i has them, f = 1/2 and
    f = 1/2+i not), else the Scalar; `by_index` is dict(values).
    """

    values: tuple
    by_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(sorted(narrowed((int(i), v) for i, v in self.values).items()))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "by_index", dict(values))

    @property
    def support(self):
        return [idx for idx, _ in self.values]

    def is_zero(self):
        return not self.values


def functional(mapping):
    """The FiniteFunctional with f(M_i) = mapping[i]; zero values dropped."""
    return FiniteFunctional(tuple(mapping.items()))


def _bracket_terms(kind, k, f_values, x, y, z):
    """The bracket table: [x,y,z] as (coefficient, symbol) terms, f's values
    found in f_values and every other structure constant an int.  The
    arguments are put in canonical order x < y < z, the sign counting the
    swaps; a repeated symbol gives no terms."""
    sign = 1
    if y < x:
        x, y, sign = y, x, -1
    if z < y:
        y, z, sign = z, y, -sign
        if y < x:
            x, y, sign = y, x, -sign
    fa, r = x
    fb, s = y
    fc, t = z
    if fa != "L" or fc != "M" or x == y or y == z:
        return []
    if kind == A_OMEGA_DELTA:
        if fb == "L":
            return [(sign * (s - r), L(r + s + t))]
        return [(sign * (s - t), M(r + s + t))]
    if kind == OMEGA_FORM:
        if fb == "L":
            return [(sign * (s - r), L(r + s - t))]
        return [(sign * (t - s), M(s + t - r))]
    if kind == AFK:
        fv = f_values.get(t) if fb == "L" else None
        return [(fv * (sign * (r - s)), L(r + s + k))] if fv else []
    raise ValueError(f"unknown bracket kind {kind!r}")


@dataclass(frozen=True)
class BracketDef:
    kind: str
    k: int = 0
    f: FiniteFunctional | None = None

    # _bracket_terms sorts its arguments, carries the permutation sign and
    # gives no terms on a repeated symbol, so laws may evaluate one tuple
    # per orbit of argument permutations
    antisymmetric = True

    def terms(self, x, y, z):
        """Bracket of three basis symbols as a list of (coefficient, symbol)
        terms."""
        return _bracket_terms(self.kind, self.k, self.f and self.f.by_index, x, y, z)


def a_omega_delta():
    return BracketDef(A_OMEGA_DELTA)


def omega_form():
    return BracketDef(OMEGA_FORM)


def afk(k, f):
    if f.is_zero():
        raise ValueError("the a-f-k bracket requires a nonzero functional")
    return BracketDef(AFK, k=check_index(k), f=f)


def bracket_eval(bdef, x, y, z):
    """Trilinear extension of the bracket to arbitrary Elements."""
    return Element(extend(bdef.terms, x.terms, y.terms, z.terms))


ALGEBRA_A = "algebra-a"
ZERO_PRODUCT = "zero"
TP_FAMILY = "tp-family"


@dataclass(frozen=True)
class ProductDef:
    kind: str
    params: object = None  # TPParams for kind "tp-family"

    def terms(self, x, y):
        """Product of two basis symbols as a list of (coefficient, symbol)
        terms."""
        kind = self.kind
        if kind == ALGEBRA_A:
            if x.family != y.family:
                return []
            return [(1, BasisSymbol(x.family, check_index(x.index + y.index)))]
        if kind == ZERO_PRODUCT:
            return []
        if kind == TP_FAMILY:
            return self.params.product_terms(x, y)
        raise ValueError(f"unknown product kind {kind!r}")


def algebra_a():
    return ProductDef(ALGEBRA_A)


def zero_product():
    return ProductDef(ZERO_PRODUCT)


def product_eval(pdef, x, y):
    """Bilinear extension of the product to arbitrary Elements."""
    return Element(extend(pdef.terms, x.terms, y.terms))


INDEX_SCALING = "index-scaling"
FAMILY_SWAP = "family-swap"
SCALED_L_SHIFT = "scaled-l-shift"
UNIFORM_SHIFT = "uniform-shift"
M_NEGATION = "m-negation"


@dataclass(frozen=True)
class LinearOperator:
    kind: str
    k: int = 0

    def terms(self, sym):
        """Image of a basis symbol as a list of (int, symbol) terms."""
        kind = self.kind
        if kind == INDEX_SCALING:
            if sym.index == 0:
                return []
            return [(sym.index, sym)]
        if kind == FAMILY_SWAP:
            fam = "M" if sym.family == "L" else "L"
            return [(1, BasisSymbol(fam, check_index(-sym.index)))]
        if kind == SCALED_L_SHIFT:
            if sym.family != "L" or sym.index == 0:
                return []
            return [(sym.index, L(sym.index + self.k))]
        if kind == UNIFORM_SHIFT:
            return [(1, BasisSymbol(sym.family, check_index(sym.index + self.k)))]
        if kind == M_NEGATION:
            return [(1, M(-sym.index) if sym.family == "M" else sym)]
        raise ValueError(f"unknown operator kind {kind!r}")

    def apply(self, element):
        return Element(extend(self.terms, element.terms))


def index_scaling():
    """Multiplies every basis symbol by its own index (a product derivation)."""
    return LinearOperator(INDEX_SCALING)


def family_swap():
    """Swaps the L and M families while negating indices (an involution)."""
    return LinearOperator(FAMILY_SWAP)


def scaled_l_shift(k):
    """L_r -> r * L_{r+k}, annihilating the M family (a product derivation)."""
    return LinearOperator(SCALED_L_SHIFT, k=check_index(k))


def uniform_shift(k):
    """L_r -> L_{r+k} and M_r -> M_{r+k}."""
    return LinearOperator(UNIFORM_SHIFT, k=check_index(k))


def m_negation():
    """Fixes every L_r and sends each M_r to M_{-r} (an involution)."""
    return LinearOperator(M_NEGATION)


def relabel_m_negation(element):
    """Fix every L term and send each M_r term to M_{-r}."""
    return m_negation().apply(element)


class Kernels(NamedTuple):
    """The term functions of one evaluation by kernel name."""

    bracket: object = None
    product: object = None
    op: object = None
    source: object = None


def kernels(defs):
    """The Kernels of `defs`, a map from kernel names (bracket, product, op,
    source) to definitions: each definition's terms."""
    return Kernels(**{name: d.terms for name, d in defs.items()})
