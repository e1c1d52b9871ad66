"""Exact-arithmetic workbench for two ternary bracket algebras over the
Gaussian rationals: law checking on finite windows, exact classification
of one-third derivations, and construction and validation of compatible
commutative products."""

__version__ = "0.1.0"

from .scalars import Scalar
from .elements import BasisSymbol, Element, L, M, combine
from .checks import Window, window
from .algebras import (
    BracketDef,
    FiniteFunctional,
    LinearOperator,
    ProductDef,
    a_omega_delta,
    afk,
    algebra_a,
    bracket_eval,
    functional,
    omega_form,
    product_eval,
    relabel_m_negation,
    zero_product,
)

__all__ = [
    "BasisSymbol",
    "BracketDef",
    "Element",
    "FiniteFunctional",
    "L",
    "LinearOperator",
    "M",
    "ProductDef",
    "Scalar",
    "Window",
    "a_omega_delta",
    "afk",
    "algebra_a",
    "bracket_eval",
    "combine",
    "functional",
    "omega_form",
    "product_eval",
    "relabel_m_negation",
    "window",
    "zero_product",
]
