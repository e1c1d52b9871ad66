"""Differential test of the law driver's integer kernels.

Every checker runs through one driver that evaluates a law on integer
forms of the definitions when they all have one, and on their Scalar
terms otherwise.  Wrapping each definition in a proxy that exposes only
`.terms` forces the Scalar path, so the two full CheckReports (inputs,
lhs, rhs and residual of every violation) must be equal.  The kernel-set
builder itself, algebras.kernels, is checked against each definition's
terms() directly.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translie.algebras import (
    Kernels,
    a_omega_delta,
    afk,
    algebra_a,
    family_swap,
    functional,
    index_scaling,
    kernels,
    m_negation,
    omega_form,
    scaled_l_shift,
    uniform_shift,
    zero_product,
)
from translie.checks import (
    COMMUTATIVE_ASSOCIATIVE,
    FUNDAMENTAL_IDENTITY,
    INVOLUTIVE_MORPHISM,
    ONE_THIRD_DERIVATION,
    POISSON_LEIBNIZ,
    PRODUCT_DERIVATION,
    RELABEL_INTERTWINING,
    SKEW_SYMMETRY,
    TRANSPOSED_LEIBNIZ,
    run_law,
    window,
    window_symbols,
)
from translie.scalars import GaussInt, Scalar, from_int, lift
from translie.tp import build_example_family, tp_product

from families import ScalarMultiple


class ScalarOnly:
    """A definition seen only through its Scalar terms()."""

    def __init__(self, definition):
        self.terms = definition.terms


# each spec with the kernel names its law functions read
SPECS = {
    "skew-symmetry": (SKEW_SYMMETRY, ("bracket",)),
    "fundamental-identity": (FUNDAMENTAL_IDENTITY, ("bracket",)),
    "one-third-derivation": (ONE_THIRD_DERIVATION, ("bracket", "op")),
    "product-derivation-rule": (PRODUCT_DERIVATION, ("product", "op")),
    "involutive-morphism": (INVOLUTIVE_MORPHISM, ("product", "op")),
    "relabel-intertwining": (RELABEL_INTERTWINING, ("source", "bracket", "op")),
    "transposed-leibniz": (TRANSPOSED_LEIBNIZ, ("bracket", "product")),
    "poisson-leibniz": (POISSON_LEIBNIZ, ("bracket", "product")),
    "commutative-associative": (COMMUTATIVE_ASSOCIATIVE, ("product",)),
}


def assert_paths_agree(spec, defs, w, **kwargs):
    """Run the law on the definitions and on Scalar-only proxies; returns
    the report after asserting the two are equal field by field."""
    report = run_law(spec, defs, w, **kwargs)
    proxies = {name: ScalarOnly(d) for name, d in defs.items()}
    assert report == run_law(spec, proxies, w, **kwargs)
    return report


RATIONAL_F = functional({0: Fraction(1, 2), 1: Fraction(-2, 3)})
INT_F = functional({0: 2, 1: -3})
GAUSSIAN_F = functional({0: Scalar(1, 1)})
GAUSSIAN_RATIONAL_F = functional({0: Scalar(Fraction(1, 2), 1), 1: Fraction(-2, 3)})
INT_FAMILY = tp_product(build_example_family(functional({0: 1}), {0: 5}, {1: 1}, 2))
GAUSSIAN_FAMILY = tp_product(build_example_family(GAUSSIAN_F, {0: 2}, {1: 1}, 1))


@pytest.mark.parametrize(
    "law, defs, w, integral, violated",
    [
        ("one-third-derivation", {"bracket": a_omega_delta(), "op": index_scaling()},
         window(-1, 1), True, True),
        ("one-third-derivation", {"bracket": a_omega_delta(), "op": uniform_shift(2)},
         window(-1, 1), True, False),
        ("one-third-derivation", {"bracket": afk(1, RATIONAL_F), "op": index_scaling()},
         window(-1, 1), False, True),
        ("transposed-leibniz", {"bracket": a_omega_delta(), "product": algebra_a()},
         window(-1, 0), True, True),
        ("poisson-leibniz", {"bracket": a_omega_delta(), "product": algebra_a()},
         window(-1, 0), True, True),
        ("transposed-leibniz", {"bracket": afk(2, functional({0: 1})), "product": INT_FAMILY},
         window(-1, 1), True, False),
        ("poisson-leibniz", {"bracket": afk(2, functional({0: 1})), "product": INT_FAMILY},
         window(-1, 1), True, True),
        ("fundamental-identity", {"bracket": afk(-1, RATIONAL_F)}, window(-1, 0), False, False),
        # f = 1+i has its form in Z[i]
        ("fundamental-identity", {"bracket": afk(0, GAUSSIAN_F)}, window(-1, 0), True, False),
        ("transposed-leibniz", {"bracket": afk(1, GAUSSIAN_F), "product": GAUSSIAN_FAMILY},
         window(-1, 1), True, False),
        ("poisson-leibniz", {"bracket": afk(1, GAUSSIAN_F), "product": GAUSSIAN_FAMILY},
         window(-1, 1), True, True),
        ("fundamental-identity", {"bracket": afk(0, GAUSSIAN_RATIONAL_F)}, window(-1, 0),
         False, False),
        ("one-third-derivation", {"bracket": afk(1, GAUSSIAN_RATIONAL_F), "op": index_scaling()},
         window(-1, 1), False, True),
        ("involutive-morphism", {"product": algebra_a(), "op": index_scaling()},
         window(-2, 2), True, True),
        ("relabel-intertwining",
         {"source": omega_form(), "bracket": a_omega_delta(), "op": m_negation()},
         window(-2, 2), True, False),
        ("relabel-intertwining",
         {"source": a_omega_delta(), "bracket": a_omega_delta(), "op": m_negation()},
         window(-1, 1), True, True),
        # a-f-k on its integer form: an integer two-point f
        ("one-third-derivation", {"bracket": afk(1, INT_F), "op": index_scaling()},
         window(-1, 1), True, True),
        ("fundamental-identity", {"bracket": afk(-1, INT_F)}, window(-1, 0), True, False),
        ("transposed-leibniz", {"bracket": afk(1, INT_F), "product": algebra_a()},
         window(-1, 0), True, True),
    ],
)
def test_integer_path_matches_scalar_path(law, defs, w, integral, violated):
    assert all(d.integral for d in defs.values()) == integral
    report = assert_paths_agree(SPECS[law][0], defs, w)
    assert report.passed != violated


def _functionals(values):
    return st.dictionaries(st.integers(-2, 2), values, min_size=1, max_size=2).map(
        functional
    ).filter(lambda f: not f.is_zero())


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gaussians = st.builds(Scalar, _rationals, _rationals)
_gaussian_ints = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))

BRACKETS = st.one_of(
    st.just(a_omega_delta()),
    st.just(omega_form()),
    st.builds(afk, st.integers(-2, 2), _functionals(st.integers(-3, 3))),
    st.builds(afk, st.integers(-2, 2), _functionals(_rationals)),
    st.builds(afk, st.integers(-2, 2), _functionals(_gaussians)),
    st.builds(afk, st.integers(-2, 2), _functionals(_gaussian_ints)),
)


def _family(f, d, c, k):
    return tp_product(build_example_family(f, d, c, k))


PRODUCTS = st.one_of(
    st.just(algebra_a()),
    st.just(zero_product()),
    st.builds(
        _family,
        st.one_of(
            _functionals(st.integers(-3, 3)), _functionals(_gaussians), _functionals(_gaussian_ints)
        ),
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2),
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=1),
        st.integers(-2, 2),
    ),
)

OPERATORS = st.one_of(
    st.just(index_scaling()),
    st.just(family_swap()),
    st.just(m_negation()),
    st.builds(scaled_l_shift, st.integers(-2, 2)),
    st.builds(uniform_shift, st.integers(-2, 2)),
    st.builds(ScalarMultiple, st.integers(-3, 3)),
)

KERNELS = {"bracket": BRACKETS, "source": BRACKETS, "product": PRODUCTS, "op": OPERATORS}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), law=st.sampled_from(sorted(SPECS)))
def test_random_definitions_agree_on_both_paths(data, law):
    spec, names = SPECS[law]
    defs = {name: data.draw(KERNELS[name], label=name) for name in names}
    lo = data.draw(st.integers(-2, 1), label="lo")
    arity = max(laws[0].arity for laws in spec.parts)
    w = window(lo, lo + (1 if arity >= 4 else 2))
    if data.draw(st.booleans(), label="randomized"):
        kwargs = dict(
            samples=data.draw(st.integers(1, 150), label="samples"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
    else:
        kwargs = {}
    assert_paths_agree(spec, defs, w, **kwargs)


# ---------------------------------------------------------------------------
# the kernel-set builder

# each kernel name the builder is tested on, with the definitions drawn for
# it (1+i and 1/2+i f among the brackets; a duck-typed operator without
# `integral` among the operators) and its arity
BUILDER_KERNELS = {
    "bracket": (
        st.one_of(BRACKETS, st.just(afk(1, GAUSSIAN_F)), st.just(afk(1, GAUSSIAN_RATIONAL_F))), 3
    ),
    "product": (PRODUCTS, 2),
    "op": (OPERATORS, 1),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_are_gaussian_integers_exactly_when_every_definition_is_integral(data):
    """kernels gives int_terms with num=int, in Z[i], when every definition
    is integral (one without `integral` is not), else terms with
    num=from_int; either way each kernel's values are terms()'s values, and
    a kernel no definition gives is None."""
    names = data.draw(st.sets(st.sampled_from(sorted(BUILDER_KERNELS)), min_size=1), label="names")
    defs = {name: data.draw(BUILDER_KERNELS[name][0], label=name) for name in sorted(names)}
    ints = all(getattr(d, "integral", False) for d in defs.values())
    k = kernels(defs)
    assert type(k) is Kernels and k.num is (int if ints else from_int)
    assert all(getattr(k, name) is None for name in ("bracket", "product", "op", "source")
               if name not in defs)
    symbols = window_symbols(window(-1, 1))
    for name, d in defs.items():
        kernel = getattr(k, name)
        for args in itertools.product(symbols, repeat=BUILDER_KERNELS[name][1]):
            got = kernel(*args)
            assert all(type(c) in ((int, GaussInt) if ints else (Scalar,)) for c, _ in got)
            assert [(lift(c), sym) for c, sym in got] == d.terms(*args)

