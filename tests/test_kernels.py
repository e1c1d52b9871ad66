"""Differential test of the law driver's narrowed kernels.

Every checker runs through one driver that evaluates a law on the
definitions' terms, whose coefficients are ints and GaussInts wherever the
constants are Gaussian integers and Scalars where a rational one enters.
Wrapping each definition in a proxy that lifts every coefficient to a
Scalar gives the all-Scalar evaluation, so the two full CheckReports
(inputs, lhs, rhs and residual of every violation) must be equal.  The
coefficient types themselves are checked against the constants each term
is built from.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translie.algebras import (
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
from translie.scalars import GaussInt, Scalar, lift
from translie.tp import build_example_family, tp_product

from families import ScalarMultiple


class ScalarOnly:
    """A definition whose terms have every coefficient lifted to a Scalar."""

    def __init__(self, definition):
        self.definition = definition

    def terms(self, *symbols):
        return [(lift(c), sym) for c, sym in self.definition.terms(*symbols)]


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
    """Run the law on the definitions and on ScalarOnly proxies; returns
    the report after asserting the two are equal field by field."""
    report = run_law(spec, defs, w, **kwargs)
    proxies = {name: ScalarOnly(d) for name, d in defs.items()}
    assert report == run_law(spec, proxies, w, **kwargs)
    return report


RATIONAL_F = functional({0: Fraction(1, 2), 1: Fraction(-2, 3)})
INT_F = functional({0: 2, 1: -3})
GAUSSIAN_F = functional({0: Scalar(1, 1)})
GAUSSIAN_RATIONAL_F = functional({0: Scalar(Fraction(1, 2), 1), 1: Fraction(-2, 3)})
# one value in Z[i] and one not: one kernel gives ints and Scalars
MIXED_F = functional({0: Fraction(1, 2), 1: 2})
MIXED_GAUSSIAN_F = functional({0: Scalar(1, 1), 1: Fraction(1, 3)})
INT_FAMILY = tp_product(build_example_family(functional({0: 1}), {0: 5}, {1: 1}, 2))
GAUSSIAN_FAMILY = tp_product(build_example_family(GAUSSIAN_F, {0: 2}, {1: 1}, 1))
MIXED_FAMILY = tp_product(build_example_family(MIXED_F, {0: 2, 1: 1}, {1: 1}, 1))


@pytest.mark.parametrize(
    "law, defs, w, violated",
    [
        ("one-third-derivation", {"bracket": a_omega_delta(), "op": index_scaling()},
         window(-1, 1), True),
        ("one-third-derivation", {"bracket": a_omega_delta(), "op": uniform_shift(2)},
         window(-1, 1), False),
        ("one-third-derivation", {"bracket": afk(1, RATIONAL_F), "op": index_scaling()},
         window(-1, 1), True),
        ("transposed-leibniz", {"bracket": a_omega_delta(), "product": algebra_a()},
         window(-1, 0), True),
        ("poisson-leibniz", {"bracket": a_omega_delta(), "product": algebra_a()},
         window(-1, 0), True),
        ("transposed-leibniz", {"bracket": afk(2, functional({0: 1})), "product": INT_FAMILY},
         window(-1, 1), False),
        ("poisson-leibniz", {"bracket": afk(2, functional({0: 1})), "product": INT_FAMILY},
         window(-1, 1), True),
        ("fundamental-identity", {"bracket": afk(-1, RATIONAL_F)}, window(-1, 0), False),
        # f = 1+i: every coefficient in Z[i]
        ("fundamental-identity", {"bracket": afk(0, GAUSSIAN_F)}, window(-1, 0), False),
        ("transposed-leibniz", {"bracket": afk(1, GAUSSIAN_F), "product": GAUSSIAN_FAMILY},
         window(-1, 1), False),
        ("poisson-leibniz", {"bracket": afk(1, GAUSSIAN_F), "product": GAUSSIAN_FAMILY},
         window(-1, 1), True),
        ("fundamental-identity", {"bracket": afk(0, GAUSSIAN_RATIONAL_F)}, window(-1, 0), False),
        ("one-third-derivation", {"bracket": afk(1, GAUSSIAN_RATIONAL_F), "op": index_scaling()},
         window(-1, 1), True),
        ("involutive-morphism", {"product": algebra_a(), "op": index_scaling()},
         window(-2, 2), True),
        ("relabel-intertwining",
         {"source": omega_form(), "bracket": a_omega_delta(), "op": m_negation()},
         window(-2, 2), False),
        ("relabel-intertwining",
         {"source": a_omega_delta(), "bracket": a_omega_delta(), "op": m_negation()},
         window(-1, 1), True),
        # a-f-k on an integer two-point f
        ("one-third-derivation", {"bracket": afk(1, INT_F), "op": index_scaling()},
         window(-1, 1), True),
        ("fundamental-identity", {"bracket": afk(-1, INT_F)}, window(-1, 0), False),
        ("transposed-leibniz", {"bracket": afk(1, INT_F), "product": algebra_a()},
         window(-1, 0), True),
        # mixed f: ints and Scalars from one kernel, and from one product
        ("fundamental-identity", {"bracket": afk(1, MIXED_F)}, window(-1, 0), False),
        ("one-third-derivation", {"bracket": afk(1, MIXED_F), "op": index_scaling()},
         window(-1, 1), True),
        ("one-third-derivation", {"bracket": afk(0, MIXED_GAUSSIAN_F), "op": uniform_shift(1)},
         window(-1, 1), True),
        ("transposed-leibniz", {"bracket": afk(1, MIXED_F), "product": MIXED_FAMILY},
         window(-1, 1), False),
        ("poisson-leibniz", {"bracket": afk(1, MIXED_F), "product": MIXED_FAMILY},
         window(-1, 1), True),
        ("commutative-associative", {"product": MIXED_FAMILY}, window(-1, 2), False),
    ],
)
def test_narrowed_path_matches_scalar_path(law, defs, w, violated):
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
    st.builds(afk, st.integers(-2, 2), _functionals(st.one_of(_rationals, _gaussian_ints))),
)


def _family(f, d, c, k):
    return tp_product(build_example_family(f, d, c, k))


PRODUCTS = st.one_of(
    st.just(algebra_a()),
    st.just(zero_product()),
    st.builds(
        _family,
        st.one_of(
            _functionals(st.integers(-3, 3)),
            _functionals(_gaussians),
            _functionals(_gaussian_ints),
            _functionals(st.one_of(_rationals, _gaussian_ints)),
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
# coefficient types


def _in_ring(v):
    return type(v) in (int, GaussInt)


def _gaussian_integer(v):
    """True when a given constant has integer real and imaginary parts."""
    v = lift(v)
    return v.re.denominator == 1 and v.im.denominator == 1


def _constants_read(d, args):
    """The constants each term of d.terms(*args) is built from, as a list
    per term: f(M_t) for an a-f-k bracket; alpha f(M_j), f(M_i) f(M_j) c_p
    and d_{i,j,q} for a product family; none for every other definition,
    whose structure constants are made from indices."""
    terms = d.terms(*args)
    if getattr(d, "kind", None) == "a-f-k":
        t = max(args).index
        return [[d.f.by_index.get(t, 0)] for _ in terms]
    params = getattr(d, "params", None)
    if params is None:
        return [[] for _ in terms]
    x, y = args
    f = params.f.by_index.__getitem__
    if x.family == y.family == "M":
        return [
            [f(x.index), f(y.index), params.c[sym.index]] if sym.family == "L"
            else [params.d[x.index, y.index, sym.index]]
            for _, sym in terms
        ]
    m = x if x.family == "M" else y
    return [[params.alpha, f(m.index)] for _ in terms]


# the definitions drawn, by arity, 1+i, 1/2+i and mixed f among the
# brackets and products
TYPED_DEFINITIONS = {
    3: st.one_of(
        BRACKETS,
        st.sampled_from([afk(1, f) for f in (GAUSSIAN_F, GAUSSIAN_RATIONAL_F, MIXED_F,
                                              MIXED_GAUSSIAN_F)]),
    ),
    2: st.one_of(PRODUCTS, st.just(MIXED_FAMILY)),
    1: st.one_of(
        st.sampled_from([index_scaling(), family_swap(), m_negation()]),
        st.builds(scaled_l_shift, st.integers(-2, 2)),
        st.builds(uniform_shift, st.integers(-2, 2)),
    ),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), arity=st.sampled_from(sorted(TYPED_DEFINITIONS)))
def test_coefficients_are_gaussian_integers_exactly_where_the_constants_are(data, arity):
    """Each term's coefficient is an int or a GaussInt exactly when every
    constant it is built from is a Gaussian integer as given, and a Scalar
    otherwise, so one definition with a mixed f gives both; algebras.kernels
    hands each definition's terms to a law as they are."""
    d = data.draw(TYPED_DEFINITIONS[arity], label="definition")
    k = kernels({"bracket" if arity == 3 else "product" if arity == 2 else "op": d})
    assert [fn for fn in k if fn is not None] == [d.terms]
    for args in itertools.product(window_symbols(window(-2, 2)), repeat=arity):
        terms = d.terms(*args)
        expected = [all(map(_gaussian_integer, constants)) for constants in _constants_read(d, args)]
        assert [_in_ring(c) for c, _ in terms] == expected, args
