import itertools
from functools import partial
from fractions import Fraction

import pytest

from translie.algebras import (
    a_omega_delta,
    afk,
    algebra_a,
    bracket_eval,
    family_swap,
    functional,
    index_scaling,
    omega_form,
    product_eval,
    relabel_m_negation,
    scaled_l_shift,
    uniform_shift,
)
from translie.checks import window, window_symbols
from translie.elements import MAX_INDEX, BasisSymbol, Element, L, M
from translie.errors import IndexOverflowError
from translie.scalars import GaussInt, Scalar, lift

from families import ScalarMultiple, TableOperator, scalar_value
from kernel_reference import _bracket_terms as reference_kernel
from kernel_reference import _sort3


def B(sym):
    return Element.basis(sym)


def ev(bdef, x, y, z):
    return bracket_eval(bdef, B(x), B(y), B(z))


# ---------------------------------------------------------------------------
# bracket tables


def test_shifted_bracket_llm():
    assert ev(a_omega_delta(), L(2), L(5), M(1)) == Element({L(8): Scalar(3)})


def test_shifted_bracket_repeated_argument():
    assert ev(a_omega_delta(), L(1), L(1), M(3)).is_zero()


def test_shifted_bracket_canonical_sorting_sign():
    # even permutation of (L_1, L_4, M_2)
    assert ev(a_omega_delta(), M(2), L(1), L(4)) == Element({L(7): Scalar(3)})


def test_shifted_bracket_lmm():
    assert ev(a_omega_delta(), L(3), M(1), M(4)) == Element({M(8): Scalar(-3)})


def test_functional_bracket_llm():
    bdef = afk(2, functional({0: 1}))
    assert ev(bdef, L(1), L(3), M(0)) == Element({L(6): Scalar(-2)})
    assert ev(bdef, L(1), L(3), M(5)).is_zero()
    assert ev(bdef, L(4), M(1), M(2)).is_zero()


def test_functional_bracket_requires_nonzero_functional():
    with pytest.raises(ValueError):
        afk(0, functional({}))


def test_unshifted_form_bracket():
    bdef = omega_form()
    assert ev(bdef, L(2), L(5), M(1)) == Element({L(6): Scalar(3)})
    assert ev(bdef, L(3), M(1), M(4)) == Element({M(2): Scalar(3)})


# The bracket written out twice, once in Scalars and once on the narrowed
# values of f, each with its own dispatch: the oracles for the one table
# behind terms().


def reference_terms(bdef, x, y, z):
    if x == y or y == z or x == z:
        return []
    a, b, c, sign = _sort3(x, y, z)
    fa, fb, fc = a.family, b.family, c.family
    kind = bdef.kind
    if kind == "a-omega-delta":
        if fa == "L" and fb == "L" and fc == "M":
            return [(Scalar(sign * (b.index - a.index)), L(a.index + b.index + c.index))]
        if fa == "L" and fb == "M":
            return [(Scalar(sign * (b.index - c.index)), M(a.index + b.index + c.index))]
        return []
    if kind == "a-omega-delta-omega-form":
        if fa == "L" and fb == "L" and fc == "M":
            return [(Scalar(sign * (b.index - a.index)), L(a.index + b.index - c.index))]
        if fa == "L" and fb == "M":
            return [(Scalar(sign * (c.index - b.index)), M(b.index + c.index - a.index))]
        return []
    if fa == "L" and fb == "L" and fc == "M":
        fv = scalar_value(bdef.f, c.index)
        if not fv:
            return []
        return [(fv.scale_int(sign * (a.index - b.index)), L(a.index + b.index + bdef.k))]
    return []


def reference_narrowed_terms(bdef, x, y, z):
    if x == y or y == z or x == z:
        return []
    a, b, c, sign = _sort3(x, y, z)
    if a.family != "L" or c.family != "M":
        return []
    r, s, t = a.index, b.index, c.index
    if bdef.kind == "a-omega-delta":
        if b.family == "L":
            return [(sign * (s - r), L(r + s + t))]
        return [(sign * (s - t), M(r + s + t))]
    if bdef.kind == "a-omega-delta-omega-form":
        if b.family == "L":
            return [(sign * (s - r), L(r + s - t))]
        return [(sign * (t - s), M(s + t - r))]
    fv = bdef.f.by_index.get(t) if b.family == "L" else None
    return [(fv * sign * (r - s), L(r + s + bdef.k))] if fv else []


def typed(terms):
    return [(type(c), c, sym) for c, sym in terms]


@pytest.mark.parametrize(
    "bdef",
    [a_omega_delta(), omega_form()]
    + [
        afk(k, functional(f))
        for k in (-2, 0, 3)
        for f in (
            {0: 1},
            {0: 2, 1: -3, 3: 5},
            {0: "1/2", 1: "-2/3", -3: 5},
            {0: Scalar(1, 1), 1: 2},
            {0: "1/2", 1: 2},
        )
    ],
    ids=["a-omega-delta", "omega-form"]
    + [
        f"a-f-k-{k}-{f}"
        for k in (-2, 0, 3)
        for f in ("one", "int", "fractional", "gaussian", "mixed")
    ],
)
def test_bracket_table_matches_the_hand_written_tables(bdef):
    """terms() gives the lists, coefficient types included, of the table on
    the narrowed values of f, and the values of the Scalar table, on every
    ordered triple of [-4,4]."""
    symbols = window_symbols(window(-4, 4))
    for x, y, z in itertools.product(symbols, repeat=3):
        terms = bdef.terms(x, y, z)
        assert typed(terms) == typed(reference_narrowed_terms(bdef, x, y, z))
        assert [(lift(c), sym) for c, sym in terms] == reference_terms(bdef, x, y, z)


KERNEL_BRACKETS = {
    "a-omega-delta": a_omega_delta(),
    "omega-form": omega_form(),
    "a-f-k-real": afk(1, functional({0: "-3/2"})),
    "a-f-k-two-point": afk(-2, functional({0: 1, 2: "2/3"})),
    "a-f-k-int-two-point": afk(-2, functional({0: 1, 2: -3})),
    "a-f-k-gaussian": afk(0, functional({1: Scalar(1, 1)})),
}


def _kernel_outcomes(kernel, x, y, z):
    """Each kernel's terms of one triple, typed, as a list, or the tuple
    ("IndexOverflowError", message) when it raises that error."""
    out = []
    for fn in kernel:
        try:
            out.append(typed(fn(x, y, z)))
        except IndexOverflowError as exc:
            out.append(("IndexOverflowError", str(exc)))
    return out


def _kernels(bdef):
    """(kernel, reference): terms() and the table that sorts through _sort3."""
    f = bdef.f
    return bdef.terms, partial(reference_kernel, bdef.kind, bdef.k, f and f.by_index)


@pytest.mark.parametrize("name", sorted(KERNEL_BRACKETS))
def test_bracket_kernel_matches_its_previous_form(name):
    """The inlined sort gives the term lists, in order and with their
    coefficient types, of the kernel that sorted through _sort3, on every
    ordered triple of [-4,4]; near +-MAX_INDEX it raises IndexOverflowError
    on exactly the triples where that kernel raised it."""
    bdef = KERNEL_BRACKETS[name]
    edge = [-MAX_INDEX, 1 - MAX_INDEX, -1, 0, 1, MAX_INDEX - 1, MAX_INDEX]
    edge_symbols = [BasisSymbol(fam, i) for fam in "LM" for i in edge]
    raised = 0
    for symbols in (window_symbols(window(-4, 4)), edge_symbols):
        for x, y, z in itertools.product(symbols, repeat=3):
            new, old = _kernel_outcomes(_kernels(bdef), x, y, z)
            assert new == old, (x, y, z)
            raised += isinstance(new, tuple)
    assert raised > 0
    shifted = afk(MAX_INDEX, functional({0: 1}))
    assert _kernel_outcomes(_kernels(shifted), L(0), L(1), M(0)) == [
        ("IndexOverflowError", f"basis index {MAX_INDEX + 1} out of range")
    ] * 2


def test_functional_values_are_narrowed_once():
    """f's values are kept as Gaussian integers where both parts are
    integers, f = 1+i included, and as Scalars elsewhere, so one bracket
    gives both; values holds the same narrowed values, and each lifts to
    its Scalar."""
    bdef = afk(0, functional({0: Scalar(1, 1), 1: 2, 2: "1/2"}))
    assert bdef.f.by_index == {0: GaussInt(1, 1), 1: 2, 2: Scalar(Fraction(1, 2))}
    assert [type(v) for v in bdef.f.by_index.values()] == [GaussInt, int, Scalar]
    assert typed(bdef.terms(L(1), L(2), M(0))) == [(GaussInt, GaussInt(-1, -1), L(3))]
    assert typed(bdef.terms(L(1), L(2), M(1))) == [(int, -2, L(3))]
    assert typed(bdef.terms(L(1), L(2), M(2))) == [(Scalar, Scalar(Fraction(-1, 2)), L(3))]
    assert bdef.f.values == tuple(bdef.f.by_index.items())
    assert [type(lift(v)) for _, v in bdef.f.values] == [Scalar] * 3
    assert lift(bdef.f.by_index[0]) == Scalar(1, 1) and bdef.f.by_index.get(3, 0) == 0


def test_bracket_trilinear_on_elements():
    bdef = a_omega_delta()
    x = Element({L(0): Scalar(2), L(1): Scalar(1)})
    y = B(L(2))
    z = B(M(0))
    # 2[L_0,L_2,M_0] + [L_1,L_2,M_0] = 2*2*L_2 + 1*L_3
    assert bracket_eval(bdef, x, y, z) == Element({L(2): Scalar(4), L(3): Scalar(1)})


def test_bracket_antisymmetry_on_random_elements():
    import random

    rng = random.Random(99)
    bdef = a_omega_delta()
    for _ in range(50):
        elems = []
        for _ in range(3):
            x = Element()
            for _ in range(rng.randint(1, 3)):
                sym = (L if rng.random() < 0.5 else M)(rng.randint(-6, 6))
                x = x + Element({sym: Scalar(rng.randint(-3, 3))})
            elems.append(x)
        x, y, z = elems
        assert bracket_eval(bdef, x, y, z) == -bracket_eval(bdef, y, x, z)
        assert bracket_eval(bdef, x, y, z) == -bracket_eval(bdef, x, z, y)


# ---------------------------------------------------------------------------
# base product


def test_base_product_table():
    prod = algebra_a()
    assert product_eval(prod, B(L(2)), B(L(3))) == B(L(5))
    assert product_eval(prod, B(L(1)), B(M(4))).is_zero()
    assert product_eval(prod, B(M(-1)), B(M(1))) == B(M(0))


def test_base_product_commutative_associative_window():
    prod = algebra_a()
    syms = window_symbols(window(-3, 3))
    for x, y in itertools.product(syms, repeat=2):
        assert product_eval(prod, B(x), B(y)) == product_eval(prod, B(y), B(x))
    for x, y, z in itertools.product(syms[::2], repeat=3):
        left = product_eval(prod, product_eval(prod, B(x), B(y)), B(z))
        right = product_eval(prod, B(x), product_eval(prod, B(y), B(z)))
        assert left == right


# ---------------------------------------------------------------------------
# operators


def test_index_scaling():
    op = index_scaling()
    assert op.apply(B(L(3))) == Element({L(3): Scalar(3)})
    assert op.apply(B(L(0))).is_zero()
    assert op.apply(B(M(-2))) == Element({M(-2): Scalar(-2)})


def test_family_swap():
    op = family_swap()
    assert op.apply(B(L(2))) == B(M(-2))
    assert op.apply(B(M(-5))) == B(L(5))
    e = Element({L(1): Scalar(2), M(3): Scalar(1)})
    assert op.apply(op.apply(e)) == e


def test_scaled_l_shift():
    op = scaled_l_shift(3)
    assert op.apply(B(L(2))) == Element({L(5): Scalar(2)})
    assert op.apply(B(M(7))).is_zero()


def test_uniform_shift():
    op = uniform_shift(2)
    assert op.apply(B(L(3))) == B(L(5))
    assert op.apply(B(M(-1))) == B(M(1))


def test_scalar_multiple():
    op = ScalarMultiple(5)
    e = Element({L(1): Scalar(2), M(0): Scalar(-1)})
    assert op.apply(e) == e.scale(Scalar(5))


def test_custom_operator_domain_error():
    op = TableOperator({L(0): B(L(1))})
    assert op.apply(B(L(0))) == B(L(1))
    with pytest.raises(KeyError, match="operator not defined at L_2"):
        op.apply(B(L(2)))


# ---------------------------------------------------------------------------
# relabeling and functionals


def test_relabel_m_negation():
    assert relabel_m_negation(B(M(3))) == B(M(-3))
    assert relabel_m_negation(B(L(5))) == B(L(5))
    e = Element({L(1): Scalar(2), M(-2): Scalar(3)})
    assert relabel_m_negation(e) == Element({L(1): Scalar(2), M(2): Scalar(3)})


def test_functional_eval():
    g = functional({0: 1, 2: 3})
    assert g.by_index[0] == Scalar(1)
    assert g.by_index[2] == Scalar(3)
    assert not g.by_index.get(1, 0)
    assert g.support == [0, 2]


def test_functional_prunes_zero_values():
    f = functional({0: 1, 5: 0})
    assert f.support == [0]
    assert functional({}).is_zero()
