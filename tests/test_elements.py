import pytest

from translie.elements import Element, L, M, combine, extend
from translie.errors import IndexOverflowError
from translie.scalars import Scalar


def test_symbol_order_l_before_m_then_index():
    assert L(5) < M(-100)
    assert L(-2) < L(3)
    assert M(0) < M(1)
    assert sorted([M(1), L(2), M(-3), L(-2)]) == [L(-2), L(2), M(-3), M(1)]


def test_symbol_index_overflow():
    with pytest.raises(IndexOverflowError):
        L(2**63)
    with pytest.raises(IndexOverflowError):
        M(-(2**64))


def test_combine_cancellation():
    x = Element.basis(L(2))
    y = x.scale(Scalar(-1))
    assert combine(Scalar(1), x, Scalar(1), y).is_zero()


def test_combine_scaling_prunes_zero_factor():
    x = Element({L(1): Scalar(1), M(3): Scalar(1)})
    y = Element.basis(M(5))
    out = combine(Scalar(2), x, Scalar(0), y)
    assert out == Element({L(1): Scalar(2), M(3): Scalar(2)})
    assert M(5) not in out.terms


def test_combine_disjoint_supports():
    out = combine(Scalar(1), Element.basis(L(0)), Scalar(1), Element.basis(M(0)))
    assert out == Element({L(0): Scalar(1), M(0): Scalar(1)})


def test_no_zero_coefficients_stored():
    e = Element({L(1): Scalar(0), M(2): Scalar(3)})
    assert list(e.terms) == [M(2)]
    assert (e - e).terms == {}


def test_addition_and_negation():
    a = Element({L(0): Scalar(2), M(1): Scalar(-1)})
    b = Element({L(0): Scalar(-2), M(4): Scalar(5)})
    assert (a + b) == Element({M(1): Scalar(-1), M(4): Scalar(5)})
    assert (a + (-a)).is_zero()


def test_element_immutable():
    e = Element.basis(L(0))
    with pytest.raises(AttributeError):
        e.terms = {}


def _sum_kernel(*syms):
    """Basis-level kernel: the tuple goes to the L symbol at its index sum
    with coefficient 2, and to M_0 with coefficient -1 when it has an M."""
    out = [(2, L(sum(s.index for s in syms)))]
    if any(s.family == "M" for s in syms):
        out.append((-1, M(0)))
    return out


def test_extend_is_the_multilinear_sum():
    x = {L(1): 3, M(2): -1}
    y = {L(0): 2, L(-1): 5}
    expected = {}
    for sx, cx in x.items():
        for sy, cy in y.items():
            for coeff, sym in _sum_kernel(sx, sy):
                expected[sym] = expected.get(sym, 0) + cx * cy * coeff
    assert extend(_sum_kernel, x, y) == {s: c for s, c in expected.items() if c}
    # only the pairs with M_2 reach M_0: (-1) * (2 + 5) * (-1)
    assert extend(_sum_kernel, x, y)[M(0)] == 7


def test_extend_scalars_cancellation_and_empty_maps():
    def kernel(x, y, z):
        return [(Scalar(1), L(0))] if x.family == y.family == z.family == "L" else []

    half = Scalar.parse("1/2")
    x = {L(0): half, M(0): Scalar.parse("1+i")}
    assert extend(kernel, x, x, x) == {L(0): half * half * half}
    assert extend(kernel, {L(0): Scalar(1)}, {L(0): Scalar(2)}, {}) == {}

    def opposite(sym):
        return [(Scalar(1), L(0))] if sym.family == "L" else [(Scalar(-1), L(0))]

    assert extend(opposite, {L(3): Scalar(2), M(3): Scalar(2)}) == {}
