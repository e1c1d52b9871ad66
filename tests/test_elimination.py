"""Differential tests of exact elimination: the integer path, the Gaussian
path and sympy must agree on the nullspace of the same system and on its
coordinate projections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translie import linalg
from translie.linalg import (
    ConstraintSystem,
    LeadSpan,
    SolutionSpace,
    nullspace,
    project_solution,
    rank,
    unknown,
)
from translie.scalars import I, Scalar, gauss, ggcd, lift, unit

from spaces import assert_sparse_basis, dense, has_gaussian_form

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 6), st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
    min_size=1,
    max_size=7,
)
factors = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def systems(draw):
    """(n, rows): sparse integer rows plus duplicates and rescaled copies."""
    n = draw(st.integers(1, 7))
    rows = [{c % n: v for c, v in row.items()} for row in draw(sparse_rows)]
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), factors), max_size=6))
    rows += [{c: Scalar(v * q) for c, v in rows[i].items()} for i, q in copies]
    order = draw(st.permutations(range(len(rows))))
    return n, [rows[i] for i in order]


def _scalar(v):
    return v if isinstance(v, Scalar) else Scalar(v)


def _system(n, rows, scale=None):
    """Rows as given (int or Scalar values), or each multiplied by scale."""
    uids = [unknown("x", j) for j in range(n)]
    system = ConstraintSystem(uids)
    for row in rows:
        if scale is not None:
            row = {c: scale * _scalar(v) for c, v in row.items()}
        system.add_row({uids[c]: v for c, v in row.items()})
    return system


def _sympy_basis(n, rows):
    """sympy's nullspace basis, each vector divided by its first nonzero entry."""
    values = [[_scalar(row.get(j, 0)).re for j in range(n)] for row in rows]
    matrix = sympy.Matrix([[sympy.Rational(q.numerator, q.denominator) for q in vals] for vals in values])
    basis = []
    for vec in matrix.nullspace():
        first = next(v for v in vec if v != 0)
        basis.append([Fraction(str(v / first)) for v in vec])
    return basis


def _sympy_projection(vectors, cols):
    """The nonzero rows of sympy's RREF of the vectors restricted to cols."""
    if not vectors or not cols:
        return []
    matrix = sympy.Matrix([[sympy.Rational(str(vec[c])) for c in cols] for vec in vectors])
    reduced, pivots = matrix.rref()
    return [[Fraction(str(v)) for v in reduced.row(i)] for i in range(len(pivots))]


def _real(space):
    return [[v.re for v in dense(space, idx)] for idx in range(space.dimension)]


@given(systems(), st.lists(st.booleans(), min_size=7, max_size=7))
@settings(max_examples=150, deadline=None)
def test_integer_gaussian_and_sympy_nullspaces_agree(case, kept):
    n, rows = case
    real = nullspace(_system(n, rows))
    gaussian = nullspace(_system(n, rows, scale=I))
    assert gaussian.basis == real.basis
    assert _real(real) == _sympy_basis(n, rows)

    keep = [uid for uid, k in zip(real.unknowns, kept) if k]
    projected = project_solution(real, keep)
    turned = SolutionSpace(
        real.unknowns, [{c: I * lift(v) for c, v in vec.items()} for vec in real.basis]
    )
    assert project_solution(turned, keep).basis == projected.basis
    cols = [j for j in range(n) if kept[j]]
    assert _real(projected) == _sympy_projection(_real(real), cols)
    for space in (real, gaussian, projected):
        assert_sparse_basis(space)
    scalar_rows = [{c: _scalar(v) for c, v in row.items()} for row in rows]
    assert rank(scalar_rows) == rank([{c: I * v for c, v in row.items()} for row in scalar_rows])
    assert rank(scalar_rows) + real.dimension == n


@st.composite
def gaussian_systems(draw):
    """(n, rows): sparse Gaussian-integer rows, at least one with an
    imaginary part, plus copies scaled by Gaussian rationals as Scalars."""
    n = draw(st.integers(2, 6))
    values = st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, n - 1), values, min_size=1, max_size=3),
                 min_size=1, max_size=6)
    )
    first, second = draw(st.permutations(range(n)))[:2]
    rows.append({first: 1, second: gauss(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))})
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), factors, factors), max_size=4))
    rows += [{c: lift(v) * Scalar(p, q) for c, v in rows[i].items()} for i, p, q in copies]
    order = draw(st.permutations(range(len(rows))))
    return n, [rows[i] for i in order]


def _sympy_value(v):
    v = lift(v)
    return sympy.Rational(str(v.re)) + sympy.I * sympy.Rational(str(v.im))


def _sympy_gaussian_basis(n, rows):
    """sympy's nullspace basis over Q(i), each vector divided by its first
    nonzero entry, as Scalars."""
    matrix = sympy.Matrix([[_sympy_value(row.get(j, 0)) for j in range(n)] for row in rows])
    basis = []
    for vec in matrix.nullspace():
        vec = [sympy.expand_complex(v) for v in vec]
        first = next(v for v in vec if v != 0)
        parts = [sympy.expand_complex(v / first) for v in vec]
        basis.append([Scalar(Fraction(str(sympy.re(v))), Fraction(str(sympy.im(v)))) for v in parts])
    return basis


def _sympy_gaussian_projection(vectors, cols):
    """The nonzero rows of sympy's RREF over Q(i) of the Scalar vectors
    restricted to cols, as Scalars."""
    if not vectors or not cols:
        return []
    matrix = sympy.Matrix([[_sympy_value(vec[c]) for c in cols] for vec in vectors])
    reduced, pivots = DomainMatrix.from_Matrix(matrix).convert_to(sympy.QQ_I).rref()
    reduced = reduced.to_Matrix()
    return [
        [Scalar(Fraction(str(sympy.re(v))), Fraction(str(sympy.im(v)))) for v in reduced.row(i)]
        for i in range(len(pivots))
    ]


@given(gaussian_systems(), st.lists(st.booleans(), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_gaussian_integer_and_sympy_nullspaces_agree(case, kept):
    """A system with imaginary coefficients eliminates in Z[i]: its
    nullspace is sympy's over the Gaussian rationals, its rank the number
    of independent rows, and a coordinate projection of it sympy's RREF
    over the Gaussian rationals of the restricted vectors."""
    n, rows = case
    system = _system(n, rows)
    assert has_gaussian_form(system)
    space = nullspace(system)
    assert_sparse_basis(space)
    vectors = [dense(space, idx) for idx in range(space.dimension)]
    assert vectors == _sympy_gaussian_basis(n, rows)
    assert rank([{c: lift(v) for c, v in row.items()} for row in rows]) + space.dimension == n

    keep = [uid for uid, k in zip(space.unknowns, kept) if k]
    projected = project_solution(space, keep)
    assert_sparse_basis(projected)
    cols = [j for j in range(n) if kept[j]]
    assert [dense(projected, idx) for idx in range(projected.dimension)] == (
        _sympy_gaussian_projection(vectors, cols)
    )


@given(st.one_of(systems(), gaussian_systems()))
@settings(max_examples=150, deadline=None)
def test_pivots_are_primitive_and_span_rows_normal(case):
    """Clearing leaves a row's content in it, so elimination divides it out
    once per row: every RREF pivot is primitive over Z, or over Z[i] in a
    Gaussian system, with a canonical lead (a positive int, or re > 0 and
    im >= 0), and every row a LeadSpan keeps is in normal form."""
    n, rows = case
    system = _system(n, rows)
    for lead, row in linalg._rref(list(system.distinct)).items():
        assert lead == min(row)
        assert unit(row[lead]) == 1
        assert ggcd(*row.values()) == 1
        if not has_gaussian_form(system):
            assert all(type(v) is int for v in row.values())
    span = LeadSpan()
    for row in rows:
        span.insert(dict(row))
    for lead, row in span.rows.items():
        assert lead == min(row)
        assert tuple(sorted(row.items())) == linalg._normal_form(row)
    assert len(span.rows) == system.rank()
