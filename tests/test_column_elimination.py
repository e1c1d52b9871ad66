"""Differential tests of elimination against the incremental reduced row
echelon form: on sparse systems of int, Gaussian-integer and Scalar rows the
column elimination behind nullspace must give the basis the RREF gives,
vector by vector and in order, and LeadSpan.rref() its pivots."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from translie.linalg import ConstraintSystem, LeadSpan, _normal_form, nullspace, unknown
from translie.scalars import GaussInt, Scalar, gauss

from nullspace_reference import _rref, reference_basis

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
RINGS = {
    "int": st.integers(-4, 4).filter(bool),
    "gaussian": st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)).filter(bool),
    "scalar": st.builds(Scalar, fractions, fractions).filter(bool),
}
RINGS["mixed"] = st.one_of(*RINGS.values())
# a row's associates and rational multiples, which share its normal form
FACTORS = st.sampled_from([
    -1, 2, GaussInt(0, 1), GaussInt(1, 1), GaussInt(-2, 3),
    Scalar(Fraction(1, 2)), Scalar(Fraction(-2, 3), 1), Scalar(0, Fraction(1, 3)),
])


def _sparse_row(draw, value, columns, size=3):
    return {c: draw(value) for c in draw(st.sets(columns, min_size=1, max_size=size))}


def _combine(rows, factors):
    """The sum of factor * row, with the entries that cancel dropped."""
    total = {}
    for row, factor in zip(rows, factors):
        for c, v in row.items():
            total[c] = total.get(c, 0) + factor * v
    return {c: v for c, v in total.items() if v}


@st.composite
def shaped_systems(draw):
    """(n, rows) in one ring of values: a general sparse system, a full-rank
    one, one whose rows all depend on one or two drawn rows, or one with
    many free columns; plus duplicates and associates, in a drawn order."""
    shape = draw(st.sampled_from(["sparse", "full-rank", "dependent", "many-free"]))
    value = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(8, 14) if shape == "many-free" else st.integers(1, 7))
    columns = st.integers(0, n - 1)
    if shape == "full-rank":
        rows = [{j: draw(value), **{c: draw(value) for c in draw(st.sets(columns, max_size=2))
                                    if c > j}} for j in range(n)]
    elif shape == "dependent":
        base = [_sparse_row(draw, value, columns) for _ in range(draw(st.integers(1, 2)))]
        rows = [_combine(base, draw(st.lists(value, min_size=2, max_size=2)))
                for _ in range(draw(st.integers(1, 6)))]
        rows = [row for row in rows if row] or base
    else:
        count = st.integers(1, 2) if shape == "many-free" else st.integers(1, 8)
        rows = [_sparse_row(draw, value, columns) for _ in range(draw(count))]
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), FACTORS), max_size=5))
    rows += [{c: factor * v for c, v in rows[i].items()} for i, factor in copies]
    return n, [rows[i] for i in draw(st.permutations(range(len(rows))))]


@given(shaped_systems())
@settings(max_examples=300, deadline=None)
def test_column_elimination_gives_the_rref_basis_in_order(case):
    n, rows = case
    system = ConstraintSystem([unknown("x", j) for j in range(n)])
    for row in rows:
        system.add_columns(dict(row))
    space = nullspace(system)
    assert space.basis == reference_basis(system)
    assert system.rank() + space.dimension == n


@given(shaped_systems(), st.sets(st.integers(0, 13)))
@settings(max_examples=300, deadline=None)
def test_lead_span_rref_gives_the_reference_pivots(case, dropped):
    """On the rows restricted to the columns not dropped, as a projection
    restricts its vectors (rows left empty included), LeadSpan(rows).rref()
    is the reference RREF of the rows' normal forms and
    ConstraintSystem.rank() is its number of pivots."""
    n, rows = case
    rows = [{c: v for c, v in row.items() if c not in dropped} for row in rows]
    pivots = _rref([_normal_form(row) for row in rows if row])
    assert LeadSpan(dict(row) for row in rows).rref() == pivots
    system = ConstraintSystem([unknown("x", j) for j in range(n)])
    for row in rows:
        system.add_columns(dict(row))
    assert system.rank() == len(pivots)
