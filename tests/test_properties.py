"""Property-based invariants for the exact core and the bracket extension."""

from hypothesis import given, settings
from hypothesis import strategies as st

from translie.algebras import a_omega_delta, bracket_eval
from translie.elements import Element, L, M, combine
from translie.linalg import ConstraintSystem, SolutionSpace, nullspace, rank, unknown
from translie.scalars import ONE, Scalar

from spaces import residuals_oracle

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(Scalar, fractions, fractions)
nonzero_scalars = scalars.filter(bool)

symbols = st.builds(
    lambda fam, idx: (L if fam else M)(idx),
    st.booleans(),
    st.integers(min_value=-8, max_value=8),
)
elements = st.dictionaries(symbols, scalars, max_size=4).map(Element)


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_scalar_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@given(scalars, elements, scalars, elements)
def test_combine_is_bilinear(a, x, b, y):
    assert combine(a, x, b, y) == x.scale(a) + y.scale(b)
    for sym in combine(a, x, b, y).terms:
        assert combine(a, x, b, y).terms[sym]


@given(elements)
def test_element_cancels_with_negation(x):
    assert combine(ONE, x, Scalar(-1), x).is_zero()
    assert (x - x).is_zero()


@given(elements, elements, elements)
@settings(max_examples=60)
def test_bracket_fully_antisymmetric_on_elements(x, y, z):
    bdef = a_omega_delta()
    xyz = bracket_eval(bdef, x, y, z)
    assert xyz == -bracket_eval(bdef, y, x, z)
    assert xyz == -bracket_eval(bdef, x, z, y)
    assert xyz == bracket_eval(bdef, z, x, y)


@given(elements, elements, elements, scalars)
@settings(max_examples=60)
def test_bracket_linear_in_first_slot(x, y, z, a):
    bdef = a_omega_delta()
    left = bracket_eval(bdef, x.scale(a), y, z)
    assert left == bracket_eval(bdef, x, y, z).scale(a)


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(
        st.dictionaries(st.integers(min_value=0, max_value=5), st.integers(-4, 4), max_size=4),
        max_size=8,
    ),
)
@settings(max_examples=60)
def test_nullspace_rank_identity(n, raw_rows):
    uids = [unknown("x", i) for i in range(n)]
    system = ConstraintSystem(uids)
    kept = []
    for raw in raw_rows:
        row = {uids[i % n]: Scalar(v) for i, v in raw.items() if v}
        if row:
            system.add_row(row)
            kept.append({system.column_of(u): c for u, c in row.items()})
    space = nullspace(system)
    assert rank(kept) + space.dimension == n
    assert space.verify_against(system)


small = st.integers(-3, 3)
gaussian_ints = st.builds(Scalar, small, small).filter(bool)
real_ints = small.filter(bool).map(Scalar)


@st.composite
def systems_and_spaces(draw):
    """A sparse system whose rows touch only some of its columns, with
    integer or Gaussian-integer rows, and a space on a permutation of its
    unknowns: random vectors (the empty one included), its nullspace
    basis, and nullspace vectors with one coordinate changed."""
    n = draw(st.integers(1, 7))
    touched = draw(st.integers(1, n))
    coeffs = gaussian_ints if draw(st.booleans()) else real_ints
    uids = [unknown("x", i) for i in range(n)]
    system = ConstraintSystem(uids)
    for row in draw(st.lists(
        st.dictionaries(st.integers(0, touched - 1), coeffs, min_size=1, max_size=4), max_size=10
    )):
        system.add_row({uids[col]: v for col, v in row.items()})
    columns = st.integers(0, n - 1)
    vectors = draw(st.lists(st.dictionaries(columns, nonzero_scalars, max_size=4), max_size=4))
    vectors.append({})
    for vec in nullspace(system).basis:
        vectors.append(vec)
        changed = dict(vec)
        changed[draw(columns)] = draw(nonzero_scalars)
        vectors.append(changed)
    order = draw(st.permutations(range(n)))
    position = {col: j for j, col in enumerate(order)}
    basis = [{position[col]: v for col, v in vec.items()} for vec in vectors]
    return system, SolutionSpace([uids[col] for col in order], basis)


@given(systems_and_spaces())
@settings(max_examples=150)
def test_residuals_match_the_all_rows_oracle(case):
    system, space = case
    assert space.residuals(system) == residuals_oracle(space, system)
