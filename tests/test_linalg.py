import random
from fractions import Fraction

import pytest

from translie import linalg
from translie.algebras import afk, functional
from translie.checks import window
from translie.errors import UnknownNotFoundError, VerificationError
from translie.linalg import (
    ConstraintSystem,
    LeadSpan,
    SolutionSpace,
    nullspace,
    project_solution,
    unknown,
)
from translie.scalars import GaussInt, ONE, Scalar, ZERO, lift
from translie.solver import Ansatz, assemble_system

from nullspace_reference import eliminate_before_last_cutting_row
from spaces import assert_sparse_basis, dense, has_gaussian_form, rank, residuals_oracle


def _system(unknown_names, rows):
    uids = [unknown(n, 0) for n in unknown_names]
    sys_ = ConstraintSystem(uids)
    for row in rows:
        sys_.add_row({uids[i]: Scalar(c) for i, c in row.items()})
    return sys_, uids


def test_rank_one_system():
    sys_, _ = _system("xy", [{0: 1, 1: 2}, {0: 2, 1: 4}])
    space = nullspace(sys_)
    assert space.dimension == 1
    # (-2, 1) up to scale; normalized so the first nonzero coordinate is 1
    assert_sparse_basis(space)
    vec = dense(space, 0)
    assert vec[0] == ONE
    assert vec[1] == Scalar(Fraction(-1, 2))


def test_identity_system_trivial_nullspace():
    sys_, _ = _system("xy", [{0: 1}, {1: 1}])
    assert nullspace(sys_).dimension == 0


def test_empty_row_system_full_nullspace():
    sys_, _ = _system("xyz", [])
    space = nullspace(sys_)
    assert space.dimension == 3


def test_project_drops_vanishing_vector():
    uids = [unknown(n, 0) for n in "xyz"]
    space = SolutionSpace(
        unknowns=uids,
        basis=[{0: ONE}, {1: ONE}],
    )
    projected = project_solution(space, {uids[0], uids[2]})
    assert_sparse_basis(projected)
    assert projected.dimension == 1
    assert projected.unknowns == [uids[0], uids[2]]
    assert dense(projected, 0) == [ONE, ZERO]


def test_project_identity():
    sys_, uids = _system("xyz", [{0: 1, 1: 1, 2: 1}])
    space = nullspace(sys_)
    projected = project_solution(space, set(uids))
    assert_sparse_basis(projected)
    assert projected.dimension == space.dimension
    assert projected.unknowns == space.unknowns


def test_project_unknown_not_found():
    sys_, uids = _system("xy", [])
    space = nullspace(sys_)
    with pytest.raises(UnknownNotFoundError):
        project_solution(space, {unknown("q", 7)})


def test_rank_nullity_on_random_systems():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 8)
        uids = [unknown("x", i) for i in range(n)]
        sys_ = ConstraintSystem(uids)
        rows = []
        for _ in range(rng.randint(0, 12)):
            row = {
                uids[i]: Scalar(rng.randint(-3, 3))
                for i in rng.sample(range(n), rng.randint(1, n))
            }
            rows.append({sys_.column_of(u): c for u, c in row.items() if c})
            sys_.add_row(row)
        space = nullspace(sys_)
        assert_sparse_basis(space)
        assert rank(rows) + space.dimension == n
        assert space.verify_against(sys_)


def test_system_rank_is_the_unknowns_less_the_nullity():
    """The RREF of the rows' normal forms and the column elimination count
    the same rank; the test-side rank drops zero entries as add_row does."""
    rng = random.Random(5)
    for _ in range(30):
        uids = [unknown("x", i) for i in range(6)]
        sys_ = ConstraintSystem(uids)
        rows = []
        for _ in range(rng.randint(0, 9)):
            row = {uids[i]: Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for i in range(6)}
            sys_.add_row(row)
            rows.append({sys_.column_of(u): c for u, c in row.items()})
        assert sys_.rank() == rank(rows) == 6 - nullspace(sys_).dimension
    assert rank([{0: 0}, {}, {1: ZERO, 2: 0}]) == 0


def test_rows_are_kept_once_in_their_own_type():
    """add_columns keeps the row it is given; add_row keeps an int row in
    ints and a Scalar row in Scalars; rows is a new Scalar copy, columns in
    the order given, equal to what lifting every int gives."""
    sys_, (x, y, z) = _system("xyz", [])
    given = {2: 6, 0: -4}
    assert sys_.add_columns(given, ("p", 1)) is given
    sys_.add_row({y: 3, x: 0, z: -9})
    sys_.add_row({x: Scalar(1, 1), z: Scalar(2)})
    assert sys_._rows[0] is given
    assert [[type(v) for v in row.values()] for row in sys_._rows] == [
        [int, int], [int, int], [Scalar, Scalar]
    ]
    view = sys_.rows
    assert [list(row.items()) for row in view] == [
        [(2, Scalar(6)), (0, Scalar(-4))],
        [(1, Scalar(3)), (2, Scalar(-9))],
        [(0, Scalar(1, 1)), (2, Scalar(2))],
    ]
    assert all(type(v) is Scalar for row in view for v in row.values())
    view[0][2] = ZERO  # the view is a copy
    assert sys_.rows[0] == {2: Scalar(6), 0: Scalar(-4)}
    assert sys_.provenance == [("p", 1), None, None]
    # (1+i, 2) = (1+i) * (1, 1-i): a primitive Gaussian-integer form
    assert [linalg._normal_form(row) for row in sys_._rows] == [
        ((0, 2), (2, -3)), ((1, 1), (2, -3)), ((0, 1), (2, GaussInt(1, -1)))
    ]
    assert has_gaussian_form(sys_)


def test_mixed_rows_are_kept_as_given_and_normalized():
    """Rows mixing ints and Scalars, as the family relations write them, are
    kept as given and normalized like their all-Scalar form."""
    sys_, (x, y, z) = _system("xyz", [])
    sys_.add_row({x: 1, y: Scalar(-2)})  # a[r,i] = h, h's coefficient a Scalar
    sys_.add_row({y: Scalar(4), z: -2})
    assert not has_gaussian_form(sys_)
    sys_.add_row({x: 2, z: Scalar(0, 2)})
    assert sys_.rows == [
        {0: ONE, 1: Scalar(-2)}, {1: Scalar(4), 2: Scalar(-2)}, {0: Scalar(2), 2: Scalar(0, 2)}
    ]
    assert [[type(v) for v in row.values()] for row in sys_._rows] == [
        [int, Scalar], [Scalar, int], [int, Scalar]
    ]
    forms = [linalg._normal_form(row) for row in sys_._rows]
    assert forms == [((0, 1), (1, -2)), ((1, 2), (2, -1)), ((0, 1), (2, GaussInt(0, 1)))]
    assert has_gaussian_form(sys_)
    assert [linalg._normal_form(row) for row in sys_.rows] == forms


def test_zero_empty_and_unregistered_rows_append_nothing():
    sys_, (x, y) = _system("xy", [])
    assert sys_.add_row({}) == {}
    assert sys_.add_row({x: 0, y: ZERO}, ("zero",)) == {}
    assert sys_.add_columns({}, ("empty",)) == {}
    with pytest.raises(UnknownNotFoundError):
        sys_.add_row({x: 1, unknown("w", 0): 2})
    assert (sys_.rows, sys_.provenance) == ([], [])


def test_lead_span_reduces_by_leading_column_only():
    """A kept row keeps its entries in later leads' columns; a row reduces
    to zero exactly when it lies in the span; every kept row is a normal
    form, whether it came in ints, Gaussian integers or Scalars."""
    span = LeadSpan()
    assert span.insert({0: Scalar(2), 1: Scalar(4)})
    assert span.insert({1: -3, 2: 6})
    assert not span.insert({0: 5, 1: 11, 2: -2})
    assert span.rows == {0: {0: 1, 1: 2}, 1: {1: 1, 2: -2}}
    assert span.reduce({2: 1}) == {2: 1}
    # a Scalar row is normalized to 2 x0 - i x3, then reduced in Z[i]
    assert span.insert({0: Scalar(0, 2), 3: Scalar(1)})
    assert span.rows[2] == {2: 8, 3: GaussInt(0, 1)}
    gaussian = LeadSpan()
    assert gaussian.insert({0: Scalar(0, 2), 3: Scalar(1)})
    assert gaussian.rows == {0: {0: 2, 3: GaussInt(0, -1)}}
    assert gaussian.reduce({0: GaussInt(0, 2), 3: 1}) == {}
    assert not gaussian.insert({0: Scalar(1), 3: Scalar(0, Fraction(-1, 2))})
    # a Gaussian row meets an integer kept row: math.gcd gives way to ggcd
    assert gaussian.insert({3: 1, 4: GaussInt(1, 1)})
    assert not gaussian.insert({0: GaussInt(2, 2), 3: GaussInt(2, -2), 4: 2})
    assert gaussian.rows[3] == {3: 1, 4: GaussInt(1, 1)}


def test_verification_catches_bad_vector():
    sys_, uids = _system("xy", [{0: 1, 1: 1}])
    bad = SolutionSpace(unknowns=uids, basis=[{0: ONE, 1: ONE}])
    assert not bad.verify_against(sys_)
    # an integer row is checked against a Gaussian vector in Z[i]
    assert not SolutionSpace(uids, [{0: ONE, 1: Scalar(-1, 1)}]).verify_against(sys_)
    assert SolutionSpace(uids, [{0: Scalar(0, 1), 1: Scalar(0, -1)}]).verify_against(sys_)


def test_residuals_name_the_first_row_each_vector_misses():
    # rows: x + y, 2x + 2y (same form as row 0), z, iy + z
    sys_, uids = _system("xyz", [{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 1}])
    sys_.add_row({uids[1]: Scalar(0, 1), uids[2]: ONE})
    space = SolutionSpace(
        uids,
        [
            {0: ONE, 1: -ONE},  # misses the Gaussian row only
            {},
            {0: ONE, 1: ONE},  # misses row 0 first
            {2: Scalar(0, 1)},  # misses z = 0 in its imaginary part
        ],
    )
    assert list(space.residuals(sys_)) == [3, None, 0, 2]
    assert space.first_residual(sys_) == (0, 3)
    assert SolutionSpace(uids, [{}]).first_residual(sys_) is None


def test_a_space_with_no_vector_reads_no_row():
    """A space with no vector has no residual, and returns before it reads
    a row: a dimension-0 answer such as tp-triviality's streams none."""
    sys_, uids = _system("xy", [{0: 1, 1: 1}])
    sys_._rows = None  # reading a row would raise
    assert SolutionSpace(uids, []).residuals(sys_) == []
    assert SolutionSpace(uids, []).verify_against(sys_)


def _full_window_system(f_zero):
    """The a-f-k, k = 1 system on the full window [-4,4], f = {0: f_zero, 1: 2}."""
    w = window(-4, 4)
    bdef = afk(1, functional({0: f_zero, 1: Scalar(2)}))
    return assemble_system(bdef, Ansatz(w, image=w), w)


@pytest.mark.parametrize("f_zero", [Scalar(3), Scalar(1, 1)], ids=["real", "gaussian"])
def test_residuals_match_the_oracle_on_full_window_systems(f_zero):
    """The column-indexed loop and the all-rows loop agree on a solved
    many-vector space and on the same space with every vector perturbed
    at a coordinate it has and, for two vectors in three, at one it may
    lack."""
    system = _full_window_system(f_zero)
    space = nullspace(system)
    assert space.dimension > 50
    assert space.residuals(system) == residuals_oracle(space, system) == [None] * space.dimension
    n = system.num_unknowns

    def perturb(i, vec):
        own = sorted(vec)[i % len(vec)]
        cols = {own, (7 * i) % n} if i % 3 else {own}
        return {**vec, **{c: vec.get(c, 0) + Scalar(1, i % 2) for c in cols}}

    perturbed = SolutionSpace(space.unknowns, [perturb(i, vec) for i, vec in enumerate(space.basis)])
    expected = residuals_oracle(perturbed, system)
    assert perturbed.residuals(system) == expected
    assert sum(row is not None for row in expected) > space.dimension // 2


@pytest.mark.parametrize("f_zero", [Scalar(3), Scalar(1, 1)], ids=["real", "gaussian"])
def test_dropped_pivot_raises_verification_error_naming_the_oracle_row(f_zero, monkeypatch):
    """An elimination that loses a pivot, by stopping before its last
    cutting row, yields a basis that misses rows; nullspace names the first
    vector that does and the first row it misses, the same pair the
    all-rows loop finds."""
    verify = SolutionSpace.verify_against
    checked = []

    def record(space, system):
        checked.append(space)
        return verify(space, system)

    eliminate_before_last_cutting_row(monkeypatch)
    monkeypatch.setattr(SolutionSpace, "verify_against", record)
    system = _full_window_system(f_zero)
    with pytest.raises(VerificationError) as exc:
        nullspace(system)
    (space,) = checked
    idx, row = next((i, r) for i, r in enumerate(residuals_oracle(space, system)) if r is not None)
    assert str(exc.value) == (
        f"nullspace verification failed: basis vector {idx} leaves row "
        f"{system.describe(row)} nonzero"
    )


def test_a_repeated_unknown_is_refused():
    x = unknown("x", 0)
    with pytest.raises(ValueError, match=r"unknown x\[0\] is repeated"):
        ConstraintSystem([x, unknown("y", 0), x])


def test_row_referencing_unregistered_unknown():
    sys_ = ConstraintSystem([unknown("x", 0)])
    with pytest.raises(UnknownNotFoundError):
        sys_.add_row({unknown("y", 0): ONE})


def test_gaussian_rational_rows():
    u, v = unknown("x", 0), unknown("x", 1)
    sys_ = ConstraintSystem([u, v])
    sys_.add_row({u: Scalar(0, 1), v: Scalar(1)})  # i*x + y = 0
    space = nullspace(sys_)
    assert space.dimension == 1
    assert_sparse_basis(space)
    x, y = dense(space, 0)
    assert x == ONE and y == Scalar(0, -1)


@pytest.mark.parametrize("f_zero", [Scalar(3), Scalar(1, 1)], ids=["real", "gaussian"])
def test_a_space_stores_the_normal_form_nullspace_stores(f_zero):
    """A space given v, v/2, i*v, (1+i)*v, or v times a rational or 1/2+i
    as Scalars, for every vector v of a nullspace, stores that nullspace's
    basis."""
    system = _full_window_system(f_zero)
    space = nullspace(system)
    multiples = [
        lambda v: v,
        lambda v: lift(v) * Scalar(Fraction(1, 2)),
        lambda v: GaussInt(0, 1) * v,
        lambda v: GaussInt(1, 1) * v,
        lambda v: lift(v) * Scalar(Fraction(-2, 3)),
        lambda v: lift(v) * Scalar(Fraction(1, 2), 1),
    ]
    for scale in multiples:
        given = [{col: scale(v) for col, v in vec.items()} for vec in space.basis]
        assert SolutionSpace(space.unknowns, given).basis == space.basis


def test_a_space_drops_zero_entries():
    """A vector given with a zero entry, of any coefficient type, is stored
    and reported without it; an all-zero vector is stored empty."""
    uids = [unknown("x", j) for j in range(3)]
    space = SolutionSpace(uids, [{0: Scalar(0), 1: ONE}, {0: 0, 2: GaussInt(1, 1)}, {1: ZERO}])
    assert space.basis == [{1: 1}, {2: 1}, {}]
    assert space.vector_as_dict(0) == {uids[1]: ONE}
    assert space.vector_as_dict(1) == {uids[2]: ONE}


def test_vector_as_dict_is_one_at_the_smallest_column():
    """Real, rational and 1+i vectors are stored as normal forms and
    reported in column order, divided by their value at their smallest
    column."""
    uids = [unknown("x", j) for j in range(4)]
    space = SolutionSpace(
        uids,
        [
            {3: 4, 1: -6},
            {2: Scalar(Fraction(3, 4)), 0: Scalar(Fraction(-1, 2)), 3: Scalar(5)},
            {2: 2, 1: GaussInt(1, 1)},
        ],
    )
    assert space.basis == [{1: 3, 3: -2}, {0: 2, 2: -3, 3: -20}, {1: 1, 2: GaussInt(1, -1)}]
    reported = [space.vector_as_dict(idx) for idx in range(space.dimension)]
    assert [list(vec.items()) for vec in reported] == [
        [(uids[1], ONE), (uids[3], Scalar(Fraction(-2, 3)))],
        [(uids[0], ONE), (uids[2], Scalar(Fraction(-3, 2))), (uids[3], Scalar(-10))],
        [(uids[1], ONE), (uids[2], Scalar(1, -1))],
    ]
