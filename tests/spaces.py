"""Test-side views of sparse solution spaces, the rank of a list of rows,
and the all-rows substitution loop that SolutionSpace.residuals is
checked against."""

from math import lcm

from translie.linalg import ConstraintSystem, SolutionSpace, _normal_form
from translie.scalars import ZERO, GaussInt, lift


def dense(space, idx):
    """Basis vector idx as reported, a list with one Scalar per unknown,
    zeros included."""
    vec = space.vector_as_dict(idx)
    return [vec.get(uid, ZERO) for uid in space.unknowns]


def has_gaussian_form(system):
    """Whether a row's normal form has a GaussInt, which makes its
    elimination run in Z[i]."""
    return any(type(v) is GaussInt for row in system._rows for _, v in _normal_form(row))


def assignment_space(system, assignment):
    """An assignment UnknownId -> Scalar as a one-vector space on the
    system's unknowns, so SolutionSpace.residuals can check it."""
    vec = {system.column_of(uid): v for uid, v in assignment.items() if v}
    return SolutionSpace(list(system.unknowns), [vec])


def assert_sparse_basis(space):
    """Every vector stores no zero, is its own normal form (primitive over
    Z or Z[i], canonical at its smallest column), and has its columns
    among the space's unknowns."""
    for vec in space.basis:
        assert vec and all(vec.values())
        assert dict(_normal_form(vec)) == vec
        assert all(col in range(len(space.unknowns)) for col in vec)


def residuals_oracle(space, system):
    """SolutionSpace.residuals by brute force: every vector, lifted to
    Scalars and scaled to Gaussian integers held as pairs of ints, is
    dotted with every row's normal form in order, in pair arithmetic."""
    col_map = [system.column_of(uid) for uid in space.unknowns]
    out = []
    for vec in space.basis:
        vec = {col: lift(v) for col, v in vec.items()}
        den = lcm(*[q.denominator for v in vec.values() for q in (v.re, v.im)])
        pairs = {
            col_map[col]: (int(v.re * den), int(v.im * den)) for col, v in vec.items()
        }
        for row, given in enumerate(system._rows):
            re = im = 0
            for col, coeff in _normal_form(given):
                if col in pairs:
                    a, b = (coeff, 0) if type(coeff) is int else (coeff.re, coeff.im)
                    c, d = pairs[col]
                    re += a * c - b * d
                    im += a * d + b * c
            if re or im:
                out.append(row)
                break
        else:
            out.append(None)
    return out


def rank(rows):
    """Rank of a list of sparse rows of ints, GaussInts or Scalars (not
    changed); zero entries are dropped, as ConstraintSystem.add_row drops
    them, and a row with no other entry adds nothing."""
    system = ConstraintSystem()
    for row in rows:
        system.add_columns({col: v for col, v in row.items() if v})
    return system.rank()
