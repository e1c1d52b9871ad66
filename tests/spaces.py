"""Test-side views of sparse solution spaces, and the all-rows
substitution loop that SolutionSpace.residuals is checked against."""

from math import lcm

from translie.linalg import SolutionSpace, _normal_form
from translie.scalars import ZERO, GaussInt, lift


def dense(space, idx):
    """Basis vector idx as reported, a list with one Scalar per unknown,
    zeros included."""
    vec = space.vector_as_dict(idx)
    return [vec.get(uid, ZERO) for uid in space.unknowns]


def has_gaussian_form(system):
    """Whether a distinct form of the system has a GaussInt, which makes
    its elimination run in Z[i]."""
    return any(type(v) is GaussInt for form in system.distinct for _, v in form)


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
    dotted with every distinct form in order, in pair arithmetic."""
    col_map = [system.column_of(uid) for uid in space.unknowns]
    out = []
    for vec in space.basis:
        vec = {col: lift(v) for col, v in vec.items()}
        den = lcm(*[q.denominator for v in vec.values() for q in (v.re, v.im)])
        pairs = {
            col_map[col]: (int(v.re * den), int(v.im * den)) for col, v in vec.items()
        }
        for form, row in system.distinct.items():
            re = im = 0
            for col, coeff in form:
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
