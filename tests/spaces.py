"""Test-side views of sparse solution spaces, and the all-rows
substitution loop that SolutionSpace.residuals is checked against."""

from math import lcm

from translie.linalg import SolutionSpace
from translie.scalars import ONE, ZERO


def dense(space, idx):
    """Basis vector idx as a list with one Scalar per unknown, zeros included."""
    vec = space.basis[idx]
    return [vec.get(col, ZERO) for col in range(len(space.unknowns))]


def assignment_space(system, assignment):
    """An assignment UnknownId -> Scalar as a one-vector space on the
    system's unknowns, so SolutionSpace.residuals can check it."""
    vec = {system.column_of(uid): v for uid, v in assignment.items() if v}
    return SolutionSpace(list(system.unknowns), [vec])


def assert_sparse_basis(space):
    """Every vector stores no zero, is 1 at its smallest column, and has
    its columns among the space's unknowns."""
    for vec in space.basis:
        assert vec and all(vec.values())
        assert vec[min(vec)] == ONE
        assert all(col in range(len(space.unknowns)) for col in vec)


def residuals_oracle(space, system):
    """SolutionSpace.residuals by brute force: every vector is dotted with
    every distinct form in order, integer forms in integers against each
    vector's real and imaginary part scaled to integers."""
    col_map = [system.column_of(uid) for uid in space.unknowns]
    out = []
    for vec in space.basis:
        sparse = {col_map[col]: coeff for col, coeff in vec.items()}
        parts = [p for p in (_int_part(sparse, "re"), _int_part(sparse, "im")) if p]
        for form, row in system.distinct.items():
            if type(form[0][1]) is int:
                nonzero = any(_dot(form, part, 0) for part in parts)
            else:
                nonzero = _dot(form, sparse, ZERO)
            if nonzero:
                out.append(row)
                break
        else:
            out.append(None)
    return out


def _int_part(vec, attr):
    part = {col: getattr(v, attr) for col, v in vec.items()}
    den = lcm(*[q.denominator for q in part.values()])
    return {col: q.numerator * (den // q.denominator) for col, q in part.items() if q}


def _dot(items, vec, zero):
    total = zero
    for col, coeff in items:
        v = vec.get(col)
        if v is not None:
            total = total + coeff * v
    return total
